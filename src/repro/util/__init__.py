"""Shared utilities: bitstream packing, RNG plumbing, and validation helpers."""

from repro.util.bitstream import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    chunk_bits,
    int_to_bits,
    pad_bits,
)
from repro.util.rng import derive_rng, make_rng
from repro.util.validation import (
    require,
    require_in_range,
    require_positive,
    require_probability,
)

__all__ = [
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "chunk_bits",
    "int_to_bits",
    "pad_bits",
    "derive_rng",
    "make_rng",
    "require",
    "require_in_range",
    "require_positive",
    "require_probability",
]
