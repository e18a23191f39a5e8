"""Bit-level packing helpers.

The ColorBars pipeline moves between three representations of the payload:

* ``bytes`` at the application boundary,
* flat bit lists (MSB-first) between the FEC layer and the CSK mapper,
* fixed-width bit groups (one group per CSK symbol).

These helpers centralize the conversions so every layer agrees on bit order.
All functions treat bits as Python ints equal to 0 or 1, MSB-first within a
byte or integer.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

from repro.exceptions import ConfigurationError
from repro.util.validation import require


def bytes_to_bits(data: bytes) -> List[int]:
    """Expand ``data`` into a flat list of bits, MSB-first per byte.

    >>> bytes_to_bits(b"\\xA0")
    [1, 0, 1, 0, 0, 0, 0, 0]
    """
    bits: List[int] = []
    for byte in data:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
    return bits


def bits_to_bytes(bits: Sequence[int], strict: bool = True) -> bytes:
    """Pack bits (MSB-first) into bytes.

    With ``strict=True`` the bit count must be a multiple of 8; otherwise the
    trailing partial byte is zero-padded on the right.
    """
    _check_bits(bits)
    remainder = len(bits) % 8
    if remainder and strict:
        raise ConfigurationError(
            f"bit count {len(bits)} is not a multiple of 8; "
            "pass strict=False to zero-pad"
        )
    padded = list(bits)
    if remainder:
        padded.extend([0] * (8 - remainder))
    out = bytearray()
    for offset in range(0, len(padded), 8):
        value = 0
        for bit in padded[offset : offset + 8]:
            value = (value << 1) | bit
        out.append(value)
    return bytes(out)


def int_to_bits(value: int, width: int) -> List[int]:
    """Encode ``value`` as exactly ``width`` bits, MSB-first.

    Raises :class:`ConfigurationError` if the value does not fit.
    """
    require(width > 0, f"width must be positive, got {width}")
    require(value >= 0, f"value must be non-negative, got {value}")
    if value >= (1 << width):
        raise ConfigurationError(f"value {value} does not fit in {width} bits")
    return [(value >> shift) & 1 for shift in range(width - 1, -1, -1)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Interpret ``bits`` (MSB-first) as an unsigned integer."""
    _check_bits(bits)
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    return value


def chunk_bits(bits: Sequence[int], width: int) -> Iterator[List[int]]:
    """Yield consecutive groups of ``width`` bits.

    The final group is zero-padded to ``width``; callers that need exact
    framing should pad with :func:`pad_bits` first.
    """
    require(width > 0, f"width must be positive, got {width}")
    _check_bits(bits)
    for offset in range(0, len(bits), width):
        group = list(bits[offset : offset + width])
        if len(group) < width:
            group.extend([0] * (width - len(group)))
        yield group


def pad_bits(bits: Sequence[int], multiple: int) -> List[int]:
    """Zero-pad ``bits`` on the right to a multiple of ``multiple``."""
    require(multiple > 0, f"multiple must be positive, got {multiple}")
    _check_bits(bits)
    padded = list(bits)
    remainder = len(padded) % multiple
    if remainder:
        padded.extend([0] * (multiple - remainder))
    return padded


def _check_bits(bits: Iterable[int]) -> None:
    for index, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ConfigurationError(f"element {index} is {bit!r}, expected 0 or 1")
