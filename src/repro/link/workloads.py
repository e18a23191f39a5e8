"""Payload generators for link experiments.

The paper motivates ColorBars with location-specific content delivery:
advertisements, promotions, floor maps, navigation hints — small textual or
image payloads broadcast by a luminaire.  These generators produce such
payloads deterministically for benches and examples.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.exceptions import ConfigurationError
from repro.util.rng import make_rng


def text_payload(size: int, seed=0) -> bytes:
    """ASCII text resembling retail/navigation broadcast content."""
    if size <= 0:
        raise ConfigurationError(f"size must be positive, got {size}")
    fragments = [
        b"AISLE 7: household LEDs 20% off this week. ",
        b"Turn left at the next junction for conference room B204. ",
        b"Today's promotion: buy two get one free on batteries. ",
        b"Exit route: corridor east, stairwell two floors down. ",
        b"Gate 12 boarding begins 14:35, walk time 6 minutes. ",
    ]
    rng = make_rng(seed)
    out = bytearray()
    while len(out) < size:
        out.extend(fragments[int(rng.integers(0, len(fragments)))])
    return bytes(out[:size])


def beacon_payload(identifier: int, url: str = "") -> bytes:
    """A minimal smart-sign beacon: 4-byte id plus an optional URL."""
    if not 0 <= identifier < 2**32:
        raise ConfigurationError(
            f"identifier must fit in 32 bits, got {identifier}"
        )
    body = identifier.to_bytes(4, "big") + url.encode("utf-8")
    checksum = zlib.crc32(body).to_bytes(4, "big")
    return body + checksum
