"""Unit tests for bit packing helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ConfigurationError
from repro.util.bitstream import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    chunk_bits,
    int_to_bits,
    pad_bits,
)


class TestBytesToBits:
    def test_single_byte_msb_first(self):
        assert bytes_to_bits(b"\xa0") == [1, 0, 1, 0, 0, 0, 0, 0]

    def test_empty(self):
        assert bytes_to_bits(b"") == []

    def test_all_ones(self):
        assert bytes_to_bits(b"\xff") == [1] * 8

    def test_multibyte_order(self):
        bits = bytes_to_bits(b"\x01\x80")
        assert bits == [0] * 7 + [1, 1] + [0] * 7


class TestBitsToBytes:
    def test_roundtrip(self):
        data = bytes(range(256))
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_strict_rejects_partial_byte(self):
        with pytest.raises(ConfigurationError):
            bits_to_bytes([1, 0, 1])

    def test_non_strict_pads_right(self):
        assert bits_to_bytes([1, 0, 1], strict=False) == b"\xa0"

    def test_rejects_non_bits(self):
        with pytest.raises(ConfigurationError):
            bits_to_bytes([0, 2, 1, 0, 0, 0, 0, 0])


class TestIntBits:
    def test_int_to_bits_width(self):
        assert int_to_bits(5, 4) == [0, 1, 0, 1]

    def test_value_too_large(self):
        with pytest.raises(ConfigurationError):
            int_to_bits(16, 4)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            int_to_bits(-1, 4)

    def test_bits_to_int(self):
        assert bits_to_int([1, 0, 1, 1]) == 11

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    def test_roundtrip_20bit(self, value):
        assert bits_to_int(int_to_bits(value, 20)) == value


class TestChunkAndPad:
    def test_chunk_exact(self):
        groups = list(chunk_bits([1, 0, 1, 1, 0, 0], 3))
        assert groups == [[1, 0, 1], [1, 0, 0]]

    def test_chunk_pads_final_group(self):
        groups = list(chunk_bits([1, 1], 3))
        assert groups == [[1, 1, 0]]

    def test_pad_bits(self):
        assert pad_bits([1, 0, 1], 4) == [1, 0, 1, 0]

    def test_pad_noop_when_aligned(self):
        assert pad_bits([1, 0, 1, 1], 4) == [1, 0, 1, 1]
