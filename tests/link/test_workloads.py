"""Unit tests for payload generators."""

import zlib

import pytest

from repro.exceptions import ConfigurationError
from repro.link.workloads import beacon_payload, text_payload


class TestTextPayload:
    def test_ascii_and_size(self):
        data = text_payload(200, seed=3)
        assert len(data) == 200
        assert all(32 <= b < 127 for b in data)

    def test_compressible(self):
        data = text_payload(4096, seed=0)
        assert len(zlib.compress(data)) < 0.5 * len(data)


class TestBeaconPayload:
    def test_structure(self):
        payload = beacon_payload(0xDEADBEEF, "shop.example/aisle7")
        assert payload[:4] == (0xDEADBEEF).to_bytes(4, "big")
        body, checksum = payload[:-4], payload[-4:]
        assert zlib.crc32(body).to_bytes(4, "big") == checksum

    def test_id_range(self):
        with pytest.raises(ConfigurationError):
            beacon_payload(2**32)
