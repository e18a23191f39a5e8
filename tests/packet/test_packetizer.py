"""Unit and property tests for the packetizer."""

import pytest
from hypothesis import given, strategies as st

from repro.csk.constellation import design_constellation
from repro.csk.mapping import SymbolMapper
from repro.exceptions import PacketError, PacketTooLargeError
from repro.packet.framing import DATA_FLAG, DELIMITER, PacketKind, preamble_symbols
from repro.packet.packetizer import PacketConfig, Packetizer, white_schedule
from repro.phy.led import typical_tri_led
from repro.phy.symbols import SymbolKind
from repro.util.bitstream import bytes_to_bits, int_to_bits


@pytest.fixture
def packetizer(mapper8):
    return Packetizer(mapper8, PacketConfig(illumination_ratio=0.8))


class TestWhiteSchedule:
    def test_ratio_respected(self):
        layout = white_schedule(num_data=80, illumination_ratio=0.8)
        assert len(layout) == 100
        assert sum(layout) == 20

    def test_full_data_no_whites(self):
        layout = white_schedule(num_data=50, illumination_ratio=1.0)
        assert len(layout) == 50
        assert sum(layout) == 0

    def test_deterministic(self):
        assert white_schedule(33, 0.7) == white_schedule(33, 0.7)

    def test_empty(self):
        assert white_schedule(0, 0.8) == []

    def test_zero_ratio_rejected(self):
        with pytest.raises(Exception):
            white_schedule(10, 0.0)

    @given(
        st.integers(min_value=1, max_value=400),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_counts_property(self, num_data, ratio):
        layout = white_schedule(num_data, ratio)
        data_slots = len(layout) - sum(layout)
        assert data_slots == num_data
        # White slots are spread: no run of whites longer than needed.
        if 0.4 <= ratio:
            longest = max_run(layout)
            assert longest <= max(2, len(layout) - num_data)

    @given(
        st.integers(min_value=10, max_value=200),
        st.floats(min_value=0.5, max_value=0.95),
    )
    def test_even_spread_property(self, num_data, ratio):
        layout = white_schedule(num_data, ratio)
        whites = [i for i, w in enumerate(layout) if w]
        if len(whites) >= 2:
            gaps = [b - a for a, b in zip(whites, whites[1:])]
            assert max(gaps) - min(gaps) <= len(layout) // len(whites) + 2


def max_run(layout):
    longest = run = 0
    for value in layout:
        run = run + 1 if value else 0
        longest = max(longest, run)
    return longest


def label_bits(mapper, symbols):
    """The bits DATA symbols carry, read back through their labels."""
    bits = []
    for symbol in symbols:
        bits += int_to_bits(mapper.label_of_index(symbol.index), mapper.bits_per_symbol)
    return bits


class TestDataPackets:
    def test_structure(self, packetizer):
        packet = packetizer.build_data_packet(b"\x01\x02\x03")
        chars = "".join(s.to_char() for s in packet[:8])
        assert chars == DELIMITER + DATA_FLAG
        assert len(packet) == packetizer.packet_length(3)

    def test_size_field_roundtrip(self, packetizer, mapper8):
        packet = packetizer.build_data_packet(bytes(37))
        size_bits = label_bits(mapper8, packet[8 : 8 + 3])
        assert int("".join(map(str, size_bits)), 2) == 37

    def test_body_carries_codeword_bits(self, packetizer, mapper8):
        codeword = b"\xde\xad\xbe\xef"
        packet = packetizer.build_data_packet(codeword)
        body = packet[8 + 3 :]
        data_symbols = [s for s in body if s.kind is SymbolKind.DATA]
        bits = label_bits(mapper8, data_symbols)
        assert bits[: len(bytes_to_bits(codeword))] == bytes_to_bits(codeword)

    def test_white_ratio_in_body(self, packetizer):
        packet = packetizer.build_data_packet(bytes(30))
        body = packet[11:]
        whites = sum(1 for s in body if s.is_white)
        datas = sum(1 for s in body if s.kind is SymbolKind.DATA)
        assert datas / (datas + whites) == pytest.approx(0.8, abs=0.05)

    def test_empty_codeword_rejected(self, packetizer):
        with pytest.raises(PacketError):
            packetizer.build_data_packet(b"")

    def test_oversized_codeword_rejected(self, packetizer):
        too_big = packetizer.max_codeword_bytes + 1
        with pytest.raises(PacketTooLargeError):
            packetizer.build_data_packet(bytes(too_big))

    def test_max_codeword_bytes_by_order(self):
        gamut = typical_tri_led().gamut
        for order, expected in ((4, 63), (8, 511), (16, 4095), (32, 32767)):
            mapper = SymbolMapper(design_constellation(order, gamut))
            packetizer = Packetizer(mapper, PacketConfig())
            assert packetizer.max_codeword_bytes == expected

    def test_layout_queries_consistent(self, packetizer):
        for size in (1, 10, 37, 100):
            layout = packetizer.body_layout(size)
            assert len(layout) == packetizer.body_slots_for_codeword(size)
            data_slots = len(layout) - sum(layout)
            assert data_slots == packetizer.data_symbols_for_codeword(size)


class TestCalibrationPackets:
    def test_structure(self, packetizer):
        packet = packetizer.build_calibration_packet()
        assert len(packet) == len(preamble_symbols(PacketKind.CALIBRATION)) + 8
        body = packet[10:]
        assert [s.index for s in body] == list(range(8))

    def test_flag_sequence(self, packetizer):
        packet = packetizer.build_calibration_packet()
        chars = "".join(s.to_char() for s in packet[:10])
        assert chars == "owoowowowo"


class TestPacketConfig:
    def test_invalid_ratio(self):
        with pytest.raises(Exception):
            PacketConfig(illumination_ratio=0.0)

    def test_invalid_size_field(self):
        with pytest.raises(Exception):
            PacketConfig(size_field_symbols=0)
