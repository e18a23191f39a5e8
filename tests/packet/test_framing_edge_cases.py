"""Edge-case tests for framing and assembly boundaries."""

import pytest

from tests.rx.test_assembler import pack_frame

from repro.packet.framing import PacketKind, preamble_symbols
from repro.packet.packetizer import PacketConfig, Packetizer
from repro.rx.assembler import PacketAssembler

SYMBOL_RATE = 1000.0
PERIOD = 1.0 / SYMBOL_RATE


@pytest.fixture
def packetizer(mapper8):
    return Packetizer(mapper8, PacketConfig(illumination_ratio=0.8))


@pytest.fixture
def assembler(packetizer):
    return PacketAssembler(packetizer, SYMBOL_RATE)


def bands(symbols, start_position=0):
    """One frame's record: a band per symbol, decided as sent."""
    return pack_frame(
        0,
        [
            ((start_position + offset) * PERIOD + PERIOD / 2, symbol)
            for offset, symbol in enumerate(symbols)
        ],
    )


class TestPreambleEdges:
    def test_preamble_at_stream_end_without_body(self, assembler, packetizer):
        """A preamble with no body after it (recording ended) must not
        crash: the header read fails and the packet is dropped."""
        symbols = preamble_symbols(PacketKind.DATA)
        stream = assembler.stitch([bands(symbols)])
        packets, calibrations = assembler.extract(stream)
        assert packets == [] and calibrations == []
        assert assembler.stats.data_packets_dropped_header == 1

    def test_calibration_preamble_at_stream_end(self, assembler, packetizer):
        symbols = preamble_symbols(PacketKind.CALIBRATION)
        stream = assembler.stitch([bands(symbols)])
        packets, calibrations = assembler.extract(stream)
        assert calibrations == []
        assert assembler.stats.calibration_packets_dropped == 1

    def test_empty_stream(self, assembler):
        packets, calibrations = assembler.extract(assembler.stitch([]))
        assert packets == [] and calibrations == []

    def test_back_to_back_preambles(self, assembler, packetizer):
        """A data preamble immediately followed by another preamble (the
        first packet's body entirely lost) is dropped cleanly."""
        first = preamble_symbols(PacketKind.DATA)
        second = packetizer.build_data_packet(b"\x11\x22")
        stream = assembler.stitch([bands(first + second)])
        packets, _ = assembler.extract(stream)
        # Only the complete second packet survives.
        assert len(packets) == 1
        assert packets[0].codeword == b"\x11\x22"

    def test_find_preambles_overlapping_suffix(self, assembler):
        # "owoowo" + "owowo": a truncated preamble prefix followed by a
        # complete one must yield exactly the complete match.  The scanner
        # reads the dark/lit skeleton: every 'w' is a lit 'x'.
        chars = "oxo" + "oxo" + "oxoxo"  # delimiter, delimiter, flag
        matches = assembler.make_scanner().scan(chars, final=True)
        assert matches == [(3, PacketKind.DATA)]


class TestSizeFieldEdges:
    def test_zero_size_dropped(self, assembler, packetizer, mapper8):
        """A size field decoding to zero bytes is impossible: dropped."""
        symbols = preamble_symbols(PacketKind.DATA)
        symbols += mapper8.bits_to_symbols([0] * 9)  # three zero labels
        stream = assembler.stitch([bands(symbols)])
        packets, _ = assembler.extract(stream)
        assert packets == []
        assert assembler.stats.data_packets_dropped_size == 1

    def test_white_in_size_field_drops_packet(self, assembler, packetizer):
        from repro.phy.symbols import white_symbol

        symbols = preamble_symbols(PacketKind.DATA) + [white_symbol()] * 3
        stream = assembler.stitch([bands(symbols)])
        packets, _ = assembler.extract(stream)
        assert packets == []
        assert assembler.stats.data_packets_dropped_header == 1
