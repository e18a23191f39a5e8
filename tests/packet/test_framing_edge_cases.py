"""Edge-case tests for framing and assembly boundaries."""

import numpy as np
import pytest

from repro.csk.demodulator import DecisionKind, SymbolDecision
from repro.packet.framing import PacketKind, preamble_symbols
from repro.packet.packetizer import PacketConfig, Packetizer
from repro.rx.assembler import PacketAssembler
from repro.rx.detector import ReceivedBand
from repro.rx.segmentation import Band

SYMBOL_RATE = 1000.0
PERIOD = 1.0 / SYMBOL_RATE


@pytest.fixture
def packetizer(mapper8):
    return Packetizer(mapper8, PacketConfig(illumination_ratio=0.8))


@pytest.fixture
def assembler(packetizer):
    return PacketAssembler(packetizer, SYMBOL_RATE)


def bands(symbols, start_position=0):
    out = []
    for offset, symbol in enumerate(symbols):
        position = start_position + offset
        if symbol.is_off:
            decision = SymbolDecision(DecisionKind.OFF, None, 0.0, True)
        elif symbol.is_white:
            decision = SymbolDecision(DecisionKind.WHITE, None, 0.5, True)
        else:
            decision = SymbolDecision(DecisionKind.DATA, symbol.index, 0.5, True)
        out.append(
            ReceivedBand(
                frame_index=0,
                band=Band(0, 20, 5, 15, np.array([70.0, 0.0, 0.0])),
                mid_time=position * PERIOD + PERIOD / 2,
                decision=decision,
            )
        )
    return out


class TestPreambleEdges:
    def test_preamble_at_stream_end_without_body(self, assembler, packetizer):
        """A preamble with no body after it (recording ended) must not
        crash: the header read fails and the packet is dropped."""
        symbols = preamble_symbols(PacketKind.DATA)
        items = assembler.stitch([bands(symbols)])
        packets, calibrations = assembler.extract(items)
        assert packets == [] and calibrations == []
        assert assembler.stats.data_packets_dropped_header == 1

    def test_calibration_preamble_at_stream_end(self, assembler, packetizer):
        symbols = preamble_symbols(PacketKind.CALIBRATION)
        items = assembler.stitch([bands(symbols)])
        packets, calibrations = assembler.extract(items)
        assert calibrations == []
        assert assembler.stats.calibration_packets_dropped == 1

    def test_empty_stream(self, assembler):
        packets, calibrations = assembler.extract([])
        assert packets == [] and calibrations == []

    def test_back_to_back_preambles(self, assembler, packetizer):
        """A data preamble immediately followed by another preamble (the
        first packet's body entirely lost) is dropped cleanly."""
        first = preamble_symbols(PacketKind.DATA)
        second = packetizer.build_data_packet(b"\x11\x22")
        items = assembler.stitch([bands(first + second)])
        packets, _ = assembler.extract(items)
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
        items = assembler.stitch([bands(symbols)])
        packets, _ = assembler.extract(items)
        assert packets == []
        assert assembler.stats.data_packets_dropped_size == 1

    def test_white_in_size_field_drops_packet(self, assembler, packetizer):
        from repro.phy.symbols import white_symbol

        symbols = preamble_symbols(PacketKind.DATA) + [white_symbol()] * 3
        items = assembler.stitch([bands(symbols)])
        packets, _ = assembler.extract(items)
        assert packets == []
        assert assembler.stats.data_packets_dropped_header == 1
