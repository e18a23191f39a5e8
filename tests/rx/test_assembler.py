"""Unit tests for cross-frame packet assembly.

These tests fabricate per-frame band records directly (no camera), so the
assembler's slot-timing logic, gap handling and erasure accounting can be
exercised deterministically.
"""

import numpy as np
import pytest

from repro.csk.demodulator import KIND_DATA, KIND_OFF, KIND_WHITE, NO_INDEX
from repro.packet.framing import PacketKind, preamble_symbols
from repro.packet.packetizer import PacketConfig, Packetizer
from repro.rx.assembler import PacketAssembler
from repro.rx.detector import BAND_RECORD, FrameRecord

SYMBOL_RATE = 1000.0
PERIOD = 1.0 / SYMBOL_RATE


@pytest.fixture
def packetizer(mapper8):
    return Packetizer(mapper8, PacketConfig(illumination_ratio=0.8))


@pytest.fixture
def assembler(packetizer):
    return PacketAssembler(packetizer, SYMBOL_RATE)


def pack_frame(frame_index, timed_symbols):
    """One frame's :class:`FrameRecord` from ``(mid_time, symbol)`` pairs.

    Each band is decided as the symbol that was sent: OFF dark, WHITE white,
    DATA with its index.  A DATA band's color carries its index in ``a``,
    so calibration chroma tells the symbols apart.
    """
    record = np.zeros(len(timed_symbols), dtype=BAND_RECORD)
    record["row_stop"], record["core_start"], record["core_stop"] = 20, 5, 15
    record["margin"] = np.nan
    record["confident"] = True
    for row, (mid_time, symbol) in enumerate(timed_symbols):
        record["mid_time"][row] = mid_time
        if symbol.is_off:
            record["kind"][row], record["index"][row] = KIND_OFF, NO_INDEX
            record["lab"][row] = (4.0, 0.0, 0.0)
        elif symbol.is_white:
            record["kind"][row], record["index"][row] = KIND_WHITE, NO_INDEX
            record["lab"][row] = (80.0, 0.0, 0.0)
            record["distance"][row] = 0.5
        else:
            record["kind"][row], record["index"][row] = KIND_DATA, symbol.index
            record["lab"][row] = (70.0, float(symbol.index), 0.0)
            record["distance"][row] = 0.5
    return FrameRecord(frame_index, record)


def bands_from_symbols(symbols, *, drop=(), frame_of=None, jitter=0.0, seed=0):
    """One frame record per frame: a band per transmitted symbol, minus `drop`."""
    rng = np.random.default_rng(seed)
    frames = {}
    for position, symbol in enumerate(symbols):
        if position in drop:
            continue
        mid_time = position * PERIOD + PERIOD / 2
        if jitter:
            mid_time += rng.normal(0, jitter * PERIOD)
        frame_index = frame_of(position) if frame_of else 0
        frames.setdefault(frame_index, []).append((mid_time, symbol))
    return [pack_frame(k, frames[k]) for k in sorted(frames)]


class TestStitch:
    def test_contiguous_stream_no_gaps(self, assembler, packetizer):
        symbols = packetizer.build_data_packet(b"\x01\x02")
        stream = assembler.stitch(bands_from_symbols(symbols))
        assert "_" not in stream.chars
        assert len(stream) == len(symbols)

    def test_drop_creates_gap_marker(self, assembler, packetizer):
        symbols = packetizer.build_data_packet(b"\x01\x02\x03\x04")
        stream = assembler.stitch(
            bands_from_symbols(symbols, drop=set(range(15, 20)))
        )
        assert stream.chars.count("_") == 1
        assert assembler.stats.symbols_lost_in_gaps == 5

    def test_timing_jitter_tolerated(self, assembler, packetizer):
        symbols = packetizer.build_data_packet(b"\xaa\xbb")
        stream = assembler.stitch(bands_from_symbols(symbols, jitter=0.2))
        assert "_" not in stream.chars


class TestDataExtraction:
    def test_clean_packet_roundtrip(self, assembler, packetizer):
        codeword = b"\x11\x22\x33\x44\x55"
        symbols = packetizer.build_data_packet(codeword)
        stream = assembler.stitch(bands_from_symbols(symbols))
        packets, calibrations = assembler.extract(stream)
        assert calibrations == []
        assert len(packets) == 1
        packet = packets[0]
        assert packet.header_bytes == 5
        assert packet.codeword == codeword
        assert packet.erasure_positions == []
        assert packet.complete

    def test_gap_in_body_yields_erasures(self, assembler, packetizer):
        codeword = bytes(range(10))
        symbols = packetizer.build_data_packet(codeword)
        drop = set(range(20, 26))  # six body symbols lost
        stream = assembler.stitch(bands_from_symbols(symbols, drop=drop))
        packets, _ = assembler.extract(stream)
        assert len(packets) == 1
        packet = packets[0]
        assert not packet.complete
        assert packet.erasure_positions
        # Unerased bytes must match the codeword exactly.
        for index, byte in enumerate(packet.codeword):
            if index not in packet.erasure_positions:
                assert byte == codeword[index]

    def test_header_loss_drops_packet(self, assembler, packetizer):
        symbols = packetizer.build_data_packet(bytes(6))
        # Drop one size-field symbol (positions 8-10 after the preamble).
        stream = assembler.stitch(bands_from_symbols(symbols, drop={9}))
        packets, _ = assembler.extract(stream)
        assert packets == []
        assert assembler.stats.data_packets_dropped_header == 1

    def test_preamble_loss_drops_packet(self, assembler, packetizer):
        symbols = packetizer.build_data_packet(bytes(6))
        stream = assembler.stitch(bands_from_symbols(symbols, drop={0, 1, 2}))
        packets, _ = assembler.extract(stream)
        assert packets == []

    def test_two_packets_in_stream(self, assembler, packetizer):
        first = packetizer.build_data_packet(b"\x01\x02")
        second = packetizer.build_data_packet(b"\x03\x04")
        symbols = first + second
        stream = assembler.stitch(bands_from_symbols(symbols))
        packets, _ = assembler.extract(stream)
        assert [p.codeword for p in packets] == [b"\x01\x02", b"\x03\x04"]

    def test_trailing_truncation_padded_with_erasures(self, assembler, packetizer):
        codeword = bytes(range(8))
        symbols = packetizer.build_data_packet(codeword)
        keep = len(symbols) - 8
        stream = assembler.stitch(
            bands_from_symbols(symbols[:keep])
        )
        packets, _ = assembler.extract(stream)
        assert len(packets) == 1
        assert packets[0].symbols_erased > 0


class TestErasurePositionEdges:
    """Erasure accounting at the awkward gap geometries."""

    @staticmethod
    def _body_start(packetizer):
        return len(preamble_symbols(PacketKind.DATA)) + (
            packetizer.config.size_field_symbols
        )

    def test_packet_entirely_inside_one_gap(self, assembler, packetizer):
        # Three packets on air; the middle one vanishes whole into a gap.
        first = packetizer.build_data_packet(b"\x01\x02")
        middle = packetizer.build_data_packet(b"\xde\xad")
        last = packetizer.build_data_packet(b"\x03\x04")
        symbols = first + middle + last
        drop = set(range(len(first), len(first) + len(middle)))
        stream = assembler.stitch(bands_from_symbols(symbols, drop=drop))
        assert stream.chars.count("_") == 1
        assert assembler.stats.symbols_lost_in_gaps == len(middle)
        packets, _ = assembler.extract(stream)
        # The swallowed packet is simply never seen; its neighbours survive
        # untouched (the gap burst belongs to neither codeword).
        assert [p.codeword for p in packets] == [b"\x01\x02", b"\x03\x04"]
        assert all(p.erasure_positions == [] for p in packets)

    def test_gap_at_codeword_byte_zero(self, assembler, packetizer):
        codeword = bytes(range(1, 9))
        symbols = packetizer.build_data_packet(codeword)
        layout = packetizer.body_layout(len(codeword))
        body_start = self._body_start(packetizer)
        # Drop the first three *data* body slots: their 9 bits cover codeword
        # bytes 0 and 1, so the erasure list must start at byte 0.
        data_positions = [
            body_start + i for i, is_white in enumerate(layout) if not is_white
        ]
        stream = assembler.stitch(
            bands_from_symbols(symbols, drop=set(data_positions[:3]))
        )
        packets, _ = assembler.extract(stream)
        assert len(packets) == 1
        packet = packets[0]
        assert packet.erasure_positions[0] == 0
        assert packet.erasure_positions == [0, 1]
        for index, byte in enumerate(packet.codeword):
            if index not in packet.erasure_positions:
                assert byte == codeword[index]

    def test_back_to_back_gaps_across_two_frame_boundaries(
        self, assembler, packetizer
    ):
        codeword = bytes(range(10))
        symbols = packetizer.build_data_packet(codeword)
        body_start = self._body_start(packetizer)
        third = len(symbols) // 3
        # Three frames; each boundary loses a burst (frame tail + next head),
        # and the two bursts land in the same packet body.
        frame_of = lambda position: min(position // third, 2)  # noqa: E731
        drop = set(range(third - 2, third + 2)) | set(
            range(2 * third - 2, 2 * third + 2)
        )
        assert min(drop) > body_start  # bursts hit the body, not the header
        stream = assembler.stitch(
            bands_from_symbols(symbols, drop=drop, frame_of=frame_of)
        )
        assert assembler.stats.gaps_inserted == 2
        assert assembler.stats.symbols_lost_in_gaps == len(drop)
        assert assembler.stats.max_gap_symbols == 4
        packets, _ = assembler.extract(stream)
        assert len(packets) == 1
        packet = packets[0]
        assert not packet.complete
        assert packet.symbols_erased == len(drop)
        # Erasures form two separated runs — one per boundary burst.
        runs = 1 + sum(
            1
            for a, b in zip(packet.erasure_positions, packet.erasure_positions[1:])
            if b - a > 1
        )
        assert runs == 2
        for index, byte in enumerate(packet.codeword):
            if index not in packet.erasure_positions:
                assert byte == codeword[index]


class TestCalibrationExtraction:
    def test_complete_calibration(self, assembler, packetizer):
        symbols = packetizer.build_calibration_packet()
        stream = assembler.stitch(bands_from_symbols(symbols))
        _, calibrations = assembler.extract(stream)
        assert len(calibrations) == 1
        event = calibrations[0]
        assert event.indices == list(range(8))
        assert event.complete
        assert event.white_chroma is not None

    def test_partial_calibration_indices(self, assembler, packetizer):
        symbols = packetizer.build_calibration_packet()
        # Preamble is 10 symbols; drop calibration symbols 3 and 4.
        stream = assembler.stitch(bands_from_symbols(symbols, drop={13, 14}))
        _, calibrations = assembler.extract(stream)
        assert len(calibrations) == 1
        assert calibrations[0].indices == [0, 1, 2, 5, 6, 7]

    def test_calibration_then_data(self, assembler, packetizer):
        symbols = (
            packetizer.build_calibration_packet()
            + packetizer.build_data_packet(b"\x0f\xf0")
        )
        stream = assembler.stitch(bands_from_symbols(symbols))
        packets, calibrations = assembler.extract(stream)
        assert len(packets) == 1 and len(calibrations) == 1
