"""Unit tests for the evaluation metrics."""

import numpy as np
import pytest

from repro.core.metrics import (
    align_ground_truth,
    compute_link_metrics,
    data_symbol_error_rate,
    symbol_error_rate,
)
from repro.csk.demodulator import (
    KIND_DATA,
    KIND_WHITE,
    NO_INDEX,
    DecisionKind,
    SymbolDecision,
)
from repro.phy.symbols import data_symbol, off_symbol, white_symbol
from repro.phy.waveform import EXTEND_CYCLE, OpticalWaveform
from repro.rx.detector import ReceivedBand
from repro.rx.receiver import ReceiverReport
from repro.rx.segmentation import Band


def make_band(kind, index=None, mid_time=0.0005, frame=0):
    decision = SymbolDecision(kind, index, 0.5, True)
    return ReceivedBand(
        frame_index=frame,
        band=Band(0, 20, 5, 15, np.array([70.0, 0.0, 0.0])),
        mid_time=mid_time,
        decision=decision,
    )


@pytest.fixture
def stream_and_waveform(modulator8):
    symbols = [data_symbol(1), white_symbol(), off_symbol(), data_symbol(4)]
    waveform = modulator8.waveform(symbols, extend=EXTEND_CYCLE)
    return symbols, waveform


class TestAlignment:
    def test_bands_paired_by_time(self, stream_and_waveform):
        symbols, waveform = stream_and_waveform
        period = waveform.symbol_period
        bands = [
            make_band(DecisionKind.DATA, 1, mid_time=0 * period + period / 2),
            make_band(DecisionKind.WHITE, None, mid_time=1 * period + period / 2),
        ]
        alignment = align_ground_truth(bands, symbols, waveform)
        assert len(alignment) == 2
        assert alignment.position.tolist() == [0, 1]
        assert alignment.truth_index[0] == 1
        assert alignment.kind.tolist() == [KIND_DATA, KIND_WHITE]
        assert alignment.index.tolist() == [1, NO_INDEX]
        assert alignment.correct[0]
        assert alignment.correct[1]

    def test_cyclic_wraparound(self, stream_and_waveform):
        symbols, waveform = stream_and_waveform
        period = waveform.symbol_period
        # 4 symbols -> time 4.5 periods wraps to symbol 0.
        band = make_band(DecisionKind.DATA, 1, mid_time=4.5 * period)
        alignment = align_ground_truth([band], symbols, waveform)
        assert alignment.truth_index[0] == 1

    def test_start_offsets_score_the_true_time(self, stream_and_waveform):
        symbols, waveform = stream_and_waveform
        period = waveform.symbol_period
        # Frame 1 claims to start one period late: its band's claimed
        # mid-time lands on symbol 1, but symbol 0 was on air.
        late = make_band(DecisionKind.DATA, 1, mid_time=1.5 * period, frame=1)
        on_time = make_band(DecisionKind.WHITE, None, mid_time=1.5 * period)
        alignment = align_ground_truth(
            [late, on_time], symbols, waveform, start_offsets={1: period}
        )
        # On air: symbols[0] (DATA 1), then symbols[1] (white).
        assert alignment.truth_kind.tolist() == [KIND_DATA, KIND_WHITE]
        assert alignment.truth_index.tolist() == [1, NO_INDEX]
        assert alignment.correct.tolist() == [True, True]


class TestCorrectness:
    def test_kind_mismatch_incorrect(self, stream_and_waveform):
        symbols, waveform = stream_and_waveform
        period = waveform.symbol_period
        band = make_band(DecisionKind.WHITE, None, mid_time=period / 2)  # truth: data
        alignment = align_ground_truth([band], symbols, waveform)
        assert not alignment.correct[0]

    def test_index_mismatch_incorrect(self, stream_and_waveform):
        symbols, waveform = stream_and_waveform
        band = make_band(DecisionKind.DATA, 2, mid_time=waveform.symbol_period / 2)
        alignment = align_ground_truth([band], symbols, waveform)
        assert not alignment.correct[0]


class TestRates:
    def test_empty_is_zero(self, stream_and_waveform):
        symbols, waveform = stream_and_waveform
        empty = align_ground_truth([], symbols, waveform)
        assert len(empty) == 0
        assert symbol_error_rate(empty) == 0.0
        assert data_symbol_error_rate(empty) == 0.0

    def test_ser_fraction(self, stream_and_waveform):
        symbols, waveform = stream_and_waveform
        period = waveform.symbol_period
        bands = [
            make_band(DecisionKind.DATA, 1, mid_time=period / 2),     # correct
            make_band(DecisionKind.DATA, 0, mid_time=1.5 * period),   # wrong (white)
            make_band(DecisionKind.OFF, None, mid_time=2.5 * period), # correct
            make_band(DecisionKind.DATA, 2, mid_time=3.5 * period),   # wrong (4)
        ]
        alignment = align_ground_truth(bands, symbols, waveform)
        assert symbol_error_rate(alignment) == pytest.approx(0.5)
        # DATA truths are positions 0 and 3: one of two wrong.
        assert data_symbol_error_rate(alignment) == pytest.approx(0.5)


class TestLinkMetrics:
    def test_throughput_and_goodput(self, stream_and_waveform):
        symbols, waveform = stream_and_waveform
        report = ReceiverReport()
        report.bands = [make_band(DecisionKind.DATA, 0)] * 100
        report.symbols_detected = 100
        report.symbols_lost_in_gaps = 25
        report.packets_decoded = 4
        report.packets_seen = 5
        metrics = compute_link_metrics(
            report=report,
            alignment=align_ground_truth([], symbols, waveform),
            bits_per_symbol=3,
            payload_bytes_per_packet=10,
            duration_s=2.0,
        )
        assert metrics.throughput_bps == pytest.approx(150.0)
        assert metrics.goodput_bps == pytest.approx(160.0)
        assert metrics.inter_frame_loss_ratio == pytest.approx(0.2)

    def test_summary_readable(self, stream_and_waveform):
        symbols, waveform = stream_and_waveform
        report = ReceiverReport()
        alignment = align_ground_truth(report.bands, symbols, waveform)
        metrics = compute_link_metrics(report, alignment, 3, 10, 1.0)
        assert "SER" in metrics.summary()

    def test_invalid_duration(self, stream_and_waveform):
        symbols, waveform = stream_and_waveform
        alignment = align_ground_truth([], symbols, waveform)
        with pytest.raises(Exception):
            compute_link_metrics(ReceiverReport(), alignment, 3, 10, 0.0)
