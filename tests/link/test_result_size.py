"""A sweep cell's result keeps its bands once and scores them as columns.

``LinkResult.report.bands`` is the only copy of a cell's received bands:
the metrics are scored from the band log's columns, with no per-band
object built.  These gates pin both halves on a Nexus 5 grid that includes
a ``timing-jitter`` cell, so the per-frame start-offset path runs:

* every cell's ``LinkMetrics`` equals a reference that scores the cell
  over materialized :class:`~repro.rx.detector.ReceivedBand` objects, the
  way the metrics were computed before they read columns;
* a pickled result (what a pool worker ships and the journal stores) costs
  at most 100 bytes per band.  Results that also kept one ground-truth
  object per band (``LinkResult.matches``) pickled to ~240 bytes per band
  on this grid.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

import repro.link.simulator as simulator_module
from repro.camera.devices import nexus_5
from repro.core.metrics import LinkMetrics
from repro.csk.demodulator import DecisionKind
from repro.faults.injectors import TimingJitterInjector
from repro.link.simulator import sweep_specs
from repro.phy.symbols import SymbolKind

MAX_PICKLED_BYTES_PER_BAND = 100


def _reference_metrics(report, symbols, waveform, start_offsets, config, duration_s):
    """The cell's metrics, scored band object by band object."""
    bands = list(report.bands)
    mid_times = np.array([band.mid_time for band in bands])
    if start_offsets:
        mid_times -= np.array(
            [start_offsets.get(band.frame_index, 0.0) for band in bands]
        )
    positions = waveform.symbol_index_at(mid_times).tolist()
    pairs = [
        (band.decision, symbols[position])
        for band, position in zip(bands, positions)
        if position >= 0
    ]

    def correct(decision, truth):
        if truth.kind is SymbolKind.OFF:
            return decision.kind is DecisionKind.OFF
        if truth.kind is SymbolKind.WHITE:
            return decision.kind is DecisionKind.WHITE
        return decision.kind is DecisionKind.DATA and decision.index == truth.index

    def error_rate(scored):
        if not scored:
            return 0.0
        return sum(1 for d, t in scored if not correct(d, t)) / len(scored)

    data_received = sum(
        1 for band in bands if band.decision.kind is DecisionKind.DATA
    )
    opportunities = report.symbols_detected + report.symbols_lost_in_gaps
    return LinkMetrics(
        symbol_error_rate=error_rate(pairs),
        data_symbol_error_rate=error_rate(
            [(d, t) for d, t in pairs if t.kind is SymbolKind.DATA]
        ),
        throughput_bps=data_received * config.bits_per_symbol / duration_s,
        goodput_bps=(
            report.packets_decoded * config.rs_params().k * 8 / duration_s
        ),
        duration_s=duration_s,
        symbols_compared=len(pairs),
        data_symbols_received=data_received,
        packets_decoded=report.packets_decoded,
        packets_seen=report.packets_seen,
        inter_frame_loss_ratio=(
            report.symbols_lost_in_gaps / opportunities if opportunities else 0.0
        ),
    )


@pytest.fixture(scope="module")
def cells():
    """``(spec, result, alignment inputs)`` for each cell of the grid."""
    specs = list(
        sweep_specs(
            nexus_5(),
            orders=(4, 16),
            symbol_rates=(1000.0, 3000.0),
            duration_s=0.5,
            seed=5,
        ).values()
    )
    specs[1] = replace(specs[1], faults=(TimingJitterInjector(0.25),))
    original = simulator_module.align_ground_truth
    calls = []

    def capturing(bands, symbols, waveform, *, start_offsets=None):
        calls.append((symbols, waveform, start_offsets))
        return original(bands, symbols, waveform, start_offsets=start_offsets)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator_module, "align_ground_truth", capturing)
        results = [spec.execute() for spec in specs]
    assert len(calls) == len(specs)
    return list(zip(specs, results, calls))


def test_the_grid_runs_the_start_offset_path_and_scores_errors(cells):
    offsets = [start_offsets for _, _, (_, _, start_offsets) in cells]
    assert sum(1 for entry in offsets if entry) == 1
    assert any(result.metrics.symbol_error_rate > 0 for _, result, _ in cells)


def test_metrics_equal_the_band_object_reference(cells):
    for spec, result, (symbols, waveform, start_offsets) in cells:
        reference = _reference_metrics(
            result.report,
            symbols,
            waveform,
            start_offsets,
            spec.config,
            spec.duration_s,
        )
        assert result.metrics == reference, (
            spec.config.csk_order,
            spec.config.symbol_rate,
        )


def test_a_pickled_result_costs_at_most_100_bytes_per_band(cells):
    for spec, result, _ in cells:
        bands = len(result.report.bands)
        assert bands > 100
        size = len(pickle.dumps(result))
        assert size <= MAX_PICKLED_BYTES_PER_BAND * bands, (
            spec.config.csk_order,
            spec.config.symbol_rate,
            size / bands,
        )
