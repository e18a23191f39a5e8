"""Fast ↔ reference capture equivalence at the LinkResult level.

The camera-layer tests pin pixel byte identity; these pin the end-to-end
consequence: a full :class:`LinkSimulator` run must produce identical
metrics, payloads, counters, and per-band decisions regardless of which
capture engine developed the frames.  ``LinkSimulator`` builds its camera
internally, so the engine is selected through the module default
(``repro.camera.sensor.DEFAULT_CAPTURE_PATH``), the same seam every
sweep's cameras are built through.
"""

import numpy as np
import pytest

import repro.camera.sensor as sensor_module
from repro.core.config import SystemConfig
from repro.faults.injectors import make_injector
from repro.link.simulator import LinkSimulator

from tests.conftest import make_tiny_device


def _run_with_path(monkeypatch, path, faults=None, seed=0):
    monkeypatch.setattr(sensor_module, "DEFAULT_CAPTURE_PATH", path)
    config = SystemConfig(
        csk_order=8,
        symbol_rate=1000,
        design_loss_ratio=0.25,
        illumination_ratio=0.8,
    )
    simulator = LinkSimulator(
        config,
        make_tiny_device(),
        seed=seed,
        faults=faults,
    )
    return simulator.run(duration_s=1.0)


def _assert_results_identical(a, b):
    # LinkResult holds numpy arrays (band Lab colors) inside nested
    # dataclasses, so a direct ``==`` is ambiguous; compare field by field.
    assert a.metrics == b.metrics
    assert a.report.payloads == b.report.payloads
    assert a.report.packets_decoded == b.report.packets_decoded
    assert a.report.packets_failed_fec == b.report.packets_failed_fec
    assert a.report.packets_seen == b.report.packets_seen
    assert a.report.frames_processed == b.report.frames_processed
    assert a.report.symbols_detected == b.report.symbols_detected
    assert a.report.frame_failures == b.report.frame_failures
    assert len(a.report.bands) == len(b.report.bands) > 0
    for band_a, band_b in zip(a.report.bands, b.report.bands):
        assert band_a.frame_index == band_b.frame_index
        assert band_a.mid_time == band_b.mid_time
        assert band_a.decision == band_b.decision
        assert np.array_equal(band_a.band.lab, band_b.band.lab)
    assert a.fault_schedule == b.fault_schedule


class TestLinkResultEquivalence:
    def test_clean_run(self, monkeypatch):
        batched = _run_with_path(monkeypatch, "batched")
        reference = _run_with_path(monkeypatch, "reference")
        assert batched.report.payloads  # a run that decodes nothing pins nothing
        _assert_results_identical(batched, reference)

    @pytest.mark.parametrize(
        "fault,intensity",
        [
            ("frame-drop", 0.3),
            # Above ~0.1 the torn rows defeat calibration entirely and both
            # engines trivially agree on an empty report — keep it decodable.
            ("scanline-corruption", 0.1),
            ("timing-jitter", 0.3),
        ],
    )
    def test_with_fault_injection(self, monkeypatch, fault, intensity):
        faults = [make_injector(fault, intensity)]
        batched = _run_with_path(monkeypatch, "batched", faults=faults)
        reference = _run_with_path(monkeypatch, "reference", faults=faults)
        assert batched.fault_schedule.events
        _assert_results_identical(batched, reference)
