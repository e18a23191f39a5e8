"""SER is scored against what was on air, not against a frame's claimed clock.

``timing-jitter`` moves only each frame's claimed ``start_time``; the pixels
still show what the transmitter sent at the true time.  The link simulator
knows both clocks, so a jittered run must score its bands against the true
one — and the receiver here decodes every band of this setup correctly.
"""

import pytest

from repro.camera.devices import nexus_5
from repro.core.config import SystemConfig
from repro.faults.injectors import TimingJitterInjector
from repro.link.simulator import LinkSimulator


def _run(faults):
    device = nexus_5()
    config = SystemConfig(
        csk_order=8,
        symbol_rate=2000.0,
        design_loss_ratio=device.timing.gap_fraction,
        frame_rate=device.timing.frame_rate,
    )
    simulator = LinkSimulator(
        config, device, simulated_columns=48, seed=1, faults=faults
    )
    return simulator.run(duration_s=2.0)


def test_timing_jitter_scored_against_true_on_air_time():
    fault_free = _run(())
    jittered = _run((TimingJitterInjector(0.25),))
    assert len(jittered.fault_schedule) > 0
    assert fault_free.metrics.data_symbol_error_rate == 0.0
    assert (
        jittered.metrics.data_symbol_error_rate
        == fault_free.metrics.data_symbol_error_rate
    )
    assert jittered.metrics.symbol_error_rate == pytest.approx(
        fault_free.metrics.symbol_error_rate, abs=0.01
    )
