"""Extension — communication range (the paper's §10 future work).

The paper's prototype needed the phone within ~3 cm of its low-lumen LED
and names longer range as future work.  The simulator makes the range axis
explorable: irradiance falls with the inverse square of distance while
ambient light stays constant, so the auto-exposure raises gain (noise up)
and the signal-to-ambient contrast falls until the link degrades.

The bench sweeps distance at a fixed mid configuration and reports
SER/goodput per range; shape checks: the paper's 3 cm operating point is
healthy, degradation is monotone-ish with distance, and the link eventually
collapses — the quantitative version of "low lumens requires close
proximity".
"""

import pytest

from repro.camera.devices import nexus_5
from repro.core.config import SystemConfig
from repro.link.channel import ChannelConditions
from repro.link.simulator import LinkSimulator

DISTANCES_M = (0.03, 0.06, 0.12, 0.24)


def run_at_distance(distance_m: float, seed: int = 19):
    device = nexus_5()
    config = SystemConfig(
        csk_order=8, symbol_rate=2000,
        design_loss_ratio=device.timing.gap_fraction,
    )
    channel = ChannelConditions(distance_m=distance_m, ambient_luminance=0.8)
    simulator = LinkSimulator(
        config, device, channel=channel, simulated_columns=32, seed=seed
    )
    result = simulator.run(duration_s=2.0)
    return result.metrics


def test_extension_range_sweep():
    metrics = {d: run_at_distance(d) for d in DISTANCES_M}

    print("\nExtension — range sweep (8-CSK @ 2 kHz, Nexus 5, ambient on)")
    print("  distance (cm) | SER     | goodput (bps) | packets")
    for distance, m in metrics.items():
        print(
            f"  {distance * 100:13.0f} | {m.data_symbol_error_rate:.4f} |"
            f" {m.goodput_bps:13.0f} | {m.packets_decoded}/{m.packets_seen}"
        )

    near = metrics[0.03]
    far = metrics[DISTANCES_M[-1]]
    # The paper's operating point is healthy.
    assert near.data_symbol_error_rate < 0.02
    assert near.goodput_bps > 100
    # Range costs performance; the farthest point is clearly degraded.
    assert (
        far.goodput_bps < 0.7 * near.goodput_bps
        or far.data_symbol_error_rate > near.data_symbol_error_rate + 0.02
    )
