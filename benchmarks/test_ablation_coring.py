"""Ablation — band-color estimation: plateau mean vs min-variance coring.

The default receiver estimates each band's color as the plain mean of the
band's trimmed pure plateau (a paper-faithful estimator).  The library also
implements an exposure-aware refinement: search the plateau for the
minimum-chroma-dispersion window and take its median, which suppresses
scanline-correlated pipeline noise below the plain-mean floor.

This bench runs the same recording through both estimators at the stressed
corner (32-CSK, 4 kHz, Nexus 5) and reports the SER each achieves, so the
trade is quantified rather than assumed: under weak scanline noise the
dispersion search wins clearly; under the strong row-correlated noise of the
Nexus preset, its small selected windows average less noise away and the
plain plateau mean is competitive.  Deployments should measure on their own
hardware — this bench is the template for that measurement.
"""

import pytest

from repro.camera.devices import DeviceProfile, nexus_5
from repro.core.config import SystemConfig
from repro.core.metrics import align_ground_truth, data_symbol_error_rate
from repro.core.system import ColorBarsTransmitter, make_receiver
from repro.link.channel import ChannelConditions
from repro.link.workloads import text_payload
from repro.phy.waveform import EXTEND_CYCLE


def run_with_coring(coring: str, seed: int = 17):
    device = nexus_5()
    config = SystemConfig(
        csk_order=32, symbol_rate=4000,
        design_loss_ratio=device.timing.gap_fraction,
    )
    transmitter = ColorBarsTransmitter(config)
    plan = transmitter.plan(text_payload(3 * config.rs_params().k))
    waveform = transmitter.waveform(plan, extend=EXTEND_CYCLE)
    profile = DeviceProfile(
        name=device.name, timing=device.timing, response=device.response,
        noise=device.noise, optics=ChannelConditions.paper_setup().make_optics(),
    )
    camera = profile.make_camera(simulated_columns=32, seed=seed)
    frames = camera.record(waveform, duration=2.0)
    receiver = make_receiver(config, device.timing, coring=coring)
    report = receiver.process_frames(frames)
    matches = align_ground_truth(report.bands, plan.symbols, waveform)
    return {
        "ser": data_symbol_error_rate(matches),
        "decoded": report.packets_decoded,
        "seen": report.packets_seen,
    }


def test_ablation_coring():
    def run():
        return {
            "central": run_with_coring("central"),
            "min_variance": run_with_coring("min_variance"),
        }

    outcomes = run()

    print("\nAblation — band color estimator (32-CSK @ 4 kHz, Nexus 5)")
    print("  estimator     | SER     | packets decoded/seen")
    for name, result in outcomes.items():
        print(
            f"  {name:13s} | {result['ser']:.4f} |"
            f" {result['decoded']}/{result['seen']}"
        )

    central = outcomes["central"]
    refined = outcomes["min_variance"]
    # Both estimators must keep the framing machinery alive: similar packet
    # visibility, sane SER range.
    assert central["seen"] > 10 and refined["seen"] > 10
    assert abs(central["seen"] - refined["seen"]) <= 0.3 * central["seen"]
    for result in outcomes.values():
        assert 0.0 <= result["ser"] <= 0.5
    # At this stressed corner neither estimator may be an order of
    # magnitude apart — the choice is a trade, not a correctness issue.
    low, high = sorted([central["ser"], refined["ser"]])
    assert high <= max(4 * low, 0.05)
