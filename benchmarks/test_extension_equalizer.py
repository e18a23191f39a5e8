"""Extension — ISI equalization beyond the plateau limit (§10 future work).

The paper's receivers (and this library's default) estimate each band's
color from its *pure plateau* — the scanlines whose exposure window sits
inside one symbol period.  That plateau shrinks as ``exposure / band``
grows and vanishes entirely when the exposure approaches the symbol period,
hard-limiting the symbol-rate x exposure envelope (dim scenes force long
exposures; see the range bench).

``repro.rx.equalizer`` removes that limit for exposures up to one symbol
period: the mixing of adjacent symbols into each scanline is *exactly
known* (the exposure window's overlap with each symbol period), so a
tridiagonal least-squares deconvolution in linear RGB recovers per-symbol
colors from pure and mixed scanlines alike.

The bench locks the exposure at 92% of the symbol period (plateau ~2.5
scanlines: plateau estimation yields nothing) and compares the standard and
equalized receivers on the same recording.
"""

import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.devices import DeviceProfile, nexus_5
from repro.core.config import SystemConfig
from repro.core.metrics import align_ground_truth, data_symbol_error_rate
from repro.core.system import ColorBarsTransmitter, make_receiver
from repro.link.channel import ChannelConditions
from repro.link.workloads import text_payload
from repro.phy.waveform import EXTEND_CYCLE

RATE = 4000.0
EXPOSURE_S = 0.92 / RATE  # plateau ~2.5 rows on the Nexus 5: standard dead


def run_pair(order: int, seed: int = 5):
    device = nexus_5()
    config = SystemConfig(
        csk_order=order, symbol_rate=RATE,
        design_loss_ratio=device.timing.gap_fraction,
    )
    transmitter = ColorBarsTransmitter(config)
    plan = transmitter.plan(text_payload(3 * config.rs_params().k, seed=seed))
    waveform = transmitter.waveform(plan, extend=EXTEND_CYCLE)
    profile = DeviceProfile(
        name=device.name, timing=device.timing, response=device.response,
        noise=device.noise, optics=ChannelConditions.paper_setup().make_optics(),
    )
    camera = profile.make_camera(simulated_columns=32, seed=seed)
    camera.auto_exposure.lock(ExposureSettings(EXPOSURE_S, 100))
    frames = camera.record(waveform, duration=2.0)

    outcomes = {}
    for label, kwargs in (
        ("standard", dict(equalize=False)),
        # Deconvolution leaks a little energy into OFF symbols (L* is
        # compressive), so the dark threshold loosens in equalized mode.
        ("equalized", dict(equalize=True, off_lightness=55.0)),
    ):
        receiver = make_receiver(config, device.timing, **kwargs)
        report = receiver.process_frames(frames)
        matches = align_ground_truth(report.bands, plan.symbols, waveform)
        outcomes[label] = {
            "symbols": report.symbols_detected,
            "ser": data_symbol_error_rate(matches),
            "decoded": report.packets_decoded,
            "seen": report.packets_seen,
        }
    return outcomes


def test_extension_isi_equalizer():
    outcomes = run_pair(order=4)

    print(
        "\nExtension — ISI equalization at exposure = 0.92 x symbol period "
        "(4-CSK @ 4 kHz, Nexus 5)"
    )
    print("  receiver  | symbols | SER     | packets decoded/seen")
    for label, result in outcomes.items():
        print(
            f"  {label:9s} | {result['symbols']:7d} | {result['ser']:.4f} |"
            f" {result['decoded']}/{result['seen']}"
        )

    standard = outcomes["standard"]
    equalized = outcomes["equalized"]

    # The plateau receiver is physically blind here: no pure scanlines.
    assert standard["symbols"] == 0
    assert standard["decoded"] == 0

    # Equalization revives the link end to end.
    assert equalized["symbols"] > 1000
    assert equalized["ser"] < 0.08
    assert equalized["decoded"] >= 10
    assert equalized["decoded"] >= 0.7 * equalized["seen"]
