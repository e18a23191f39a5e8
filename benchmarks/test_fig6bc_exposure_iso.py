"""Figs 6(b)/6(c) — perceived color varies with exposure time and ISO.

The paper transmits a pure-blue symbol and sweeps the camera's exposure time
and ISO manually: the received chroma moves substantially in both sweeps —
the "same camera, different symbols" half of the receiver-diversity problem
that periodic recalibration compensates (§6.2).

The bench captures a constant pure-blue waveform on the Nexus 5 geometry at
manual settings and reports the mean received (a, b) per setting; shape
checks: the chroma trajectory spans well beyond a JND in each sweep, and
longer exposures desaturate toward white (channel saturation).
"""

import numpy as np
import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.devices import DeviceProfile, nexus_5
from repro.core.config import SystemConfig
from repro.core.system import ColorBarsTransmitter
from repro.link.channel import ChannelConditions
from repro.phy.symbols import data_symbol
from repro.phy.waveform import EXTEND_CYCLE
from repro.rx.preprocess import frame_to_scanline_lab


def capture_mean_chroma(settings: ExposureSettings, seed=0):
    device = nexus_5()
    config = SystemConfig(
        csk_order=4, symbol_rate=1000,
        design_loss_ratio=device.timing.gap_fraction,
    )
    transmitter = ColorBarsTransmitter(config)
    # Constant pure-blue-ish stream: the constellation point nearest blue.
    blue_index = int(
        np.argmin(
            [
                p.distance_to(transmitter.config.emitter.blue.chromaticity)
                for p in transmitter.config.constellation.points
            ]
        )
    )
    waveform = transmitter.modulator.waveform(
        [data_symbol(blue_index)] * 200, extend=EXTEND_CYCLE
    )
    profile = DeviceProfile(
        name=device.name,
        timing=device.timing,
        response=device.response,
        noise=device.noise,
        optics=ChannelConditions.paper_setup().make_optics(),
    )
    camera = profile.make_camera(simulated_columns=32, seed=seed)
    camera.enable_awb = False  # manual sweep: hold the ISP still
    frame = camera.capture_frame(waveform, 0.0, settings=settings)
    lab = frame_to_scanline_lab(frame)
    lit = lab[lab[:, 0] > 12]
    return lit[:, 1:].mean(axis=0)


EXPOSURES = (1 / 8000, 1 / 4000, 1 / 2000, 1 / 1000, 1 / 500)
ISOS = (100, 200, 400, 800, 1600)


def test_fig6b_exposure_sweep():
    chromas = {
        e: capture_mean_chroma(ExposureSettings(e, 100)) for e in EXPOSURES
    }
    print("\nFig 6(b) — received chroma of a blue symbol vs exposure time")
    print("  exposure (s) |    a    |    b")
    for exposure, ab in chromas.items():
        print(f"  {exposure:12.6f} | {ab[0]:7.1f} | {ab[1]:7.1f}")

    points = np.array(list(chromas.values()))
    travel = np.sqrt(((points - points[0]) ** 2).sum(axis=1)).max()
    print(f"  chroma travel across sweep: {travel:.1f} dE")
    assert travel > 2.3  # beyond a JND: exposure changes the received color

    # Longer exposures saturate channels and desaturate toward white.
    chroma_magnitude = np.sqrt((points**2).sum(axis=1))
    assert chroma_magnitude[-1] < chroma_magnitude[0]


def test_fig6c_iso_sweep():
    chromas = {
        iso: capture_mean_chroma(ExposureSettings(1 / 4000, iso))
        for iso in ISOS
    }
    print("\nFig 6(c) — received chroma of a blue symbol vs ISO")
    print("  ISO  |    a    |    b")
    for iso, ab in chromas.items():
        print(f"  {iso:>4} | {ab[0]:7.1f} | {ab[1]:7.1f}")

    points = np.array(list(chromas.values()))
    travel = np.sqrt(((points - points[0]) ** 2).sum(axis=1)).max()
    print(f"  chroma travel across sweep: {travel:.1f} dE")
    assert travel > 2.3
