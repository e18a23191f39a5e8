"""Fig 8(b) — per-pixel color variance within a band: RGB vs CIELab.

Brightness in a received frame is not uniform (Fig 8a: the center is
brighter than the periphery), so the same symbol's pixels scatter widely in
RGB but tightly in CIELab's ab-plane once the lightness channel is dropped.
The bench reproduces the measurement procedure of §8 "Color Space
Conversion": take a color band in a captured frame, compute each pixel's
distance to the band's mean color in both spaces, and compare the variances.
"""

import numpy as np
import pytest

from repro.camera.devices import DeviceProfile, nexus_5
from repro.core.config import SystemConfig
from repro.core.system import ColorBarsTransmitter
from repro.link.channel import ChannelConditions
from repro.phy.symbols import data_symbol
from repro.phy.waveform import EXTEND_CYCLE
from repro.rx.preprocess import column_color_variance


def capture_band_frame(seed=0):
    device = nexus_5()
    config = SystemConfig(
        csk_order=8, symbol_rate=1000,
        design_loss_ratio=device.timing.gap_fraction,
    )
    transmitter = ColorBarsTransmitter(config)
    waveform = transmitter.modulator.waveform(
        [data_symbol(4)] * 100, extend=EXTEND_CYCLE
    )
    # The figure isolates the *brightness non-uniformity* effect, so the
    # capture keeps pipeline (scanline) noise modest — that noise hits both
    # color spaces equally and would only dilute the contrast under study.
    from repro.camera.noise import SensorNoise

    quiet_noise = SensorNoise(
        full_well_electrons=device.noise.full_well_electrons,
        read_noise_electrons=device.noise.read_noise_electrons,
        prnu=device.noise.prnu,
        row_noise=0.02,
    )
    profile = DeviceProfile(
        name=device.name,
        timing=device.timing,
        response=device.response,
        noise=quiet_noise,
        # Strong vignetting: the Fig 8(a) brightness non-uniformity.
        optics=ChannelConditions(vignetting_strength=0.95).make_optics(),
    )
    # Full sensor width: the brightness falloff lives toward the frame
    # periphery, which a narrow centered strip would miss.
    camera = profile.make_camera(
        simulated_columns=profile.timing.cols, seed=seed
    )
    return camera.capture_frame(waveform, 0.0)


def test_fig8b_colorspace_variance():
    def run():
        frame = capture_band_frame()
        # A wide row range spanning the vignetting gradient.
        band = slice(frame.rows // 4, 3 * frame.rows // 4)
        return {
            "rgb": column_color_variance(frame.pixels, band, space="rgb"),
            "lab": column_color_variance(frame.pixels, band, space="lab"),
        }

    variances = run()

    print("\nFig 8(b) — variance of pixel distance from the band mean color")
    print(f"  RGB color space    : {variances['rgb']:10.2f}")
    print(f"  CIELab (a, b) plane: {variances['lab']:10.2f}")
    print(
        f"  ratio RGB / Lab    : {variances['rgb'] / max(variances['lab'], 1e-9):10.1f}x"
    )

    # The paper's qualitative result: CIELab absorbs the brightness
    # non-uniformity, leaving much smaller variance than RGB.
    assert variances["lab"] < variances["rgb"] / 3
