"""Fig 3(c) — color band width shrinks as the symbol rate rises.

The paper shows frames captured at 1000 and 3000 sym/s: the faster stream
produces proportionally narrower bands, and below ~10 pixels a band can no
longer be demodulated (the §4 feasibility rule).  The bench measures the
detected band widths at both rates on the Nexus 5 geometry and checks the
1/rate scaling plus the 10-row feasibility boundary.
"""

import numpy as np
import pytest

from repro.camera.devices import nexus_5
from repro.core.config import SystemConfig
from repro.core.system import ColorBarsTransmitter, make_receiver
from repro.link.channel import ChannelConditions
from repro.camera.devices import DeviceProfile
from repro.link.workloads import text_payload
from repro.phy.waveform import EXTEND_CYCLE


def measure_band_widths(rate: float, seed: int = 0):
    device = nexus_5()
    config = SystemConfig(
        csk_order=8,
        symbol_rate=rate,
        design_loss_ratio=device.timing.gap_fraction,
    )
    transmitter = ColorBarsTransmitter(config)
    plan = transmitter.plan(text_payload(2 * config.rs_params().k))
    waveform = transmitter.waveform(plan, extend=EXTEND_CYCLE)
    profile = DeviceProfile(
        name=device.name,
        timing=device.timing,
        response=device.response,
        noise=device.noise,
        optics=ChannelConditions.paper_setup().make_optics(),
    )
    camera = profile.make_camera(simulated_columns=32, seed=seed)
    frames = camera.record(waveform, duration=0.4)
    # Band width is a geometry measurement: run the segmenter directly
    # (no calibration needed to measure where bands fall).
    from repro.rx.preprocess import frame_to_scanline_lab
    from repro.rx.segmentation import BandSegmenter

    segmenter = BandSegmenter(
        rows_per_symbol=device.timing.rows_per_symbol(rate)
    )
    widths = []
    for frame in frames:
        scanlines = frame_to_scanline_lab(frame)
        smear = frame.exposure.exposure_s / frame.row_period
        for band in segmenter.segment(scanlines, smear_rows=smear):
            widths.append(band.width)
    return np.array(widths), device.timing.rows_per_symbol(rate)


def test_fig3c_band_width():
    def run():
        return {rate: measure_band_widths(rate) for rate in (1000.0, 3000.0)}

    results = run()

    print("\nFig 3(c) — band width vs symbol rate (Nexus 5 geometry)")
    print("  rate (Hz) | expected rows/symbol | median detected width")
    medians = {}
    for rate, (widths, expected) in results.items():
        median = float(np.median(widths)) if len(widths) else float("nan")
        medians[rate] = median
        print(f"  {rate:9.0f} | {expected:20.1f} | {median:10.1f}")

    widths_1k, expected_1k = results[1000.0]
    widths_3k, expected_3k = results[3000.0]
    assert len(widths_1k) > 20 and len(widths_3k) > 20

    # Bands shrink with rate, tracking the 1/rate geometry.
    assert medians[3000.0] < medians[1000.0]
    assert medians[1000.0] == pytest.approx(expected_1k, rel=0.3)
    assert medians[3000.0] == pytest.approx(expected_3k, rel=0.3)
    assert medians[1000.0] / medians[3000.0] == pytest.approx(3.0, rel=0.35)

    # Feasibility rule: the 10-row minimum bounds the usable symbol rate.
    device = nexus_5()
    limit_rate = 1.0 / (10 * device.timing.row_period)
    assert device.timing.rows_per_symbol(limit_rate) == pytest.approx(10.0)
    assert device.timing.rows_per_symbol(4000.0) > 10.0
