"""Ablation — the white-symbol ratio trade (§4).

Dedicated illumination symbols buy flicker-free operation but carry no data.
The bench sweeps the white fraction around the flicker model's choice at a
fixed symbol rate and reports both sides of the trade: the worst-case
perceived chromaticity excursion (flicker margin) and the airtime share left
for data.  Shape checks: excursion shrinks as whites grow; the model's own
operating point keeps the excursion near the perception threshold while
preserving most of the airtime.
"""

import numpy as np
import pytest

from repro.csk.constellation import design_constellation
from repro.csk.modulator import CskModulator
from repro.flicker.bloch import worst_case_excursion
from repro.flicker.threshold import FlickerModel, XY_FLICKER_THRESHOLD
from repro.phy.led import typical_tri_led
from repro.phy.symbols import data_symbol, white_symbol
from repro.phy.waveform import EXTEND_CYCLE

RATE = 2000.0
FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8)


def measure_excursion(white_fraction, trials=4):
    """Mean worst-case excursion over several random streams.

    A single stream's worst window is a noisy order statistic; averaging a
    few independent realizations gives a stable curve.
    """
    led = typical_tri_led()
    constellation = design_constellation(16, led.gamut)
    modulator = CskModulator(constellation, led, symbol_rate=RATE)
    excursions = []
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        symbols = [
            white_symbol()
            if rng.random() < white_fraction
            else data_symbol(int(rng.integers(0, 16)))
            for _ in range(int(RATE))
        ]
        waveform = modulator.waveform(symbols, extend=EXTEND_CYCLE)
        excursions.append(
            worst_case_excursion(waveform, led.white_point.as_array())
        )
    return float(np.mean(excursions))


def test_ablation_white_ratio():
    def run():
        led = typical_tri_led()
        constellation = design_constellation(16, led.gamut)
        model = FlickerModel.for_constellation(constellation)
        curve = {f: measure_excursion(f) for f in FRACTIONS}
        model_fraction = model.required_white_fraction(RATE)
        return curve, model_fraction, measure_excursion(model_fraction)

    curve, model_fraction, model_excursion = run()

    print("\nAblation — white-symbol fraction vs flicker margin (16-CSK @ 2 kHz)")
    print("  white fraction | worst xy excursion | data airtime share")
    for fraction, excursion in curve.items():
        print(f"  {fraction:14.2f} | {excursion:18.4f} | {1 - fraction:14.2f}")
    print(
        f"  model operating point: {model_fraction:.2f} white -> "
        f"excursion {model_excursion:.4f} (threshold {XY_FLICKER_THRESHOLD})"
    )

    values = [curve[f] for f in FRACTIONS]
    # More whites, less excursion (trend over the sweep; individual steps
    # are order statistics and may wobble).
    assert values[-1] < values[0]
    assert all(b <= a * 1.35 for a, b in zip(values, values[1:]))
    # Without whites, random data flickers visibly beyond threshold.
    assert curve[0.0] > XY_FLICKER_THRESHOLD
    # The model's operating point controls flicker without giving up most
    # of the airtime.
    assert model_excursion < 2.5 * XY_FLICKER_THRESHOLD
    assert model_fraction < 0.7
