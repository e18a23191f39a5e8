"""Unit tests for Bloch's-law temporal summation."""

import numpy as np
import pytest

from repro.csk.modulator import CskModulator
from repro.exceptions import ConfigurationError
from repro.flicker.bloch import (
    BLOCH_CRITICAL_DURATION_S,
    perceived_chromaticity_series,
    worst_case_excursion,
)
from repro.phy.symbols import data_symbol, white_symbol
from repro.phy.waveform import EXTEND_CYCLE


@pytest.fixture
def rgb_sequence_waveform(led):
    """Pure R, G, B emitted in sequence at equal power — the Fig 3(a) demo."""
    from repro.csk.constellation import design_constellation

    constellation = design_constellation(4, led.gamut)
    modulator = CskModulator(constellation, led, symbol_rate=3000.0)
    xyz = np.stack(
        [
            led.emit_chromaticity(led.red.chromaticity),
            led.emit_chromaticity(led.green.chromaticity),
            led.emit_chromaticity(led.blue.chromaticity),
        ]
    )
    from repro.phy.waveform import OpticalWaveform

    return OpticalWaveform(
        np.tile(xyz, (60, 1)), symbol_rate=3000.0, extend=EXTEND_CYCLE
    )


class TestPerceivedChromaticity:
    """The first perception window of a series, ``[0, critical duration]``."""

    def test_rgb_sequence_perceived_white(self, rgb_sequence_waveform, led):
        """Fig 3(a): equal-proportion fast R/G/B looks white to the eye."""
        xy = perceived_chromaticity_series(rgb_sequence_waveform)[0]
        white = led.white_point.as_array()
        # PWM duty quantization perturbs each primary's power slightly.
        assert np.allclose(xy, white, atol=2e-3)

    def test_constant_color_perceived_as_itself(self, modulator8, constellation8):
        wf = modulator8.waveform([data_symbol(2)] * 200, extend=EXTEND_CYCLE)
        xy = perceived_chromaticity_series(wf)[0]
        assert np.allclose(
            xy, constellation8.point(2).as_array(), atol=5e-3
        )

    def test_invalid_duration(self, modulator8):
        wf = modulator8.waveform([white_symbol()] * 100)
        with pytest.raises(ConfigurationError):
            perceived_chromaticity_series(wf, critical_duration=0.0)


class TestSeries:
    def test_series_shape(self, modulator8):
        wf = modulator8.waveform([white_symbol()] * 200)
        series = perceived_chromaticity_series(wf)
        assert series.ndim == 2 and series.shape[1] == 2
        assert len(series) > 100

    def test_waveform_too_short(self, modulator8):
        wf = modulator8.waveform([white_symbol()] * 3)  # 3 ms < 50 ms
        with pytest.raises(ConfigurationError):
            perceived_chromaticity_series(wf)

    def test_white_stream_no_excursion(self, modulator8, led):
        wf = modulator8.waveform([white_symbol()] * 300)
        excursion = worst_case_excursion(wf, led.white_point.as_array())
        assert excursion < 1e-2

    def test_biased_stream_has_excursion(self, modulator8, led):
        # All-red data drifts the perceived color away from white.
        wf = modulator8.waveform([data_symbol(5)] * 300)
        excursion = worst_case_excursion(wf, led.white_point.as_array())
        assert excursion > 0.05

    def test_critical_duration_constant(self):
        assert 0.02 <= BLOCH_CRITICAL_DURATION_S <= 0.1
