"""Unit tests for the white-symbol requirement model (Fig 3b)."""

import pytest

from repro.csk.constellation import design_constellation
from repro.flicker.threshold import (
    FlickerModel,
    constellation_chroma_spread,
    required_white_fraction,
)


class TestChromaSpread:
    def test_spread_positive(self, gamut, any_order):
        constellation = design_constellation(any_order, gamut)
        assert constellation_chroma_spread(constellation) > 0

    def test_spread_decreases_with_lattice_order(self, gamut):
        # Among the lattice-based designs, higher orders fill the triangle
        # interior and pull the RMS spread down.  (4-CSK is a compact cross
        # around white, so it sits below the vertex-anchored designs.)
        spreads = [
            constellation_chroma_spread(design_constellation(order, gamut))
            for order in (8, 16, 32)
        ]
        assert spreads == sorted(spreads, reverse=True)


class TestRequiredWhiteFraction:
    def test_monotone_decreasing_in_rate(self):
        fractions = [
            required_white_fraction(rate, chroma_spread=0.2)
            for rate in (500, 1000, 2000, 3000, 4000, 5000)
        ]
        assert fractions == sorted(fractions, reverse=True)

    def test_paper_operating_point(self):
        # §5's worked example uses 20% illumination symbols; the model lands
        # near that at the 4 kHz upper operating rate.
        fraction = required_white_fraction(4000, chroma_spread=0.2)
        assert 0.1 <= fraction <= 0.35

    def test_low_rate_needs_most_white(self):
        fraction = required_white_fraction(500, chroma_spread=0.2)
        assert fraction >= 0.6

    def test_sub_perception_rate_saturates(self):
        # Below ~1 symbol per critical window, whites cannot help.
        assert required_white_fraction(10, chroma_spread=0.2) == 1.0

    def test_zero_needed_for_tiny_spread(self):
        assert required_white_fraction(4000, chroma_spread=1e-4) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(Exception):
            required_white_fraction(0, 0.2)
        with pytest.raises(Exception):
            required_white_fraction(1000, -0.1)


class TestFlickerModel:
    def test_for_constellation(self, constellation8):
        model = FlickerModel.for_constellation(constellation8)
        assert model.chroma_spread == pytest.approx(
            constellation_chroma_spread(constellation8)
        )

    def test_illumination_ratio_complements_white(self, constellation8):
        model = FlickerModel.for_constellation(constellation8)
        white = model.required_white_fraction(2000)
        eta = model.illumination_ratio(2000)
        assert eta == pytest.approx(max(1 - white, 0.05))

    def test_margin_reduces_eta(self, constellation8):
        model = FlickerModel.for_constellation(constellation8)
        assert model.illumination_ratio(3000, margin=0.1) < model.illumination_ratio(
            3000
        )

    def test_eta_clamped(self, constellation8):
        model = FlickerModel.for_constellation(constellation8)
        assert model.illumination_ratio(1) >= 0.05
