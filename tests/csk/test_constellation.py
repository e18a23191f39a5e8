"""Unit tests for the CSK constellation designs."""

import pytest

from repro.csk.constellation import (
    SUPPORTED_ORDERS,
    Constellation,
    design_constellation,
)
from repro.color.chromaticity import ChromaticityPoint
from repro.exceptions import ConstellationError


class TestDesigns:
    def test_supported_orders(self, gamut):
        for order in SUPPORTED_ORDERS:
            constellation = design_constellation(order, gamut)
            assert len(constellation) == order

    def test_unsupported_order(self, gamut):
        with pytest.raises(ConstellationError):
            design_constellation(64, gamut)

    def test_bits_per_symbol(self, gamut):
        expected = {4: 2, 8: 3, 16: 4, 32: 5}
        for order, bits in expected.items():
            assert design_constellation(order, gamut).bits_per_symbol == bits

    def test_white_balance_invariant(self, gamut, any_order):
        """Equal-proportion mixture of all symbols must be the white point (§4)."""
        constellation = design_constellation(any_order, gamut)
        mean = constellation.mean_chromaticity()
        centroid = gamut.centroid()
        assert mean.distance_to(centroid) < 1e-9

    def test_centroid_symbol_free(self, gamut, any_order):
        """No data symbol may sit on the white point (illumination ambiguity)."""
        constellation = design_constellation(any_order, gamut)
        centroid = gamut.centroid()
        for point in constellation.points:
            assert point.distance_to(centroid) > 0.02

    def test_all_points_in_gamut(self, gamut, any_order):
        constellation = design_constellation(any_order, gamut)
        for point in constellation.points:
            assert gamut.contains(point, tolerance=1e-6)

    def test_min_distance_decreases_with_order(self, gamut):
        distances = [
            design_constellation(order, gamut).min_distance()
            for order in SUPPORTED_ORDERS
        ]
        assert distances == sorted(distances, reverse=True)

    def test_no_duplicate_points(self, gamut, any_order):
        constellation = design_constellation(any_order, gamut)
        points = {(round(p.x, 9), round(p.y, 9)) for p in constellation.points}
        assert len(points) == any_order


class TestConstellationClass:
    def test_point_lookup(self, constellation8):
        assert isinstance(constellation8.point(0), ChromaticityPoint)

    def test_point_out_of_range(self, constellation8):
        with pytest.raises(ConstellationError):
            constellation8.point(8)

    def test_as_array_shape(self, constellation8):
        assert constellation8.as_array().shape == (8, 2)

    def test_wrong_point_count(self, gamut):
        points = [gamut.red, gamut.green, gamut.blue]
        with pytest.raises(ConstellationError):
            Constellation(4, points, gamut)

    def test_non_power_of_two(self, gamut):
        points = gamut.grid_points(2)
        with pytest.raises(ConstellationError):
            Constellation(6, points, gamut)

    def test_duplicate_rejected(self, gamut):
        points = [gamut.red, gamut.red, gamut.green, gamut.blue]
        with pytest.raises(ConstellationError):
            Constellation(4, points, gamut)

    def test_outside_gamut_rejected(self, gamut):
        points = [
            gamut.red,
            gamut.green,
            gamut.blue,
            ChromaticityPoint(0.9, 0.9),
        ]
        with pytest.raises(ConstellationError):
            Constellation(4, points, gamut)
