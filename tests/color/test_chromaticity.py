"""Unit and property tests for gamut-triangle geometry."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.color.chromaticity import (
    ChromaticityPoint,
    GamutTriangle,
    barycentric_coordinates,
)
from repro.exceptions import ConfigurationError, GamutError


@pytest.fixture
def triangle():
    return GamutTriangle(
        ChromaticityPoint(0.700, 0.300),
        ChromaticityPoint(0.170, 0.700),
        ChromaticityPoint(0.135, 0.040),
    )


class TestBarycentric:
    def test_vertex_weights(self, triangle):
        weights = barycentric_coordinates(
            np.array([0.700, 0.300]), triangle.vertices
        )
        assert np.allclose(weights, [1.0, 0.0, 0.0], atol=1e-12)

    def test_centroid_weights(self, triangle):
        centroid = triangle.vertices.mean(axis=0)
        weights = barycentric_coordinates(centroid, triangle.vertices)
        assert np.allclose(weights, [1 / 3, 1 / 3, 1 / 3])

    def test_weights_sum_to_one(self, triangle):
        rng = np.random.default_rng(0)
        for _ in range(20):
            point = rng.random(2)
            weights = barycentric_coordinates(point, triangle.vertices)
            assert weights.sum() == pytest.approx(1.0)

    def test_degenerate_triangle_raises(self):
        collinear = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        with pytest.raises(GamutError):
            barycentric_coordinates(np.array([0.2, 0.3]), collinear)

    def test_outside_point_negative_weight(self, triangle):
        weights = barycentric_coordinates(np.array([0.9, 0.9]), triangle.vertices)
        assert np.any(weights < 0)


class TestContainment:
    def test_centroid_inside(self, triangle):
        assert triangle.contains(triangle.centroid())

    def test_vertices_inside(self, triangle):
        for p in (triangle.red, triangle.green, triangle.blue):
            assert triangle.contains(p)

    def test_far_point_outside(self, triangle):
        assert not triangle.contains(ChromaticityPoint(0.9, 0.9))


class TestMixing:
    def test_weights_reproduce_point(self, triangle):
        target = ChromaticityPoint(0.35, 0.40)
        weights = triangle.mixing_weights(target)
        back = triangle.interpolate(weights)
        assert back.distance_to(target) < 1e-12

    def test_outside_raises(self, triangle):
        with pytest.raises(GamutError):
            triangle.mixing_weights(ChromaticityPoint(0.9, 0.9))

    def test_interpolate_rejects_negative(self, triangle):
        with pytest.raises(ConfigurationError):
            triangle.interpolate([-0.1, 0.6, 0.5])

    def test_interpolate_rejects_zero_sum(self, triangle):
        with pytest.raises(ConfigurationError):
            triangle.interpolate([0.0, 0.0, 0.0])

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_interpolation_roundtrip_property(self, wr, wg, wb):
        triangle = GamutTriangle(
            ChromaticityPoint(0.700, 0.300),
            ChromaticityPoint(0.170, 0.700),
            ChromaticityPoint(0.135, 0.040),
        )
        total = wr + wg + wb
        weights = np.array([wr, wg, wb]) / total
        point = triangle.interpolate(weights)
        recovered = triangle.mixing_weights(point)
        assert np.allclose(recovered, weights, atol=1e-9)


class TestLattice:
    def test_grid_point_count(self, triangle):
        for n in (1, 2, 4, 6):
            assert len(triangle.grid_points(n)) == (n + 1) * (n + 2) // 2

    def test_grid_points_inside(self, triangle):
        for p in triangle.grid_points(5):
            assert triangle.contains(p, tolerance=1e-9)

    def test_grid_mean_is_centroid(self, triangle):
        points = triangle.grid_points(4)
        mean = np.mean([p.as_array() for p in points], axis=0)
        assert np.allclose(mean, triangle.centroid().as_array())

    def test_min_pairwise_distance(self, triangle):
        points = triangle.grid_points(2)
        d = triangle.min_pairwise_distance(points)
        assert d > 0
