"""Unit and property tests for sRGB transforms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.color.srgb import (
    SRGB_TO_XYZ_MATRIX,
    linear_rgb_to_xyz,
    linear_to_srgb,
    srgb_to_linear,
    xyz_to_linear_rgb,
    xyz_to_srgb,
)


class TestGamma:
    def test_black_and_white_fixed_points(self):
        assert srgb_to_linear(0.0) == pytest.approx(0.0)
        assert srgb_to_linear(1.0) == pytest.approx(1.0)
        assert linear_to_srgb(0.0) == pytest.approx(0.0)
        assert linear_to_srgb(1.0) == pytest.approx(1.0)

    def test_gamma_roundtrip(self):
        values = np.linspace(0.0, 1.0, 101)
        assert np.allclose(srgb_to_linear(linear_to_srgb(values)), values, atol=1e-9)

    def test_linear_toe_region(self):
        # Below the knee the transfer is linear with slope 1/12.92.
        assert srgb_to_linear(0.04045) == pytest.approx(0.04045 / 12.92)

    def test_encoding_clips_out_of_range(self):
        assert linear_to_srgb(2.0) == pytest.approx(1.0)
        assert linear_to_srgb(-1.0) == pytest.approx(0.0)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_monotone(self, v):
        assert linear_to_srgb(v) >= linear_to_srgb(v * 0.9) - 1e-12


class TestMatrices:
    def test_d65_white_maps_to_unit_rgb(self):
        # Linear RGB (1,1,1) must be the D65 white point.
        white = linear_rgb_to_xyz(np.ones(3))
        assert white[1] == pytest.approx(1.0, abs=1e-4)
        x = white[0] / white.sum()
        y = white[1] / white.sum()
        assert x == pytest.approx(0.3127, abs=2e-3)
        assert y == pytest.approx(0.3290, abs=2e-3)

    def test_matrix_inverse_consistency(self):
        rng = np.random.default_rng(0)
        rgb = rng.random((20, 3))
        assert np.allclose(xyz_to_linear_rgb(linear_rgb_to_xyz(rgb)), rgb)

    def test_luminance_row_is_y(self):
        # The middle row of the matrix gives CIE luminance.
        assert SRGB_TO_XYZ_MATRIX[1].sum() == pytest.approx(1.0, abs=1e-4)


class TestEndToEnd:
    def test_srgb_xyz_roundtrip(self):
        rng = np.random.default_rng(2)
        srgb = rng.random((100, 3))
        assert np.allclose(xyz_to_srgb(linear_rgb_to_xyz(srgb_to_linear(srgb))), srgb, atol=1e-6)

    def test_gray_axis_neutral(self):
        xyz = linear_rgb_to_xyz(srgb_to_linear(np.array([0.5, 0.5, 0.5])))
        x = xyz[0] / xyz.sum()
        assert x == pytest.approx(0.3127, abs=2e-3)
