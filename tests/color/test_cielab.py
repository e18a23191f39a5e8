"""Unit and property tests for CIELab and the JND constant."""

import numpy as np
import pytest

from repro.color.cielab import (
    JND_DELTA_E,
    lab_to_xyz,
    xyz_to_lab,
)
from repro.color.illuminants import ILLUMINANT_D65, ILLUMINANT_E


class TestLabConversion:
    def test_white_point_maps_to_L100(self):
        lab = xyz_to_lab(ILLUMINANT_D65.XYZ)
        assert lab[0] == pytest.approx(100.0, abs=1e-6)
        assert np.allclose(lab[1:], [0.0, 0.0], atol=1e-6)

    def test_black_is_zero(self):
        lab = xyz_to_lab(np.zeros(3))
        assert lab[0] == pytest.approx(0.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        xyz = rng.random((200, 3)) * 0.9 + 0.02
        assert np.allclose(lab_to_xyz(xyz_to_lab(xyz)), xyz, atol=1e-10)

    def test_alternate_white_point(self):
        lab = xyz_to_lab(ILLUMINANT_E.XYZ, white=ILLUMINANT_E)
        assert np.allclose(lab, [100.0, 0.0, 0.0], atol=1e-6)

    def test_vectorized_shape(self):
        xyz = np.random.default_rng(1).random((4, 5, 3)) + 0.05
        assert xyz_to_lab(xyz).shape == (4, 5, 3)

    def test_lightness_monotone_in_luminance(self):
        dark = xyz_to_lab(np.array([0.1, 0.1, 0.1]))
        bright = xyz_to_lab(np.array([0.6, 0.6, 0.6]))
        assert bright[0] > dark[0]


class TestDeltaE:
    def test_jnd_constant_matches_paper(self):
        assert JND_DELTA_E == pytest.approx(2.3)
