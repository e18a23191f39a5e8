"""Unit tests for the optics model."""

import numpy as np
import pytest

from repro.camera.optics import Optics
from repro.exceptions import CameraError


class TestValidation:
    def test_bad_vignetting(self):
        with pytest.raises(CameraError):
            Optics(vignetting_strength=1.5)

    def test_bad_distance(self):
        with pytest.raises(CameraError):
            Optics(distance_m=0)

    def test_negative_ambient(self):
        with pytest.raises(CameraError):
            Optics(ambient_luminance=-1)


class TestDistance:
    def test_reference_distance_unity(self):
        assert Optics(distance_m=0.03).distance_gain() == pytest.approx(1.0)

    def test_inverse_square(self):
        near = Optics(distance_m=0.03)
        far = Optics(distance_m=0.06)
        assert far.distance_gain() == pytest.approx(near.distance_gain() / 4)


class TestVignetting:
    def test_center_brightest(self):
        vignette = Optics().vignette_map(101, 101)
        assert vignette[50, 50] == pytest.approx(vignette.max())
        assert vignette[0, 0] < vignette[50, 50]

    def test_zero_strength_flat(self):
        vignette = Optics(vignetting_strength=0.0).vignette_map(20, 20)
        assert np.allclose(vignette, 1.0)

    def test_all_positive(self):
        vignette = Optics(vignetting_strength=1.0).vignette_map(50, 50)
        assert np.all(vignette > 0)

    def test_symmetry(self):
        vignette = Optics().vignette_map(30, 30)
        assert np.allclose(vignette, vignette[::-1, :], atol=1e-12)
        assert np.allclose(vignette, vignette[:, ::-1], atol=1e-12)

    def test_bad_shape(self):
        with pytest.raises(CameraError):
            Optics().vignette_map(0, 10)


class TestAmbient:
    def test_zero_ambient_dark(self):
        assert np.allclose(Optics(ambient_luminance=0.0).ambient_xyz(), 0.0)

    def test_ambient_luminance_carried(self):
        xyz = Optics(ambient_luminance=2.0).ambient_xyz()
        assert xyz[1] == pytest.approx(2.0)
