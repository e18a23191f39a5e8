"""Unit tests for per-device color responses (receiver diversity)."""

import numpy as np
import pytest

from repro.camera.color_filter import (
    ColorResponse,
    perturbed_response,
)
from repro.color.srgb import linear_rgb_to_xyz
from repro.exceptions import CameraError


class TestValidation:
    def test_bad_matrix_shape(self):
        with pytest.raises(CameraError):
            ColorResponse("x", np.eye(2))

    def test_bad_white_balance(self):
        with pytest.raises(CameraError):
            ColorResponse("x", np.eye(3), white_balance=np.ones(2))

    def test_bad_fidelity(self):
        with pytest.raises(CameraError):
            ColorResponse("x", np.eye(3), fidelity=1.5)

    def test_bad_crosstalk(self):
        with pytest.raises(CameraError):
            perturbed_response("x", crosstalk=0.6)


class TestIdealResponse:
    """An identity matrix at full fidelity is a colorimetrically perfect camera."""

    @staticmethod
    def _ideal():
        return ColorResponse(name="ideal", matrix=np.eye(3), fidelity=1.0)

    def test_identity_behaviour(self):
        response = self._ideal()
        rgb = np.random.default_rng(0).random((10, 3))
        xyz = linear_rgb_to_xyz(rgb)
        assert np.allclose(response.scene_xyz_to_camera_linear(xyz), rgb)

    def test_effective_matrix_identity(self):
        assert np.allclose(self._ideal().effective_matrix, np.eye(3))


class TestPerturbedResponse:
    def test_full_fidelity_ignores_matrix(self):
        response = perturbed_response("x", crosstalk=0.2, fidelity=1.0)
        assert np.allclose(
            response.effective_matrix, np.diag(response.white_balance)
        )

    def test_crosstalk_mixes_channels(self):
        response = perturbed_response("x", crosstalk=0.2, fidelity=0.0)
        pure_red = np.array([1.0, 0.0, 0.0])
        out = pure_red @ response.effective_matrix.T
        assert out[1] > 0.05 and out[2] > 0.05

    def test_deterministic_without_rng(self):
        a = perturbed_response("x", crosstalk=0.1, white_balance_error=0.05)
        b = perturbed_response("x", crosstalk=0.1, white_balance_error=0.05)
        assert np.allclose(a.effective_matrix, b.effective_matrix)

    def test_rng_variation(self):
        rng1 = np.random.default_rng(1)
        rng2 = np.random.default_rng(2)
        a = perturbed_response("a", 0.1, white_balance_error=0.05, rng=rng1)
        b = perturbed_response("b", 0.1, white_balance_error=0.05, rng=rng2)
        assert not np.allclose(a.effective_matrix, b.effective_matrix)


class TestReceiverDiversity:
    def test_different_devices_see_different_colors(self):
        """Fig 6(a): the same emission lands at different chroma per device."""
        from repro.camera.devices import iphone_5s, nexus_5

        xyz = np.array([[30.0, 25.0, 10.0], [5.0, 20.0, 40.0]])
        nexus_rgb = nexus_5().response.scene_xyz_to_camera_linear(xyz)
        iphone_rgb = iphone_5s().response.scene_xyz_to_camera_linear(xyz)
        difference = np.abs(nexus_rgb - iphone_rgb).max()
        assert difference > 0.5

    def test_vectorized_shapes(self):
        response = perturbed_response("x", 0.1)
        xyz = np.random.default_rng(0).random((4, 5, 3))
        assert response.scene_xyz_to_camera_linear(xyz).shape == (4, 5, 3)
