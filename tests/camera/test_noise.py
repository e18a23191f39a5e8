"""Unit tests for the sensor noise model."""

import numpy as np
import pytest

from repro.camera.noise import SensorNoise, dequantize_8bit
from repro.exceptions import CameraError


class TestValidation:
    def test_bad_full_well(self):
        with pytest.raises(CameraError):
            SensorNoise(full_well_electrons=0)

    def test_bad_prnu(self):
        with pytest.raises(CameraError):
            SensorNoise(prnu=0.5)

    def test_bad_row_noise(self):
        with pytest.raises(CameraError):
            SensorNoise(row_noise=0.9)


class TestApply:
    def test_zero_signal_stays_near_zero(self, rng):
        noise = SensorNoise()
        out = noise.apply(np.zeros((100, 100, 3)), iso=100, rng=rng)
        assert np.all(out >= 0)
        assert out.mean() < 0.01

    def test_output_clipped(self, rng):
        noise = SensorNoise()
        out = noise.apply(np.full((50, 50, 3), 1.2), iso=100, rng=rng)
        assert np.all(out <= 1.0)

    def test_mean_preserved(self, rng):
        noise = SensorNoise(prnu=0.0)
        signal = np.full((200, 200, 3), 0.5)
        out = noise.apply(signal, iso=100, rng=rng)
        assert out.mean() == pytest.approx(0.5, abs=0.005)

    def test_higher_iso_noisier(self):
        noise = SensorNoise(prnu=0.0)
        signal = np.full((200, 200), 0.4)
        low = noise.apply(signal, iso=100, rng=np.random.default_rng(0))
        high = noise.apply(signal, iso=800, rng=np.random.default_rng(0))
        assert high.std() > low.std()

    def test_shot_noise_scales_with_signal(self, rng):
        noise = SensorNoise(prnu=0.0, read_noise_electrons=0.0)
        dim = noise.apply(np.full((300, 300), 0.1), iso=100, rng=rng)
        bright = noise.apply(np.full((300, 300), 0.9), iso=100, rng=rng)
        # Relative noise shrinks with signal (Poisson statistics).
        assert dim.std() / 0.1 > bright.std() / 0.9

    def test_invalid_iso(self, rng):
        with pytest.raises(CameraError):
            SensorNoise().apply(np.zeros((2, 2)), iso=0, rng=rng)


class TestDequantization:
    def test_levels_map_to_unit_interval(self):
        pixels = np.arange(256, dtype=np.uint8)
        values = dequantize_8bit(pixels)
        assert values[0] == 0.0 and values[-1] == 1.0
        assert np.allclose(np.diff(values), 1 / 255)
