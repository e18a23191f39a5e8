"""Unit tests for the sensor noise model."""

import numpy as np
import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.capture import (
    PIXEL_DTYPE,
    apply_sensor_noise,
    draw_prnu_gain,
    encode_srgb_bytes,
)
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


def noisy(noise, signal, iso, rng):
    """``signal`` (full-well units) through the capture pipeline's noise
    stage at ``iso``: the electron scale folded in as the recording plan
    does, then :func:`apply_sensor_noise` with fresh shot normals and PRNU
    pattern.  Unclipped, as the pipeline saturates only when encoding."""
    signal = np.asarray(signal, dtype=PIXEL_DTYPE)
    iso_gain = iso / noise.reference_iso
    electrons = signal * PIXEL_DTYPE(noise.full_well_electrons / iso_gain)
    shot = rng.standard_normal(signal.shape, dtype=PIXEL_DTYPE)
    prnu = None
    if noise.prnu > 0:
        prnu = draw_prnu_gain(noise.prnu, *signal.shape[:2], rng)
    return apply_sensor_noise(
        electrons,
        PIXEL_DTYPE(iso_gain / noise.full_well_electrons),
        PIXEL_DTYPE(noise.read_noise_electrons**2),
        shot,
        prnu,
    )


class TestApply:
    def test_zero_signal_stays_near_zero(self, rng):
        out = noisy(SensorNoise(), np.zeros((100, 100, 3)), iso=100, rng=rng)
        assert abs(out.mean()) < 0.001
        assert np.abs(out).max() < 0.01

    def test_output_clipped(self, rng):
        out = noisy(SensorNoise(), np.full((50, 50, 3), 1.2), iso=100, rng=rng)
        assert np.all(encode_srgb_bytes(out) == 255)

    def test_mean_preserved(self, rng):
        noise = SensorNoise(prnu=0.0)
        out = noisy(noise, np.full((200, 200, 3), 0.5), iso=100, rng=rng)
        assert out.mean() == pytest.approx(0.5, abs=0.005)

    def test_higher_iso_noisier(self):
        noise = SensorNoise(prnu=0.0)
        signal = np.full((200, 200), 0.4)
        low = noisy(noise, signal, iso=100, rng=np.random.default_rng(0))
        high = noisy(noise, signal, iso=800, rng=np.random.default_rng(0))
        assert high.std() > low.std()

    def test_shot_noise_scales_with_signal(self, rng):
        noise = SensorNoise(prnu=0.0, read_noise_electrons=0.0)
        dim = noisy(noise, np.full((300, 300), 0.1), iso=100, rng=rng)
        bright = noisy(noise, np.full((300, 300), 0.9), iso=100, rng=rng)
        # Relative noise shrinks with signal (Poisson statistics).
        assert dim.std() / 0.1 > bright.std() / 0.9

    def test_invalid_iso(self):
        # The ISO the noise stage scales by comes from the exposure settings.
        with pytest.raises(CameraError):
            ExposureSettings(exposure_s=0.001, iso=0)


class TestDequantization:
    def test_levels_map_to_unit_interval(self):
        pixels = np.arange(256, dtype=np.uint8)
        values = dequantize_8bit(pixels)
        assert values[0] == 0.0 and values[-1] == 1.0
        assert np.allclose(np.diff(values), 1 / 255)
