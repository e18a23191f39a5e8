"""Unit tests for the auto-exposure controller."""

import numpy as np
import pytest

from repro.camera.auto_exposure import AutoExposure, ExposureSettings
from repro.exceptions import CameraError


class TestExposureSettings:
    def test_gain(self):
        settings = ExposureSettings(exposure_s=0.001, iso=200)
        assert settings.gain() == pytest.approx(0.002)

    def test_invalid(self):
        with pytest.raises(CameraError):
            ExposureSettings(exposure_s=0, iso=100)
        with pytest.raises(CameraError):
            ExposureSettings(exposure_s=0.001, iso=0)

    @pytest.mark.parametrize(
        "exposure_s, iso",
        [(float("nan"), 100), (float("inf"), 100),
         (0.001, float("nan")), (0.001, float("inf"))],
        ids=["nan-exposure", "inf-exposure", "nan-iso", "inf-iso"],
    )
    def test_non_finite_rejected(self, exposure_s, iso):
        with pytest.raises(CameraError):
            ExposureSettings(exposure_s=exposure_s, iso=iso)


class TestController:
    def test_invalid_bounds(self):
        with pytest.raises(CameraError):
            AutoExposure(min_exposure_s=0.01, max_exposure_s=0.001)
        with pytest.raises(CameraError):
            AutoExposure(min_iso=800, max_iso=100)
        with pytest.raises(CameraError):
            AutoExposure(target_level=1.5)

    def test_bright_scene_short_exposure(self, rng):
        ae = AutoExposure(drift_sigma=0.0)
        for _ in range(10):
            ae.observe_frame(0.9, rng)
        assert ae.settings.exposure_s == ae.min_exposure_s
        assert ae.settings.iso == ae.min_iso

    def test_dark_scene_raises_gain(self, rng):
        ae = AutoExposure(drift_sigma=0.0)
        for _ in range(30):
            ae.observe_frame(0.01, rng)
        assert ae.settings.gain() > ExposureSettings(
            ae.min_exposure_s, ae.min_iso
        ).gain() * 5

    def test_iso_engaged_after_exposure_maxed(self, rng):
        ae = AutoExposure(drift_sigma=0.0, max_exposure_s=1 / 4000)
        for _ in range(60):
            ae.observe_frame(0.001, rng)
        assert ae.settings.exposure_s == pytest.approx(1 / 4000)
        assert ae.settings.iso > ae.min_iso

    def test_converges_to_target(self, rng):
        ae = AutoExposure(drift_sigma=0.0)
        # Scene whose level is proportional to the applied gain.
        scene_radiance = 2000.0
        for _ in range(40):
            level = min(scene_radiance * ae.settings.gain(), 1.0)
            ae.observe_frame(level, rng)
        final = scene_radiance * ae.settings.gain()
        assert final == pytest.approx(ae.target_level, rel=0.15)

    def test_lock_freezes(self, rng):
        ae = AutoExposure()
        manual = ExposureSettings(1 / 2000, 400)
        ae.lock(manual)
        ae.observe_frame(0.01, rng)
        assert ae.settings == manual

    def test_drift_changes_settings(self):
        ae = AutoExposure(drift_sigma=0.1)
        rng = np.random.default_rng(0)
        gains = []
        for _ in range(20):
            ae.observe_frame(ae.target_level, rng)
            gains.append(ae.settings.gain())
        assert np.std(gains) > 0

    def test_negative_level_rejected(self, rng):
        with pytest.raises(CameraError):
            AutoExposure().observe_frame(-0.1, rng)
