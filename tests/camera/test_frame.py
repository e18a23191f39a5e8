"""Unit tests for the captured-frame container."""

import numpy as np
import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.frame import CapturedFrame
from repro.exceptions import CameraError


@pytest.fixture
def frame():
    return CapturedFrame(
        index=0,
        pixels=np.zeros((100, 20, 3), dtype=np.uint8),
        start_time=1.0,
        row_period=1e-5,
        exposure=ExposureSettings(exposure_s=1e-4, iso=100),
    )


class TestValidation:
    def test_bad_shape(self):
        with pytest.raises(CameraError):
            CapturedFrame(0, np.zeros((10, 10), dtype=np.uint8), 0.0, 1e-5,
                          ExposureSettings(1e-4, 100))

    def test_bad_dtype(self):
        with pytest.raises(CameraError):
            CapturedFrame(0, np.zeros((10, 10, 3)), 0.0, 1e-5,
                          ExposureSettings(1e-4, 100))

    def test_bad_row_period(self):
        with pytest.raises(CameraError):
            CapturedFrame(0, np.zeros((10, 10, 3), dtype=np.uint8), 0.0, 0.0,
                          ExposureSettings(1e-4, 100))

    # Each of these used to reach the receiver and crash it with a
    # non-library exception (ZeroDivisionError, ValueError, OverflowError).
    @pytest.mark.parametrize(
        "cols, start_time, row_period",
        [
            (0, 0.0, 1e-5),
            (10, float("nan"), 1e-5),
            (10, float("inf"), 1e-5),
            (10, 0.0, float("nan")),
        ],
        ids=["zero-columns", "nan-start", "inf-start", "nan-row-period"],
    )
    def test_malformed_frame_rejected(self, cols, start_time, row_period):
        with pytest.raises(CameraError):
            CapturedFrame(0, np.zeros((10, cols, 3), dtype=np.uint8),
                          start_time, row_period, ExposureSettings(1e-4, 100))


class TestTiming:
    def test_dimensions(self, frame):
        assert frame.rows == 100
        assert frame.cols == 20

    def test_readout_duration(self, frame):
        assert frame.readout_duration == pytest.approx(100 * 1e-5)
