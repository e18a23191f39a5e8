"""Unit tests for the symbol detector (bootstrap and calibrated modes)."""

import numpy as np
import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.frame import CapturedFrame
from repro.csk.calibration import CalibrationTable
from repro.csk.demodulator import CskDemodulator, DecisionKind
from repro.exceptions import DemodulationError
from repro.rx.detector import SymbolDetector, received_bands
from repro.rx.segmentation import BandColumns


@pytest.fixture
def frame():
    return CapturedFrame(
        index=3,
        pixels=np.zeros((200, 8, 3), dtype=np.uint8),
        start_time=0.1,
        row_period=1e-5,
        exposure=ExposureSettings(1e-4, 100),
    )


def bands(*labs, start=0, stop=20):
    """One frame's bands, one per Lab triple, each over rows
    ``[start, stop)`` with a core trimmed by 4 rows on each side."""
    count = len(labs)
    return BandColumns(
        np.full(count, start),
        np.full(count, stop),
        np.full(count, start + 4),
        np.full(count, stop - 4),
        np.array(labs, dtype=float).reshape(count, 3),
    )


def detected(detector, frame, frame_bands):
    """The bands ``detect`` returns, read back from its record as objects."""
    result = detector.detect(frame, frame_bands)
    assert len(result) == len(frame_bands)
    return received_bands(result.frame_index, result.record)


@pytest.fixture
def uncalibrated_detector(constellation8):
    table = CalibrationTable(constellation8)
    return SymbolDetector(CskDemodulator(table))


@pytest.fixture
def calibrated_detector(constellation8):
    table = CalibrationTable(constellation8)
    points = constellation8.as_array()
    chroma = (points - points.mean(axis=0)) * 120.0
    table.update(chroma, np.zeros(2))
    return SymbolDetector(CskDemodulator(table)), chroma


class TestBootstrap:
    def test_off_by_lightness(self, uncalibrated_detector, frame):
        received = detected(uncalibrated_detector, frame, bands([4.0, 0.0, 0.0]))
        assert received[0].decision.kind is DecisionKind.OFF

    def test_white_by_low_chroma(self, uncalibrated_detector, frame):
        received = detected(uncalibrated_detector, frame, bands([80.0, 3.0, -2.0]))
        assert received[0].decision.kind is DecisionKind.WHITE

    def test_color_is_unknown_data(self, uncalibrated_detector, frame):
        received = detected(uncalibrated_detector, frame, bands([70.0, 50.0, 20.0]))
        decision = received[0].decision
        assert decision.kind is DecisionKind.DATA
        assert decision.index is None
        assert not decision.confident

    def test_invalid_threshold(self, constellation8):
        table = CalibrationTable(constellation8)
        with pytest.raises(DemodulationError):
            SymbolDetector(CskDemodulator(table), bootstrap_white_chroma=0)


class TestCalibrated:
    def test_data_index_recovered(self, calibrated_detector, frame):
        detector, chroma = calibrated_detector
        received = detected(detector, frame, bands([70.0, *chroma[5]]))
        assert received[0].decision.index == 5

    def test_mixed_stream(self, calibrated_detector, frame):
        detector, chroma = calibrated_detector
        frame_bands = bands(
            [4.0, 0.0, 0.0], [80.0, 0.5, 0.5], [70.0, *chroma[2]]
        )
        kinds = [r.decision.kind for r in detected(detector, frame, frame_bands)]
        assert kinds == [DecisionKind.OFF, DecisionKind.WHITE, DecisionKind.DATA]


class TestTiming:
    def test_mid_time_uses_core_and_exposure(self, uncalibrated_detector, frame):
        received = detected(
            uncalibrated_detector,
            frame,
            bands([80.0, 0.0, 0.0], start=100, stop=140),
        )
        expected = (
            frame.start_time
            + ((104 + 135) / 2) * frame.row_period
            + frame.exposure.exposure_s / 2
        )
        assert received[0].mid_time == pytest.approx(expected)

    def test_frame_index_propagated(self, uncalibrated_detector, frame):
        received = detected(uncalibrated_detector, frame, bands([80.0, 0, 0]))
        assert received[0].frame_index == 3

    def test_empty_bands(self, uncalibrated_detector, frame):
        result = uncalibrated_detector.detect(frame, bands())
        assert len(result) == 0
        assert result.frame_index == 3
