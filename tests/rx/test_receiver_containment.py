"""Per-frame fault containment in ColorBarsReceiver.

The graceful-degradation contract: a ColorBarsError raised while processing
one frame becomes a FrameFailure record and a frame-wide gap — it never
aborts the session.  Errors outside the ColorBarsError hierarchy are bugs,
not channel conditions, and must still propagate.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.frame import CapturedFrame
from repro.core.config import SystemConfig
from repro.core.system import make_receiver, make_streaming_receiver
from repro.csk.calibration import CalibrationTable
from repro.exceptions import DemodulationError
from repro.link.simulator import LinkSimulator
from repro.rx.detector import BAND_RECORD, band_column
from repro.rx.preprocess import frame_to_scanline_lab
from repro.rx.streaming import StreamingReceiver

ROWS, COLS = 400, 8


def make_frames(count=4):
    rng = np.random.default_rng(99)
    return [
        CapturedFrame(
            index=i,
            pixels=rng.integers(10, 240, size=(ROWS, COLS, 3)).astype(np.uint8),
            start_time=i / 30.0,
            row_period=1e-4,
            exposure=ExposureSettings(exposure_s=1e-3, iso=100.0),
        )
        for i in range(count)
    ]


@pytest.fixture
def receiver(tiny_device):
    config = SystemConfig(
        csk_order=8, symbol_rate=1000, design_loss_ratio=0.25,
        illumination_ratio=0.8,
    )
    rx = make_receiver(config, tiny_device.timing)
    # Pre-calibrate so process_frames skips bootstrap and runs the full
    # demodulation pass (where containment records failures).
    table = CalibrationTable(rx.calibration.constellation)
    references = np.stack(
        [[20.0 * i, 40.0 - 10.0 * i] for i in range(table.constellation.order)]
    )
    table.update(references, white_chroma=np.array([200.0, 200.0]))
    rx.calibration = table
    rx.demodulator.calibration = table
    return rx


class RaisingDetector:
    """Wraps the real detector; a run holding a poisoned frame raises."""

    def __init__(self, inner, poisoned):
        self.inner = inner
        self.poisoned = set(poisoned)

    def detect(self, clocks, bands):
        for clock in clocks:
            if clock.index in self.poisoned:
                raise DemodulationError(f"poisoned frame {clock.index}")
        return self.inner.detect(clocks, bands)


class TestContainment:
    def test_colorbars_error_becomes_frame_failure(self, receiver):
        frames = make_frames(4)
        receiver.detector = RaisingDetector(receiver.detector, {2})
        report = receiver.process_frames(frames)
        assert report.frames_processed == 4
        assert report.frames_failed == 1
        failure = report.frame_failures[0]
        assert failure.frame_index == 2
        assert failure.stage == "detect"
        assert failure.error_type == "DemodulationError"
        assert "poisoned frame 2" in failure.message

    def test_every_frame_failing_still_returns_report(self, receiver):
        frames = make_frames(3)
        receiver.detector = RaisingDetector(receiver.detector, {0, 1, 2})
        report = receiver.process_frames(frames)
        assert report.frames_failed == 3
        assert report.payloads == []
        assert report.symbols_detected == 0

    def test_non_colorbars_error_propagates(self, receiver):
        frames = make_frames(2)

        class Bug:
            def detect(self, clocks, bands):
                raise RuntimeError("programming bug, not a channel condition")

        receiver.detector = Bug()
        with pytest.raises(RuntimeError):
            receiver.process_frames(frames)

    def test_poisoned_frame_mid_run_fails_alone(self, tiny_device):
        """One poisoned frame inside a run fails by itself: every other
        frame's bands log byte for byte as a clean run logs them."""
        config = SystemConfig(
            csk_order=4,
            symbol_rate=1000,
            design_loss_ratio=tiny_device.timing.gap_fraction,
            frame_rate=tiny_device.timing.frame_rate,
        )
        simulator = LinkSimulator(
            config, tiny_device, simulated_columns=32, seed=3
        )
        _, frames, _ = simulator.record_session(duration_s=0.6)
        calibrated = make_receiver(config, tiny_device.timing)
        calibrated.process_frames(frames)
        assert calibrated.calibration.is_calibrated
        clean, poisoned = copy.deepcopy(calibrated), copy.deepcopy(calibrated)
        clean_report = clean.process_frames(frames)
        clean_frames = band_column(clean_report.bands, "frame_index")
        middle = int(clean_frames[len(clean_frames) // 2])
        assert 0 < middle < frames[-1].index
        poisoned.detector = RaisingDetector(poisoned.detector, {middle})
        report = poisoned.process_frames(frames)

        assert [
            (f.frame_index, f.stage, f.error_type, f.message)
            for f in report.frame_failures
        ] == [(middle, "detect", "DemodulationError", f"poisoned frame {middle}")]
        assert report.frames_processed == len(frames)
        others = clean_frames != middle
        assert band_column(report.bands, "frame_index").tolist() == (
            clean_frames[others].tolist()
        )
        for name in BAND_RECORD.names:
            column = band_column(report.bands, name)
            expected = band_column(clean_report.bands, name)[others]
            assert column.tobytes() == expected.tobytes(), name
        assert report.symbols_detected == int(others.sum())

    def test_failed_frame_degrades_link_not_session(self, tiny_device):
        """End to end: poisoning one frame mid-run costs symbols, not the run."""
        config = SystemConfig(
            csk_order=4, symbol_rate=1000, design_loss_ratio=0.25,
            illumination_ratio=0.8,
        )
        simulator = LinkSimulator(config, tiny_device, seed=3)
        clean = simulator.run(duration_s=2.0)
        assert clean.report.frames_failed == 0
        assert clean.metrics.goodput_bps > 0


def make_short_frame(index, rows):
    rng = np.random.default_rng(index)
    return CapturedFrame(
        index=index,
        pixels=rng.integers(10, 240, size=(rows, COLS, 3)).astype(np.uint8),
        start_time=index / 30.0,
        row_period=1e-4,
        exposure=ExposureSettings(exposure_s=1e-3, iso=100.0),
    )


class TestFramesShorterThanSmoothing:
    """1- and 2-row frames at the default ``smooth_rows=3`` fail as data."""

    @pytest.mark.parametrize("rows", [1, 2])
    def test_preprocess_raises_demodulation_error(self, rows):
        with pytest.raises(DemodulationError) as excinfo:
            frame_to_scanline_lab(make_short_frame(0, rows))
        message = str(excinfo.value)
        assert f"{rows} scanline" in message
        assert "smooth_rows=3" in message

    @pytest.mark.parametrize("rows", [1, 2])
    def test_batch_records_preprocess_failure(self, receiver, rows):
        frames = make_frames(4)
        frames[2] = make_short_frame(2, rows)
        report = receiver.process_frames(frames)
        assert report.frames_processed == 4
        assert [f.frame_index for f in report.frame_failures] == [2]
        failure = report.frame_failures[0]
        assert failure.stage == "preprocess"
        assert failure.error_type == "DemodulationError"
        assert "smooth_rows=3" in failure.message

    @pytest.mark.parametrize("rows", [1, 2])
    def test_batch_of_only_short_frames(self, receiver, rows):
        frames = [make_short_frame(i, rows) for i in range(3)]
        report = receiver.process_frames(frames)
        assert report.frames_failed == 3
        assert {f.stage for f in report.frame_failures} == {"preprocess"}
        assert report.symbols_detected == 0

    @pytest.mark.parametrize("rows", [1, 2])
    def test_streaming_session_survives(self, receiver, rows):
        streaming = StreamingReceiver(receiver)
        frames = make_frames(3)
        for frame in (frames[0], make_short_frame(1, rows), frames[2]):
            streaming.feed(frame)
        assert streaming.failures_contained == 1
        assert streaming.last_contained_failure.stage == "preprocess"
        streaming.finish()
        report = streaming.report
        assert report.frames_processed == 3
        assert [f.frame_index for f in report.frame_failures] == [1]
        assert report.frame_failures[0].error_type == "DemodulationError"


class TestFrameOffTheSymbolClock:
    """A frame timed where float64 no longer resolves a symbol period fails
    as data on both paths.  Stitching it used to raise ``OverflowError``
    (an infinite ``dt``) or count ~1e300 symbols lost in one gap."""

    @pytest.mark.parametrize(
        "changes",
        [
            {"start_time": 1.7e308},
            {"start_time": -1e308},
            {"row_period": 1e300},
            {"exposure": ExposureSettings(exposure_s=1e300, iso=100.0)},
        ],
        ids=["start-max", "start-min", "row-period", "exposure"],
    )
    def test_batch_and_streaming_record_segment_failure(
        self, tiny_device, changes
    ):
        config = SystemConfig(
            csk_order=4,
            symbol_rate=1000,
            design_loss_ratio=tiny_device.timing.gap_fraction,
            frame_rate=tiny_device.timing.frame_rate,
        )
        simulator = LinkSimulator(
            config, tiny_device, simulated_columns=32, seed=3
        )
        _, frames, _ = simulator.record_session(duration_s=0.6)
        frames[5] = dataclasses.replace(frames[5], **changes)
        batch = make_receiver(config, tiny_device.timing).process_frames(frames)
        streaming = make_streaming_receiver(config, tiny_device.timing)
        for frame in frames:
            streaming.feed(frame)
        streaming.finish()
        for report in (batch, streaming.report):
            assert [
                (f.frame_index, f.stage, f.error_type)
                for f in report.frame_failures
            ] == [(5, "segment", "DemodulationError")]
            assert report.symbols_lost_in_gaps < 10_000
            assert report.packets_decoded > 0
