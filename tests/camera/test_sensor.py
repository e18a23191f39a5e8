"""Unit tests for the rolling-shutter sensor."""

import numpy as np
import pytest

from repro.camera.sensor import RollingShutterCamera, SensorTiming
from repro.exceptions import SensorTimingError
from repro.phy.symbols import data_symbol, off_symbol, white_symbol
from repro.phy.waveform import EXTEND_CYCLE


@pytest.fixture
def timing():
    return SensorTiming(rows=400, cols=64, frame_rate=30.0, gap_fraction=0.25)


@pytest.fixture
def camera(tiny_device):
    return tiny_device.make_camera(simulated_columns=16, seed=0)


@pytest.fixture
def waveform(modulator8):
    rng = np.random.default_rng(0)
    symbols = [
        white_symbol() if rng.random() < 0.3 else data_symbol(int(rng.integers(0, 8)))
        for _ in range(500)
    ]
    return modulator8.waveform(symbols, extend=EXTEND_CYCLE)


class TestSensorTiming:
    def test_derived_durations(self, timing):
        assert timing.frame_period == pytest.approx(1 / 30)
        assert timing.readout_duration == pytest.approx(0.75 / 30)
        assert timing.gap_duration == pytest.approx(0.25 / 30)
        assert timing.row_period == pytest.approx(0.75 / 30 / 400)

    def test_rows_per_symbol(self, timing):
        assert timing.rows_per_symbol(1000.0) == pytest.approx(16.0)

    def test_symbols_lost_per_gap(self, timing):
        assert timing.symbols_lost_per_gap(1200.0) == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rows=0, cols=10, frame_rate=30, gap_fraction=0.2),
            dict(rows=10, cols=10, frame_rate=0, gap_fraction=0.2),
            dict(rows=10, cols=10, frame_rate=30, gap_fraction=1.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(SensorTimingError):
            SensorTiming(**kwargs)


class TestCapture:
    def test_frame_shape_and_dtype(self, camera, waveform):
        frame = camera.capture_frame(waveform, 0.0)
        assert frame.pixels.shape == (400, 16, 3)
        assert frame.pixels.dtype == np.uint8

    def test_frame_metadata(self, camera, waveform):
        frame = camera.capture_frame(waveform, 0.125)
        assert frame.start_time == pytest.approx(0.125)
        assert frame.row_period == pytest.approx(camera.timing.row_period)

    def test_frame_indices_increment(self, camera, waveform):
        first = camera.capture_frame(waveform, 0.0)
        second = camera.capture_frame(waveform, 1 / 30)
        assert (first.index, second.index) == (0, 1)

    def test_dark_waveform_dark_frame(self, camera, modulator8):
        wf = modulator8.waveform([off_symbol()] * 100, extend=EXTEND_CYCLE)
        frame = camera.capture_frame(wf, 0.0)
        assert frame.pixels.mean() < 40

    def test_banding_visible(self, camera, modulator8):
        """Alternating colors must produce distinct horizontal bands."""
        symbols = [data_symbol(2), data_symbol(5)] * 100
        wf = modulator8.waveform(symbols, extend=EXTEND_CYCLE)
        frame = camera.capture_frame(wf, 0.0)
        rows = frame.pixels.astype(float).mean(axis=1)
        variation = rows.std(axis=0).mean()
        assert variation > 10  # strong row-to-row differences

    def test_manual_settings_respected(self, camera, waveform):
        from repro.camera.auto_exposure import ExposureSettings

        manual = ExposureSettings(1 / 4000, 200)
        frame = camera.capture_frame(waveform, 0.0, settings=manual)
        assert frame.exposure == manual

    def test_determinism_same_seed(self, tiny_device, waveform):
        a = tiny_device.make_camera(simulated_columns=16, seed=7)
        b = tiny_device.make_camera(simulated_columns=16, seed=7)
        fa = a.capture_frame(waveform, 0.0)
        fb = b.capture_frame(waveform, 0.0)
        assert np.array_equal(fa.pixels, fb.pixels)


class TestRecord:
    def test_frame_count(self, camera, waveform):
        frames = camera.record(waveform, duration=0.5)
        assert len(frames) == 15

    def test_frame_spacing_without_jitter(self, camera, waveform):
        frames = camera.record(waveform, duration=0.2, frame_jitter_s=0.0)
        gaps = np.diff([f.start_time for f in frames])
        assert np.allclose(gaps, 1 / 30)

    def test_jitter_perturbs_spacing(self, camera, waveform):
        frames = camera.record(waveform, duration=0.4, frame_jitter_s=1e-3)
        gaps = np.diff([f.start_time for f in frames])
        assert gaps.std() > 0

    def test_negative_jitter_rejected(self, camera, waveform):
        with pytest.raises(SensorTimingError):
            camera.record(waveform, duration=0.2, frame_jitter_s=-1e-3)


class TestAwb:
    def test_awb_neutralizes_device_cast(self, tiny_device, modulator8):
        """A white stream must land near-neutral despite the device matrix."""
        wf = modulator8.waveform([white_symbol()] * 300, extend=EXTEND_CYCLE)
        camera = tiny_device.make_camera(simulated_columns=16, seed=0)
        frames = camera.record(wf, duration=0.5)
        last = frames[-1].pixels.astype(float)
        channel_means = last.reshape(-1, 3).mean(axis=0)
        spread = channel_means.max() - channel_means.min()
        assert spread < 20  # near-neutral out of 255

    def test_awb_disabled_keeps_cast(self, tiny_device, modulator8):
        wf = modulator8.waveform([white_symbol()] * 300, extend=EXTEND_CYCLE)
        camera = tiny_device.make_camera(simulated_columns=16, seed=0)
        camera.enable_awb = False
        no_awb = camera.record(wf, duration=0.3)[-1]
        means = no_awb.pixels.astype(float).reshape(-1, 3).mean(axis=0)
        camera2 = tiny_device.make_camera(simulated_columns=16, seed=0)
        with_awb = camera2.record(wf, duration=0.3)[-1]
        means2 = with_awb.pixels.astype(float).reshape(-1, 3).mean(axis=0)
        assert (means.max() - means.min()) >= (means2.max() - means2.min()) - 2
