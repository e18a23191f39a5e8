"""Fast ↔ reference capture equivalence: the vectorized engine's contract.

``capture_path="batched"`` (the default) develops a whole recording in
numpy block passes; ``capture_path="reference"`` develops one frame at a
time through the same kernels.  The contract is *byte identity*: every
pixel of every frame, every timestamp, every exposure setting, and the
camera's RNG state afterwards must match exactly.  These tests pin that
contract across devices, waveform extension modes, ISP toggles, AE modes,
and timing jitter.
"""

import numpy as np
import pytest

from repro.camera.auto_exposure import AutoExposure
from repro.camera.devices import generic_device, iphone_5s, nexus_5
from repro.camera.sensor import RollingShutterCamera
from repro.phy.symbols import data_symbol, off_symbol, white_symbol
from repro.phy.waveform import EXTEND_CYCLE, EXTEND_OFF

from tests.conftest import make_tiny_device


def _bench_waveform(modulator8, extend=EXTEND_CYCLE, count=400):
    rng = np.random.default_rng(7)
    symbols = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.1:
            symbols.append(off_symbol())
        elif draw < 0.35:
            symbols.append(white_symbol())
        else:
            symbols.append(data_symbol(int(rng.integers(0, 8))))
    return modulator8.waveform(symbols, extend=extend)


def _record_pair(make_camera, waveform, duration, **record_kwargs):
    batched = make_camera("batched")
    reference = make_camera("reference")
    frames_b = batched.record(waveform, duration=duration, **record_kwargs)
    frames_r = reference.record(waveform, duration=duration, **record_kwargs)
    return batched, reference, frames_b, frames_r


def _assert_frames_identical(frames_b, frames_r):
    assert len(frames_b) == len(frames_r) > 0
    for fb, fr in zip(frames_b, frames_r):
        assert fb.start_time == fr.start_time
        assert fb.exposure == fr.exposure
        assert fb.pixels.dtype == fr.pixels.dtype == np.uint8
        assert np.array_equal(fb.pixels, fr.pixels)


class TestPixelByteIdentity:
    @pytest.mark.parametrize("extend", [EXTEND_CYCLE, EXTEND_OFF])
    def test_tiny_device_both_extends(self, modulator8, extend):
        device = make_tiny_device()
        waveform = _bench_waveform(modulator8, extend=extend)
        _, _, frames_b, frames_r = _record_pair(
            lambda path: device.make_camera(
                simulated_columns=16, seed=3, capture_path=path
            ),
            waveform,
            duration=0.2,
        )
        _assert_frames_identical(frames_b, frames_r)

    @pytest.mark.parametrize(
        "factory", [nexus_5, iphone_5s, generic_device], ids=lambda f: f.__name__
    )
    def test_real_device_profiles(self, modulator8, factory):
        device = factory()
        waveform = _bench_waveform(modulator8)
        _, _, frames_b, frames_r = _record_pair(
            lambda path: device.make_camera(
                simulated_columns=8, seed=11, capture_path=path
            ),
            waveform,
            duration=0.1,
        )
        _assert_frames_identical(frames_b, frames_r)

    def test_with_frame_jitter(self, modulator8):
        device = make_tiny_device()
        waveform = _bench_waveform(modulator8)
        _, _, frames_b, frames_r = _record_pair(
            lambda path: device.make_camera(
                simulated_columns=16, seed=5, capture_path=path
            ),
            waveform,
            duration=0.2,
            frame_jitter_s=0.0015,
        )
        _assert_frames_identical(frames_b, frames_r)

    def test_bayer_disabled(self, modulator8):
        device = make_tiny_device()
        waveform = _bench_waveform(modulator8)
        _, _, frames_b, frames_r = _record_pair(
            lambda path: device.make_camera(
                simulated_columns=16, seed=2, enable_bayer=False, capture_path=path
            ),
            waveform,
            duration=0.2,
        )
        _assert_frames_identical(frames_b, frames_r)

    def test_awb_disabled(self, modulator8):
        device = make_tiny_device()
        waveform = _bench_waveform(modulator8)

        def make(path):
            return RollingShutterCamera(
                timing=device.timing,
                response=device.response,
                noise=device.noise,
                optics=device.optics,
                simulated_columns=16,
                enable_awb=False,
                seed=2,
                capture_path=path,
            )

        _, _, frames_b, frames_r = _record_pair(make, waveform, duration=0.2)
        _assert_frames_identical(frames_b, frames_r)

    def test_ae_locked(self, modulator8):
        device = make_tiny_device()
        waveform = _bench_waveform(modulator8)

        def make(path):
            ae = AutoExposure()
            ae.lock()
            return device.make_camera(
                simulated_columns=16, seed=4, auto_exposure=ae, capture_path=path
            )

        _, _, frames_b, frames_r = _record_pair(make, waveform, duration=0.2)
        _assert_frames_identical(frames_b, frames_r)


class TestRngStateContract:
    """Both engines must consume the camera RNG identically."""

    def test_rng_state_matches_after_record(self, modulator8):
        device = make_tiny_device()
        waveform = _bench_waveform(modulator8)
        batched, reference, _, _ = _record_pair(
            lambda path: device.make_camera(
                simulated_columns=16, seed=9, capture_path=path
            ),
            waveform,
            duration=0.2,
            frame_jitter_s=0.001,
        )
        assert repr(batched.rng.bit_generator.state) == repr(
            reference.rng.bit_generator.state
        )

    def test_back_to_back_recordings_stay_identical(self, modulator8):
        # The second recording consumes RNG state left by the first — a
        # plan-cache hit must restore the exact end state or this diverges.
        device = make_tiny_device()
        waveform = _bench_waveform(modulator8)
        batched = device.make_camera(
            simulated_columns=16, seed=6, capture_path="batched"
        )
        reference = device.make_camera(
            simulated_columns=16, seed=6, capture_path="reference"
        )
        for _ in range(2):
            frames_b = batched.record(waveform, duration=0.15)
            frames_r = reference.record(waveform, duration=0.15)
            _assert_frames_identical(frames_b, frames_r)


class TestPrnuLifecycle:
    def test_prnu_drawn_once_per_camera(self, modulator8):
        device = make_tiny_device()
        waveform = _bench_waveform(modulator8)
        camera = device.make_camera(simulated_columns=16, seed=1)
        assert camera.noise.prnu > 0
        camera.record(waveform, duration=0.1)
        first = camera._prnu_gain
        assert first is not None
        camera.record(waveform, duration=0.1)
        assert camera._prnu_gain is first
