"""Unit tests for the fault injectors against synthetic frame stacks.

The FaultSchedule each injector writes is asserted against the actual frame
damage, making the schedule trustworthy ground truth for the link-level
robustness tests.
"""

import hashlib

import numpy as np
import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.frame import CapturedFrame
from repro.exceptions import FaultInjectionError
from repro.faults import (
    FAULT_REGISTRY,
    DriftInjector,
    FaultSchedule,
    FrameDropInjector,
    OcclusionInjector,
    SaturationInjector,
    ScanlineCorruptionInjector,
    TimingJitterInjector,
    make_injector,
    parse_fault_spec,
    parse_fault_specs,
)

ROWS, COLS = 60, 8
FRAME_PERIOD = 1 / 30.0


def make_frames(count=6, seed=42):
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(count):
        pixels = rng.integers(10, 240, size=(ROWS, COLS, 3)).astype(np.uint8)
        frames.append(
            CapturedFrame(
                index=i,
                pixels=pixels,
                start_time=i * FRAME_PERIOD,
                row_period=1e-4,
                exposure=ExposureSettings(exposure_s=1e-3, iso=100.0),
            )
        )
    return frames


@pytest.fixture
def frames():
    return make_frames()


ALL_INJECTOR_CLASSES = sorted(FAULT_REGISTRY.values(), key=lambda c: c.name)


class TestContract:
    @pytest.mark.parametrize("cls", ALL_INJECTOR_CLASSES)
    def test_zero_intensity_is_identity(self, cls, frames):
        schedule = FaultSchedule()
        out = cls(0.0).inject(frames, np.random.default_rng(0), schedule)
        assert out == frames  # same frame objects, untouched
        assert len(schedule) == 0

    @pytest.mark.parametrize("cls", ALL_INJECTOR_CLASSES)
    def test_deterministic_given_rng_seed(self, cls, frames):
        def run():
            schedule = FaultSchedule()
            out = cls(0.7).inject(frames, np.random.default_rng(123), schedule)
            return schedule.events, [f.start_time for f in out], len(out)

        assert run() == run()

    @pytest.mark.parametrize("cls", ALL_INJECTOR_CLASSES)
    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), float("inf")])
    def test_intensity_out_of_range_rejected(self, cls, bad):
        with pytest.raises(FaultInjectionError):
            cls(bad)

    @pytest.mark.parametrize("cls", ALL_INJECTOR_CLASSES)
    def test_input_frames_never_mutated(self, cls, frames):
        originals = [f.pixels.copy() for f in frames]
        times = [f.start_time for f in frames]
        cls(1.0).inject(frames, np.random.default_rng(5), FaultSchedule())
        for frame, pixels, start in zip(frames, originals, times):
            assert np.array_equal(frame.pixels, pixels)
            assert frame.start_time == start


def frame_record(frame):
    """Everything an injector may change about a frame, comparable by ``==``."""
    return (frame.pixels.tobytes(), frame.index, frame.start_time, frame.exposure)


def run_stream(cls, intensity, frames, seed, eager):
    """One injector pass; ``(frame records, schedule events, final RNG state)``."""
    schedule = FaultSchedule()
    rng = np.random.default_rng(seed)
    injector = cls(intensity)
    if eager:
        out = injector.inject(frames, rng, schedule)
    else:
        out = list(injector.stream(frames, rng, schedule))
    return [frame_record(f) for f in out], schedule.events, rng.bit_generator.state


#: sha256 of each injector's output on ``make_frames(count=12)`` with
#: ``default_rng(2024)``: frame pixels and timing, the schedule, and the
#: generator's final state.  Pins the draws, their order and the damage.
INJECT_GOLDEN = {
    ("drift", 0.3): "e1364889987075c101b86b8c99dbb5092c95580c3b73307575806dcc31170009",
    ("drift", 1.0): "2a3c11bbd0e250585ab117e0cf8d9d8e9f3f35fc8e75ffe7d0afe86de4eb3420",
    ("frame-drop", 0.3): "7f53e3fc0b846740d24f94ff46810895394425f0f632dd357389429c976f2eb8",
    ("frame-drop", 1.0): "abc62f265ca1006faf923d8fb83b128de99a63e53869db166e2890a70d0d33fc",
    ("occlusion", 0.3): "e7c201b8db6320a1378ee5bdbb880ca32fe9db5c2fe21df513f0513c2dfc6e8c",
    ("occlusion", 1.0): "57ea2b8eed3b0ecf5d2d7422209fac167257550144860f8b989dbd7865040974",
    ("saturation", 0.3): "f4fc79d04ca29b56cf3f358fea4e56ea3c5d6973aeef9a4dcd0d43892f1002b3",
    ("saturation", 1.0): "3bb8f4689e747cda7864501cc96bd5831368322f47b285440673b1b4e03aa46a",
    ("scanline-corruption", 0.3): "80a749a31b3597349b7d7cad4ba9870508da113e29f40696acf6cea7ccb19a13",
    ("scanline-corruption", 1.0): "f4b815833d89e105c34038dd898ff560d4d6259ba41ecb506ba8974b83181509",
    ("timing-jitter", 0.3): "cde7590f02aba5000fefe8e9e118fef149e7c7b048933f3ccb63c84edcd41bf1",
    ("timing-jitter", 1.0): "ebecf8acd645a4f0d1c979388ef05d776153b5fc4c250c27e4a8062bbf8979ee",
}


class TestStream:
    """``stream`` is the injector; ``inject`` is ``list(stream(...))``."""

    @pytest.mark.parametrize("cls", ALL_INJECTOR_CLASSES)
    @pytest.mark.parametrize("intensity", [0.0, 0.3, 1.0])
    def test_stream_matches_inject(self, cls, intensity):
        frames = make_frames(count=12)
        assert run_stream(cls, intensity, frames, 9, eager=False) == run_stream(
            cls, intensity, frames, 9, eager=True
        )

    @pytest.mark.parametrize("cls", ALL_INJECTOR_CLASSES)
    def test_zero_intensity_stream_yields_inputs_and_draws_nothing(self, cls):
        frames = make_frames()
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        schedule = FaultSchedule()
        out = list(cls(0.0).stream(frames, rng, schedule))
        assert all(a is b for a, b in zip(out, frames)) and len(out) == len(frames)
        assert rng.bit_generator.state == before
        assert len(schedule) == 0

    @pytest.mark.parametrize("cls", ALL_INJECTOR_CLASSES)
    @pytest.mark.parametrize("intensity", [0.0, 0.3, 1.0])
    def test_interleaved_streams_match_streams_consumed_alone(
        self, cls, intensity
    ):
        first, second = make_frames(count=9, seed=1), make_frames(count=7, seed=2)
        alone = [
            run_stream(cls, intensity, first, 11, eager=False)[:2],
            run_stream(cls, intensity, second, 12, eager=False)[:2],
        ]
        schedules = [FaultSchedule(), FaultSchedule()]
        streams = [
            cls(intensity).stream(first, np.random.default_rng(11), schedules[0]),
            cls(intensity).stream(second, np.random.default_rng(12), schedules[1]),
        ]
        outputs = [[], []]
        live = [0, 1]
        while live:
            for which in list(live):
                frame = next(streams[which], None)
                if frame is None:
                    live.remove(which)
                else:
                    outputs[which].append(frame_record(frame))
        assert [
            (outputs[0], schedules[0].events),
            (outputs[1], schedules[1].events),
        ] == [tuple(a) for a in alone]

    @pytest.mark.parametrize("key", sorted(INJECT_GOLDEN))
    def test_inject_output_pinned(self, key):
        name, intensity = key
        schedule = FaultSchedule()
        rng = np.random.default_rng(2024)
        out = FAULT_REGISTRY[name](intensity).inject(
            make_frames(count=12), rng, schedule
        )
        digest = hashlib.sha256()
        for f in out:
            digest.update(f.pixels.tobytes())
            digest.update(
                repr((f.index, f.start_time, f.row_period, f.exposure)).encode()
            )
        digest.update(repr(schedule.events).encode())
        digest.update(repr(rng.bit_generator.state).encode())
        assert digest.hexdigest() == INJECT_GOLDEN[key]


class TestFrameDrop:
    def test_schedule_matches_surviving_frames(self, frames):
        schedule = FaultSchedule()
        out = FrameDropInjector(0.5).inject(
            frames, np.random.default_rng(7), schedule
        )
        dropped = schedule.frames_affected("frame-drop")
        assert dropped  # seed chosen so something drops
        assert [f.index for f in out] == [
            f.index for f in frames if f.index not in dropped
        ]

    def test_higher_intensity_drops_superset(self, frames):
        def dropped_at(intensity):
            schedule = FaultSchedule()
            FrameDropInjector(intensity).inject(
                frames, np.random.default_rng(7), schedule
            )
            return set(schedule.frames_affected())

        low, high = dropped_at(0.2), dropped_at(0.8)
        assert low <= high  # common random numbers: damage only grows

    def test_full_intensity_drops_everything(self, frames):
        out = FrameDropInjector(1.0).inject(
            frames, np.random.default_rng(0), FaultSchedule()
        )
        assert out == []


class TestScanlineCorruption:
    def test_burst_confined_to_recorded_rows(self, frames):
        schedule = FaultSchedule()
        out = ScanlineCorruptionInjector(0.6).inject(
            frames, np.random.default_rng(3), schedule
        )
        events = {e.frame_index: e for e in schedule.events}
        assert events
        for before, after in zip(frames, out):
            changed = np.flatnonzero(
                np.any(before.pixels != after.pixels, axis=(1, 2))
            )
            if before.index not in events:
                assert changed.size == 0
                continue
            burst = int(events[before.index].magnitude)
            assert changed.size > 0
            assert changed.max() - changed.min() + 1 <= burst

    def test_timing_metadata_untouched(self, frames):
        out = ScanlineCorruptionInjector(1.0).inject(
            frames, np.random.default_rng(3), FaultSchedule()
        )
        assert [f.start_time for f in out] == [f.start_time for f in frames]
        assert [f.index for f in out] == [f.index for f in frames]


class TestOcclusion:
    def test_blocked_rows_go_dark_and_stay_put(self, frames):
        schedule = FaultSchedule()
        out = OcclusionInjector(0.5).inject(
            frames, np.random.default_rng(11), schedule
        )
        assert len(schedule.events) == len(frames)
        spans = set()
        for before, after, event in zip(frames, out, schedule.events):
            dark = np.all(
                after.pixels == OcclusionInjector.blocked_level, axis=(1, 2)
            )
            changed = np.any(before.pixels != after.pixels, axis=(1, 2))
            assert dark[changed].all()
            spans.add((int(np.flatnonzero(dark).min()), int(np.flatnonzero(dark).max())))
        assert len(spans) == 1  # a static occluder: same rows every frame

    def test_cover_grows_with_intensity(self, frames):
        def covered(intensity):
            schedule = FaultSchedule()
            OcclusionInjector(intensity).inject(
                frames, np.random.default_rng(11), schedule
            )
            return schedule.events[0].magnitude

        assert covered(0.2) < covered(0.6) < covered(1.0)


class TestSaturation:
    def test_spiked_frames_are_clipped_scaling(self, frames):
        schedule = FaultSchedule()
        out = SaturationInjector(0.6).inject(
            frames, np.random.default_rng(9), schedule
        )
        spiked = set(schedule.frames_affected("saturation"))
        assert spiked and len(spiked) < len(frames)
        for before, after in zip(frames, out):
            if before.index in spiked:
                expected = np.clip(
                    before.pixels.astype(np.float64) * SaturationInjector.spike_gain,
                    0,
                    255,
                ).astype(np.uint8)
                assert np.array_equal(after.pixels, expected)
            else:
                assert np.array_equal(after.pixels, before.pixels)


class TestTimingJitter:
    def test_only_timestamps_move(self, frames):
        schedule = FaultSchedule()
        out = TimingJitterInjector(1.0).inject(
            frames, np.random.default_rng(2), schedule
        )
        assert len(schedule.events) == len(frames)
        for before, after, event in zip(frames, out, schedule.events):
            assert np.array_equal(after.pixels, before.pixels)
            assert after.start_time == pytest.approx(
                before.start_time + event.magnitude
            )
        assert any(abs(e.magnitude) > 0 for e in schedule.events)

    def test_drift_scales_linearly_with_intensity(self, frames):
        def drifts(intensity):
            schedule = FaultSchedule()
            TimingJitterInjector(intensity).inject(
                frames, np.random.default_rng(2), schedule
            )
            return np.array([e.magnitude for e in schedule.events])

        # Same random walk, scaled: common random numbers across the sweep.
        assert drifts(1.0) == pytest.approx(2 * drifts(0.5))


class TestRegistryAndSpecs:
    def test_registry_names_round_trip(self):
        for name in FAULT_REGISTRY:
            injector = make_injector(name, 0.25)
            assert injector.name == name
            assert injector.intensity == 0.25

    def test_unknown_name_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault injector"):
            make_injector("cosmic-rays", 0.5)

    def test_parse_spec(self):
        injector = parse_fault_spec("frame-drop:0.3")
        assert isinstance(injector, FrameDropInjector)
        assert injector.intensity == 0.3

    @pytest.mark.parametrize(
        "spec", ["frame-drop", "frame-drop:", ":0.3", "frame-drop:lots", "x:2.0"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FaultInjectionError):
            parse_fault_spec(spec)

    def test_parse_specs_preserves_order(self):
        injectors = parse_fault_specs(["occlusion:0.1", "saturation:0.2"])
        assert [i.name for i in injectors] == ["occlusion", "saturation"]

    def test_parse_specs_none_is_empty(self):
        assert parse_fault_specs(None) == ()


class TestSchedule:
    def test_summary_and_counts(self, frames):
        schedule = FaultSchedule()
        FrameDropInjector(0.5).inject(frames, np.random.default_rng(7), schedule)
        OcclusionInjector(0.5).inject(frames, np.random.default_rng(7), schedule)
        counts = schedule.counts_by_injector()
        assert set(counts) == {"frame-drop", "occlusion"}
        assert "frame-drop" in schedule.summary()
        occlusions = [e for e in schedule.events if e.injector == "occlusion"]
        assert len(occlusions) == len(frames)

    def test_empty_summary(self):
        assert FaultSchedule().summary() == "no faults injected"


class TestDrift:
    def _gains(self, schedule):
        return [e.magnitude for e in schedule.events if e.injector == "drift"]

    def test_gain_fades_monotonically_to_the_ramp_floor(self):
        frames = make_frames(count=20)
        schedule = FaultSchedule()
        DriftInjector(1.0).inject(frames, np.random.default_rng(5), schedule)
        gains = self._gains(schedule)
        assert len(gains) == len(frames)
        # The linear fade dominates the 2% ripple: monotone down, landing
        # at 1 - max_gain_fade by the final frame.
        assert gains[0] == pytest.approx(1.0, abs=0.1)
        assert gains[-1] == pytest.approx(1.0 - DriftInjector.max_gain_fade, abs=0.1)
        assert all(b < a + 0.05 for a, b in zip(gains, gains[1:]))

    def test_ambient_ramp_lights_up_dark_frames(self):
        frames = [
            CapturedFrame(
                index=i,
                pixels=np.zeros((ROWS, COLS, 3), dtype=np.uint8),
                start_time=i * FRAME_PERIOD,
                row_period=1e-4,
                exposure=ExposureSettings(exposure_s=1e-3, iso=100.0),
            )
            for i in range(5)
        ]
        out = DriftInjector(1.0).inject(
            frames, np.random.default_rng(5), FaultSchedule()
        )
        # Gain multiplies nothing on a black frame; only the additive warm
        # ambient cast shows, ramping from zero to the full level.
        assert np.all(out[0].pixels == 0)
        final = out[-1].pixels.astype(np.float64).mean(axis=(0, 1))
        expected = DriftInjector.max_ambient_level * np.asarray(
            DriftInjector.ambient_rgb
        )
        assert np.allclose(final, expected, atol=1.0)
        # Warm cast: red above green above blue.
        assert final[0] > final[1] > final[2]

    def test_higher_intensity_fades_deeper(self, frames):
        shallow, deep = FaultSchedule(), FaultSchedule()
        DriftInjector(0.3).inject(frames, np.random.default_rng(5), shallow)
        DriftInjector(1.0).inject(frames, np.random.default_rng(5), deep)
        assert self._gains(deep)[-1] < self._gains(shallow)[-1]

    def test_every_frame_recorded_and_geometry_preserved(self, frames):
        schedule = FaultSchedule()
        out = DriftInjector(0.5).inject(
            frames, np.random.default_rng(5), schedule
        )
        assert len(out) == len(frames)
        assert sorted(schedule.frames_affected("drift")) == [
            frame.index for frame in frames
        ]
        for before, after in zip(frames, out):
            assert after.pixels.shape == before.pixels.shape
            assert after.start_time == before.start_time
