"""The built-in fault injectors and the name registry behind ``--fault``.

Each injector models one impairment class real LED-to-camera links exhibit
(occlusion, saturation, exposure spikes, dropped/corrupted frames, clock
drift, slow channel drift) as a seeded generator over the captured frames.
See :mod:`repro.faults.base` for the two contract rules every injector obeys
(zero-is-a-no-op, fixed per-frame random budget).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, Sequence, Tuple, Type

import numpy as np

from repro.camera.frame import CapturedFrame
from repro.exceptions import FaultInjectionError
from repro.faults.base import FaultInjector, FaultSchedule


class FrameDropInjector(FaultInjector):
    """Whole frames vanish from the recording (camera-stack drops).

    ``intensity`` is the per-frame drop probability.  Dropped frames simply
    never reach the receiver: the assembler sees a wider inter-frame gap and
    turns the missing symbols into known-position erasures.
    """

    name = "frame-drop"

    def _stream(
        self,
        frames: Sequence[CapturedFrame],
        rng: np.random.Generator,
        schedule: FaultSchedule,
    ) -> Iterator[CapturedFrame]:
        draws = rng.random(len(frames))
        for frame, draw in zip(frames, draws):
            if draw < self.intensity:
                schedule.record(self.name, frame.index, 1.0, "frame dropped")
            else:
                yield frame


class ScanlineCorruptionInjector(FaultInjector):
    """A burst of torn rows: contiguous scanlines replaced by sensor garbage.

    ``intensity`` scales the burst length; up to half of a frame's rows are
    replaced with uniform noise at full intensity.  The burst position and a
    per-frame length factor come from the fixed random budget, so sweeps at
    different intensities tear the same frames at the same rows.
    """

    name = "scanline-corruption"

    #: Fraction of a frame's rows the burst may reach at intensity 1.0.
    max_burst_fraction = 0.5

    def _stream(
        self,
        frames: Sequence[CapturedFrame],
        rng: np.random.Generator,
        schedule: FaultSchedule,
    ) -> Iterator[CapturedFrame]:
        # Fixed budget first (intensity-independent), noise content after.
        budget = rng.random((len(frames), 2))
        for frame, (start_draw, length_draw) in zip(frames, budget):
            burst = int(
                round(
                    frame.rows
                    * self.max_burst_fraction
                    * self.intensity
                    * (0.5 + 0.5 * length_draw)
                )
            )
            if burst <= 0:
                yield frame
                continue
            start = int(start_draw * (frame.rows - burst))
            pixels = frame.pixels.copy()
            noise = rng.integers(
                0, 256, size=(burst,) + frame.pixels.shape[1:], dtype=np.int64
            )
            pixels[start : start + burst] = noise.astype(np.uint8)
            schedule.record(
                self.name,
                frame.index,
                float(burst),
                f"rows {start}..{start + burst - 1} torn",
            )
            yield replace(frame, pixels=pixels)


class OcclusionInjector(FaultInjector):
    """A static occluder blocks part of the band region in every frame.

    ``intensity`` is (proportional to) the fraction of rows blocked: the
    occluded scanlines go dark, demodulate as OFF, and become in-body
    erasures at known positions.  The occluder position is drawn once and
    held, as a real obstruction would be.
    """

    name = "occlusion"

    #: Fraction of the frame occluded at intensity 1.0.
    max_cover_fraction = 0.6
    #: 8-bit value occluded pixels take (dark, below any OFF threshold).
    blocked_level = 2

    def _stream(
        self,
        frames: Sequence[CapturedFrame],
        rng: np.random.Generator,
        schedule: FaultSchedule,
    ) -> Iterator[CapturedFrame]:
        center_draw = float(rng.random())
        for frame in frames:
            cover = int(round(frame.rows * self.max_cover_fraction * self.intensity))
            if cover <= 0:
                yield frame
                continue
            center = center_draw * frame.rows
            start = int(np.clip(center - cover / 2, 0, frame.rows - cover))
            pixels = frame.pixels.copy()
            pixels[start : start + cover] = self.blocked_level
            schedule.record(
                self.name,
                frame.index,
                cover / frame.rows,
                f"rows {start}..{start + cover - 1} occluded",
            )
            yield replace(frame, pixels=pixels)


class SaturationInjector(FaultInjector):
    """Exposure spikes: some frames are captured hot and clip to white.

    ``intensity`` is the per-frame spike probability; a spiked frame's
    pixels are scaled by a fixed hot gain and clipped, washing chroma out of
    the highlights so colored bands collapse toward white.
    """

    name = "saturation"

    #: Radiometric gain applied to a spiked frame before clipping.
    spike_gain = 2.5

    def _stream(
        self,
        frames: Sequence[CapturedFrame],
        rng: np.random.Generator,
        schedule: FaultSchedule,
    ) -> Iterator[CapturedFrame]:
        draws = rng.random(len(frames))
        for frame, draw in zip(frames, draws):
            if draw >= self.intensity:
                yield frame
                continue
            hot = np.clip(
                frame.pixels.astype(np.float64) * self.spike_gain, 0, 255
            ).astype(np.uint8)
            clipped = float(np.mean(hot == 255))
            schedule.record(
                self.name,
                frame.index,
                self.spike_gain,
                f"exposure spike x{self.spike_gain} ({clipped:.0%} clipped)",
            )
            yield replace(frame, pixels=hot)


class TimingJitterInjector(FaultInjector):
    """Readout clock drift: frame timestamps random-walk away from truth.

    ``intensity`` scales the per-frame drift step (a zero-mean random walk,
    up to ``max_step_s`` std per frame at intensity 1.0).  The pixels are
    untouched — only the frame's claimed ``start_time`` moves — so the
    receiver's band clock slowly disagrees with what is actually on air,
    corrupting slot indexing once the accumulated drift approaches a symbol
    period.
    """

    name = "timing-jitter"

    #: Per-frame drift-step standard deviation at intensity 1.0, seconds.
    max_step_s = 4e-4

    def _stream(
        self,
        frames: Sequence[CapturedFrame],
        rng: np.random.Generator,
        schedule: FaultSchedule,
    ) -> Iterator[CapturedFrame]:
        steps = rng.normal(0.0, 1.0, size=len(frames))
        drift = np.cumsum(steps) * self.max_step_s * self.intensity
        for frame, offset in zip(frames, drift):
            schedule.record(
                self.name,
                frame.index,
                float(offset),
                f"start_time shifted {offset * 1e3:+.3f} ms",
            )
            yield replace(frame, start_time=frame.start_time + float(offset))


class DriftInjector(FaultInjector):
    """Slow channel drift: a multiplicative gain fade plus an ambient ramp.

    Models the time-varying channel of a walk-away-while-the-lights-come-up
    scenario: the LED's apparent gain fades linearly over the recording
    (inverse-square loss as distance grows) while a warm ambient level ramps
    up, washing chroma out of the bands.  ``intensity`` scales the depth of
    both ramps; the ramp itself is a deterministic function of frame
    position, with a small per-frame gain ripple drawn from the fixed random
    budget so two intensities wobble the same frames the same way (common
    random numbers).  This is the impairment the link-adaptation controller
    (:mod:`repro.link.adapt`) is built to survive.
    """

    name = "drift"

    #: Fraction of gain lost by the final frame at intensity 1.0.
    max_gain_fade = 0.7
    #: 8-bit counts of ambient light added by the final frame at intensity 1.0.
    max_ambient_level = 80.0
    #: Relative channel weights of the ambient cast (warm indoor light).
    ambient_rgb = (1.0, 0.93, 0.82)
    #: Std of the per-frame multiplicative gain ripple at intensity 1.0.
    gain_ripple = 0.02

    def _stream(
        self,
        frames: Sequence[CapturedFrame],
        rng: np.random.Generator,
        schedule: FaultSchedule,
    ) -> Iterator[CapturedFrame]:
        # Fixed budget first (intensity-independent), then deterministic
        # scaling: the ramp depth moves with intensity, the ripple pattern
        # does not.
        ripple = rng.normal(0.0, 1.0, size=len(frames))
        span = max(len(frames) - 1, 1)
        cast = np.asarray(self.ambient_rgb, dtype=np.float64)
        for position, (frame, wobble) in enumerate(zip(frames, ripple)):
            progress = position / span
            gain = 1.0 - self.max_gain_fade * self.intensity * progress
            gain *= 1.0 + self.gain_ripple * self.intensity * wobble
            gain = float(np.clip(gain, 0.05, 1.0))
            ambient = self.max_ambient_level * self.intensity * progress
            pixels = frame.pixels.astype(np.float64) * gain + ambient * cast
            pixels = np.clip(pixels, 0, 255).astype(np.uint8)
            schedule.record(
                self.name,
                frame.index,
                gain,
                f"gain x{gain:.3f}, ambient +{ambient:.1f}",
            )
            yield replace(frame, pixels=pixels)


#: Canonical name -> injector class, the vocabulary of ``--fault NAME:INTENSITY``.
FAULT_REGISTRY: Dict[str, Type[FaultInjector]] = {
    injector.name: injector
    for injector in (
        FrameDropInjector,
        ScanlineCorruptionInjector,
        OcclusionInjector,
        SaturationInjector,
        TimingJitterInjector,
        DriftInjector,
    )
}


def make_injector(name: str, intensity: float) -> FaultInjector:
    """Instantiate a registered injector by its canonical name."""
    try:
        cls = FAULT_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(FAULT_REGISTRY))
        raise FaultInjectionError(
            f"unknown fault injector {name!r}; known injectors: {known}"
        ) from None
    return cls(intensity)


def parse_fault_spec(spec: str) -> FaultInjector:
    """Parse a ``NAME:INTENSITY`` CLI spec into an injector instance."""
    name, separator, raw_intensity = spec.partition(":")
    if not separator or not name or not raw_intensity:
        raise FaultInjectionError(
            f"fault spec must look like NAME:INTENSITY, got {spec!r}"
        )
    try:
        intensity = float(raw_intensity)
    except ValueError:
        raise FaultInjectionError(
            f"fault intensity must be a number, got {raw_intensity!r} in {spec!r}"
        ) from None
    return make_injector(name.strip(), intensity)


def parse_fault_specs(specs) -> Tuple[FaultInjector, ...]:
    """Parse a sequence of CLI fault specs (order preserved)."""
    return tuple(parse_fault_spec(spec) for spec in specs or ())
