"""Channel conditions: the optical environment between LED and camera.

The paper evaluates at close range (within ~3 cm of a low-lumen LED) under
indoor ambient light.  :class:`ChannelConditions` parameterizes the optics so
benches can sweep distance and ambient level beyond the paper's operating
point (range analysis is listed as future work in §10; the simulator makes
it explorable).

:class:`ChannelTrajectory` strings conditions into a deterministic
time-varying schedule — distance/ambient steps plus in-segment gain/ambient
drift (the ``drift`` fault injector) — which is what the link-adaptation
subsystem (:mod:`repro.link.adapt`) replays to produce reproducible
adaptive-vs-fixed goodput curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.camera.optics import Optics
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ChannelConditions:
    """Distance and ambient-light setting of a link run."""

    distance_m: float = 0.03
    ambient_luminance: float = 0.5
    vignetting_strength: float = 0.85

    def __post_init__(self) -> None:
        if self.distance_m <= 0:
            raise ConfigurationError(
                f"distance_m must be positive, got {self.distance_m}"
            )
        if self.ambient_luminance < 0:
            raise ConfigurationError(
                f"ambient_luminance must be >= 0, got {self.ambient_luminance}"
            )
        if not 0 <= self.vignetting_strength <= 1:
            raise ConfigurationError(
                "vignetting_strength must be in [0, 1], "
                f"got {self.vignetting_strength}"
            )

    def make_optics(self) -> Optics:
        """The optics model these conditions imply."""
        return Optics(
            vignetting_strength=self.vignetting_strength,
            distance_m=self.distance_m,
            ambient_luminance=self.ambient_luminance,
        )

    @classmethod
    def paper_setup(cls) -> "ChannelConditions":
        """The evaluation setup of §8: phone within 3 cm of the LED."""
        return cls(distance_m=0.03, ambient_luminance=0.5)


@dataclass(frozen=True)
class TrajectorySegment:
    """One piecewise-constant stretch of a time-varying channel.

    ``distance_m``/``ambient_luminance`` set the segment's static optics;
    ``drift_intensity`` additionally runs the ``drift`` fault injector over
    the segment's recording (slow gain fade + ambient ramp), modelling
    continuous in-segment deterioration on top of the step change.
    """

    duration_s: float
    distance_m: float = 0.03
    ambient_luminance: float = 0.5
    drift_intensity: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"segment duration_s must be positive, got {self.duration_s}"
            )
        if not 0 <= self.drift_intensity <= 1:
            raise ConfigurationError(
                f"drift_intensity must be in [0, 1], got {self.drift_intensity}"
            )
        # Delegate distance/ambient validation to ChannelConditions.
        self.conditions()

    def conditions(self) -> ChannelConditions:
        """The static channel conditions of this segment."""
        return ChannelConditions(
            distance_m=self.distance_m,
            ambient_luminance=self.ambient_luminance,
        )


@dataclass(frozen=True)
class ChannelTrajectory:
    """A deterministic schedule of channel conditions over a session.

    Pure data: replaying the same trajectory with the same seed reproduces
    the same recordings byte for byte, which is what makes adaptive-vs-fixed
    goodput comparisons (and the CI adaptation soak) exactly rerunnable.
    """

    segments: Tuple[TrajectorySegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("trajectory must have at least one segment")

    @property
    def total_duration_s(self) -> float:
        return sum(segment.duration_s for segment in self.segments)

    @classmethod
    def drift_demo(cls, segment_s: float = 0.8) -> "ChannelTrajectory":
        """The pinned clean -> degraded -> recovered schedule.

        Used by the ``colorbars adapt`` CLI and the adaptation-smoke CI
        job: two clean segments at the paper's operating point (3 cm), a
        long degraded phase — a distance step to 4 cm plus in-segment
        ``drift`` fading, deep enough to collapse a fixed 32-CSK link's ΔE
        margins (the FEC cliff) while 16-CSK still decodes — then a clean
        recovery tail.  The degraded
        phase is the majority of the schedule on purpose: a fixed fast
        link must lose more there than hysteresis costs the adaptive link
        on the clean flanks.
        """
        clean = dict(distance_m=0.03, ambient_luminance=0.5)
        degraded = dict(
            distance_m=0.040, ambient_luminance=0.5, drift_intensity=0.3
        )
        return cls(
            segments=(
                tuple(
                    TrajectorySegment(duration_s=segment_s, **clean)
                    for _ in range(2)
                )
                + tuple(
                    TrajectorySegment(duration_s=segment_s, **degraded)
                    for _ in range(8)
                )
                + tuple(
                    TrajectorySegment(duration_s=segment_s, **clean)
                    for _ in range(4)
                )
            )
        )
