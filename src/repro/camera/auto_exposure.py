"""Automatic exposure / ISO control (paper §6.2).

Phone cameras continuously retune exposure time and ISO to the ambient
conditions; the paper shows the same transmitted color being received
differently as those parameters move (Figs 6b/6c), and deliberately leaves
both on automatic during evaluation "as it happens in most practical
scenarios".  This controller reproduces that behaviour: a proportional
controller steering mean frame luminance toward a target, with bounded
actuator ranges, preference for short exposures (bright scene), and a small
random drift so consecutive frames are never parameter-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import CameraError


@dataclass(frozen=True)
class ExposureSettings:
    """The two knobs AE controls, as the paper's Figs 6(b)/6(c) sweep them."""

    exposure_s: float
    iso: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.exposure_s) and self.exposure_s > 0):
            raise CameraError(
                f"exposure_s must be positive and finite, got {self.exposure_s}"
            )
        if not (math.isfinite(self.iso) and self.iso > 0):
            raise CameraError(f"iso must be positive and finite, got {self.iso}")

    def gain(self, reference_iso: float = 100.0) -> float:
        """Combined radiometric gain relative to 1 s at the reference ISO."""
        return self.exposure_s * (self.iso / reference_iso)


@dataclass
class AutoExposure:
    """Bounded proportional AE controller with per-frame drift.

    ``target_level`` is the desired mean linear signal of the frame (phone
    AEs aim for mid-gray); ``adapt_rate`` is the per-frame proportional step;
    ``drift_sigma`` the lognormal per-frame wander that keeps the channel
    non-stationary (what periodic recalibration compensates).
    """

    min_exposure_s: float = 1.0 / 8000.0
    max_exposure_s: float = 1.0 / 120.0
    min_iso: float = 100.0
    max_iso: float = 1600.0
    target_level: float = 0.45
    adapt_rate: float = 0.5
    drift_sigma: float = 0.01
    locked: bool = False

    def __post_init__(self) -> None:
        if self.min_exposure_s <= 0 or self.max_exposure_s <= self.min_exposure_s:
            raise CameraError("exposure bounds must satisfy 0 < min < max")
        if self.min_iso <= 0 or self.max_iso <= self.min_iso:
            raise CameraError("iso bounds must satisfy 0 < min < max")
        if not 0 < self.target_level < 1:
            raise CameraError(
                f"target_level must be in (0, 1), got {self.target_level}"
            )
        if not 0 <= self.adapt_rate <= 1:
            raise CameraError(f"adapt_rate must be in [0, 1], got {self.adapt_rate}")
        if self.drift_sigma < 0:
            raise CameraError("drift_sigma must be >= 0")
        self._settings = ExposureSettings(self.min_exposure_s, self.min_iso)

    @property
    def settings(self) -> ExposureSettings:
        """Settings the next frame will be captured with."""
        return self._settings

    def lock(self, settings: Optional[ExposureSettings] = None) -> None:
        """Freeze AE (manual mode), optionally at explicit settings."""
        if settings is not None:
            self._settings = settings
        self.locked = True

    def observe_frame(
        self, mean_linear_level: float, rng: np.random.Generator
    ) -> ExposureSettings:
        """Feed back the captured frame's mean level; returns next settings.

        The controller multiplies total gain by ``(target / observed) ^ rate``
        (clamped), preferring exposure-time changes and touching ISO only
        when exposure saturates its bounds — the strategy phone AEs follow to
        keep noise low.
        """
        if mean_linear_level < 0:
            raise CameraError("mean_linear_level must be >= 0")
        if self.locked:
            return self._settings
        drift = (
            float(rng.normal(0.0, self.drift_sigma))
            if self.drift_sigma > 0
            else 0.0
        )
        return self.step(mean_linear_level, drift)

    def step(self, mean_linear_level: float, drift_normal: float) -> ExposureSettings:
        """Advance the controller one frame with a pre-drawn drift normal.

        The vectorized capture prologue (:mod:`repro.camera.capture`) draws
        all drift normals for a recording up front and feeds them here one
        frame at a time; :meth:`observe_frame` is the draw-then-step wrapper
        for single-frame capture.  Callers are responsible for the ``locked``
        check — a locked controller must not be stepped.
        """
        if mean_linear_level < 0:
            raise CameraError("mean_linear_level must be >= 0")
        observed = max(mean_linear_level, 1e-4)
        correction = (self.target_level / observed) ** self.adapt_rate
        correction = float(np.clip(correction, 0.25, 4.0))
        if self.drift_sigma > 0:
            correction *= float(np.exp(drift_normal))

        desired_gain = self._settings.gain() * correction
        # Allocate to exposure first at base ISO.
        exposure = desired_gain / (self.min_iso / 100.0)
        exposure = float(np.clip(exposure, self.min_exposure_s, self.max_exposure_s))
        residual = desired_gain / (exposure * (self.min_iso / 100.0))
        iso = float(np.clip(self.min_iso * residual, self.min_iso, self.max_iso))
        self._settings = ExposureSettings(exposure, iso)
        return self._settings
