"""Captured-frame container with the timing metadata the receiver relies on.

A rolling-shutter frame is more than pixels: each scanline was exposed in a
known time window, and the gap before the next frame is where symbols are
lost (paper §5).  :class:`CapturedFrame` carries both, so the receiver can
translate band row-spans into on-air time and compute how many symbols each
inter-frame gap swallowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.camera.auto_exposure import ExposureSettings
from repro.exceptions import CameraError


@dataclass(frozen=True)
class CapturedFrame:
    """One frame: 8-bit sRGB pixels plus rolling-shutter timing metadata."""

    index: int
    pixels: np.ndarray
    start_time: float
    row_period: float
    exposure: ExposureSettings

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels)
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise CameraError(
                f"pixels must be (rows, cols, 3), got {pixels.shape}"
            )
        if pixels.dtype != np.uint8:
            raise CameraError(f"pixels must be uint8, got {pixels.dtype}")
        if pixels.shape[1] == 0:
            raise CameraError("a frame needs at least one column")
        if not math.isfinite(self.start_time):
            raise CameraError(f"start_time must be finite, got {self.start_time}")
        if not (math.isfinite(self.row_period) and self.row_period > 0):
            raise CameraError(
                f"row_period must be positive and finite, got {self.row_period}"
            )
        object.__setattr__(self, "pixels", pixels)

    @property
    def rows(self) -> int:
        return self.pixels.shape[0]

    @property
    def cols(self) -> int:
        return self.pixels.shape[1]

    @property
    def readout_duration(self) -> float:
        """Time from the first row's exposure start to the last row's."""
        return self.rows * self.row_period
