"""Sensor noise model: shot noise, read noise, ISO gain, quantization.

A CMOS pixel's photon count follows Poisson statistics; at the signal levels
of a bright LED the Gaussian approximation with variance proportional to the
signal is accurate and fast.  ISO amplifies signal and noise together, which
is why Fig 6(c) shows the perceived color wandering at high ISO.  Output
quantization to 8 bits happens after gamma encoding in the sensor pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import CameraError


@dataclass(frozen=True)
class SensorNoise:
    """Noise parameters of a camera sensor.

    ``full_well_electrons`` sets the shot-noise scale: a linear signal of 1.0
    corresponds to a full well, whose SNR is ``sqrt(full_well)``.
    ``read_noise_electrons`` is the signal-independent floor.  ``prnu``
    (photo-response non-uniformity) is a fixed-pattern per-pixel gain spread,
    expressed as a fraction.
    """

    full_well_electrons: float = 5000.0
    read_noise_electrons: float = 6.0
    prnu: float = 0.01
    reference_iso: float = 100.0
    row_noise: float = 0.03

    def __post_init__(self) -> None:
        if self.full_well_electrons <= 0:
            raise CameraError("full_well_electrons must be positive")
        if self.read_noise_electrons < 0:
            raise CameraError("read_noise_electrons must be >= 0")
        if not 0 <= self.prnu < 0.2:
            raise CameraError(f"prnu must be in [0, 0.2), got {self.prnu}")
        if self.reference_iso <= 0:
            raise CameraError("reference_iso must be positive")
        if not 0 <= self.row_noise < 0.5:
            raise CameraError(f"row_noise must be in [0, 0.5), got {self.row_noise}")


def dequantize_8bit(pixels: np.ndarray) -> np.ndarray:
    """uint8 image back to floats in [0, 1] (receiver side)."""
    return np.asarray(pixels, dtype=float) / 255.0
