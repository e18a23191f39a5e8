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

    def apply(
        self,
        linear_signal: np.ndarray,
        iso: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Add shot + read noise to a linear image at the given ISO.

        ``linear_signal`` is the pre-saturation linear image in full-well
        units (1.0 = saturation at the reference ISO).  Higher ISO means the
        same output level was produced by fewer photons, so relative noise
        grows with the ISO gain.  The result is clipped to [0, 1]
        (saturation).
        """
        if iso <= 0:
            raise CameraError(f"iso must be positive, got {iso}")
        signal = np.clip(np.asarray(linear_signal, dtype=float), 0.0, None)
        iso_gain = iso / self.reference_iso

        # Photons collected: signal/iso_gain of a full well.
        electrons = signal * self.full_well_electrons / iso_gain
        shot_std = np.sqrt(np.maximum(electrons, 0.0))
        total_std = np.sqrt(shot_std**2 + self.read_noise_electrons**2)
        noisy_electrons = electrons + rng.normal(0.0, 1.0, signal.shape) * total_std

        if self.prnu > 0:
            noisy_electrons = noisy_electrons * (
                1.0 + rng.normal(0.0, self.prnu, signal.shape)
            )

        out = noisy_electrons * iso_gain / self.full_well_electrons
        return np.clip(out, 0.0, 1.0)


def dequantize_8bit(pixels: np.ndarray) -> np.ndarray:
    """uint8 image back to floats in [0, 1] (receiver side)."""
    return np.asarray(pixels, dtype=float) / 255.0
