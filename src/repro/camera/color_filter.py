"""Per-device color response — the receiver-diversity substrate (paper §6.1).

Real phone cameras differ in color-filter spectral curves, their arrangement
and the ISP's demosaic/correction chain, so the same emitted chromaticity is
reported as different RGB by different devices (Fig 6a).  We model the net
effect as a device-specific 3x3 matrix acting on the scene's linear sRGB
representation plus white-balance gains: a compact stand-in for
filter-spectrum x correction-matrix products that preserves the property the
paper's calibration mechanism targets — a *consistent, device-dependent*
chroma displacement that the receiver cannot predict a priori.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.color.srgb import xyz_to_linear_rgb
from repro.exceptions import CameraError


@dataclass(frozen=True)
class ColorResponse:
    """A device's scene-XYZ -> camera linear-RGB behaviour.

    ``matrix`` mixes channels (crosstalk left uncorrected by the ISP);
    ``white_balance`` applies per-channel gains.  ``fidelity`` in [0, 1]
    blends the device matrix toward the identity: 1 is a colorimetrically
    perfect camera.  The iPhone 5S preset uses higher fidelity than the
    Nexus 5 preset, reproducing the paper's observation that the iPhone
    "better captures the true color".
    """

    name: str
    matrix: np.ndarray
    white_balance: np.ndarray = field(
        default_factory=lambda: np.ones(3)
    )
    fidelity: float = 1.0

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (3, 3):
            raise CameraError(f"color matrix must be 3x3, got {matrix.shape}")
        wb = np.asarray(self.white_balance, dtype=float)
        if wb.shape != (3,):
            raise CameraError(f"white balance must have 3 gains, got {wb.shape}")
        if not 0.0 <= self.fidelity <= 1.0:
            raise CameraError(f"fidelity must be in [0, 1], got {self.fidelity}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "white_balance", wb)

    @property
    def effective_matrix(self) -> np.ndarray:
        """The fidelity-blended channel-mixing matrix including white balance."""
        blended = (
            self.fidelity * np.eye(3) + (1.0 - self.fidelity) * self.matrix
        )
        return np.diag(self.white_balance) @ blended

    def scene_xyz_to_camera_linear(self, xyz: np.ndarray) -> np.ndarray:
        """Scene XYZ -> the device's linear RGB (pre-noise, pre-gamma).

        Accepts ``(..., 3)`` arrays.  Values may exceed [0, 1]; exposure
        scaling and saturation are applied later by the sensor model.
        """
        xyz = np.asarray(xyz, dtype=float)
        ideal = xyz_to_linear_rgb(xyz)
        return ideal @ self.effective_matrix.T


def perturbed_response(
    name: str,
    crosstalk: float,
    hue_skew: float = 0.0,
    white_balance_error: float = 0.0,
    fidelity: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> ColorResponse:
    """Construct a plausible device response from interpretable knobs.

    ``crosstalk`` leaks each channel into its neighbours (filter overlap);
    ``hue_skew`` rotates red/blue response asymmetrically (filter passband
    shift); ``white_balance_error`` detunes per-channel gains.  With an
    ``rng`` the perturbations are randomized around the given magnitudes —
    useful for generating populations of synthetic devices; without one the
    construction is deterministic.
    """
    if not 0 <= crosstalk < 0.5:
        raise CameraError(f"crosstalk must be in [0, 0.5), got {crosstalk}")
    if rng is None:
        signs = np.array([1.0, -1.0, 1.0])
        jitter = np.ones(3)
    else:
        signs = rng.choice([-1.0, 1.0], size=3)
        jitter = 1.0 + 0.3 * (rng.random(3) - 0.5)

    c = crosstalk
    matrix = np.array(
        [
            [1.0 - 2 * c, c * (1 + hue_skew), c * (1 - hue_skew)],
            [c, 1.0 - 2 * c, c],
            [c * (1 - hue_skew), c * (1 + hue_skew), 1.0 - 2 * c],
        ]
    )
    wb = 1.0 + white_balance_error * signs * jitter
    return ColorResponse(
        name=name, matrix=matrix, white_balance=wb, fidelity=fidelity
    )
