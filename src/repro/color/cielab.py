"""CIELab conversion and the just-noticeable color difference.

The ColorBars receiver converts every frame to CIELab and drops the lightness
channel, matching symbols by Euclidean distance in the ab-plane with the
just-noticeable-difference threshold ΔE ≈ 2.3 (paper §7).
"""

from __future__ import annotations

import numpy as np

from repro.color.illuminants import ILLUMINANT_D65, WhitePoint

#: ΔE at which two colors become distinguishable to a human observer, and the
#: matching threshold used by the ColorBars demodulator.
JND_DELTA_E = 2.3

_DELTA = 6.0 / 29.0
_DELTA_CUBED = _DELTA**3


def _f(t: np.ndarray) -> np.ndarray:
    """The CIELab compression function (cube root with a linear toe)."""
    return np.where(t > _DELTA_CUBED, np.cbrt(t), t / (3 * _DELTA**2) + 4.0 / 29.0)


def _f_inverse(t: np.ndarray) -> np.ndarray:
    return np.where(t > _DELTA, t**3, 3 * _DELTA**2 * (t - 4.0 / 29.0))


def xyz_to_lab(xyz: np.ndarray, white: WhitePoint = ILLUMINANT_D65) -> np.ndarray:
    """Convert XYZ to CIELab relative to ``white`` (default D65).

    Accepts ``(..., 3)`` arrays; returns the same shape with channels
    ``(L, a, b)``.
    """
    xyz = np.asarray(xyz, dtype=float)
    ratios = xyz / white.XYZ
    fx = _f(ratios[..., 0])
    fy = _f(ratios[..., 1])
    fz = _f(ratios[..., 2])
    L = 116.0 * fy - 16.0
    a = 500.0 * (fx - fy)
    b = 200.0 * (fy - fz)
    return np.stack([L, a, b], axis=-1)


def lab_to_xyz(lab: np.ndarray, white: WhitePoint = ILLUMINANT_D65) -> np.ndarray:
    """Convert CIELab back to XYZ relative to ``white``."""
    lab = np.asarray(lab, dtype=float)
    fy = (lab[..., 0] + 16.0) / 116.0
    fx = fy + lab[..., 1] / 500.0
    fz = fy - lab[..., 2] / 200.0
    xyz = np.stack([_f_inverse(fx), _f_inverse(fy), _f_inverse(fz)], axis=-1)
    return xyz * white.XYZ
