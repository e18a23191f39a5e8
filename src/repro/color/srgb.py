"""sRGB <-> linear RGB <-> XYZ conversions.

The camera simulator produces linear sensor RGB which is gamma-encoded into
sRGB frames (what a phone's image pipeline hands to the app); the receiver
reverses the chain on its way to CIELab.  Matrices are the IEC 61966-2-1
sRGB/D65 primaries.
"""

from __future__ import annotations

import numpy as np

#: Linear RGB -> XYZ for sRGB primaries, D65 white.
SRGB_TO_XYZ_MATRIX = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)

#: XYZ -> linear RGB; the inverse of :data:`SRGB_TO_XYZ_MATRIX`.
XYZ_TO_SRGB_MATRIX = np.linalg.inv(SRGB_TO_XYZ_MATRIX)


def srgb_to_linear(srgb: np.ndarray) -> np.ndarray:
    """Decode gamma: sRGB values in [0, 1] to linear-light RGB."""
    srgb = np.asarray(srgb, dtype=float)
    low = srgb <= 0.04045
    return np.where(low, srgb / 12.92, ((srgb + 0.055) / 1.055) ** 2.4)


def _byte_to_linear_table() -> np.ndarray:
    table = srgb_to_linear(np.arange(256) / 255.0)
    table.flags.writeable = False
    return table


#: ``SRGB_BYTE_TO_LINEAR[byte]`` == ``srgb_to_linear(byte / 255.0)`` exactly:
#: an 8-bit sRGB image has only 256 distinct channel values, so the receive
#: path decodes gamma by table lookup instead of evaluating the power law
#: per pixel — bitwise-identical by construction.
SRGB_BYTE_TO_LINEAR = _byte_to_linear_table()


def linear_to_srgb(linear: np.ndarray) -> np.ndarray:
    """Encode gamma: linear-light RGB to sRGB in [0, 1].

    Inputs are clipped to [0, 1] first — the camera pipeline saturates rather
    than producing out-of-range pixel values.
    """
    linear = np.clip(np.asarray(linear, dtype=float), 0.0, 1.0)
    low = linear <= 0.0031308
    return np.where(low, linear * 12.92, 1.055 * np.power(linear, 1.0 / 2.4) - 0.055)


def linear_rgb_to_xyz(rgb: np.ndarray) -> np.ndarray:
    """Linear sRGB-primary RGB to CIE XYZ."""
    rgb = np.asarray(rgb, dtype=float)
    return rgb @ SRGB_TO_XYZ_MATRIX.T


def xyz_to_linear_rgb(xyz: np.ndarray) -> np.ndarray:
    """CIE XYZ to linear sRGB-primary RGB (may be out of [0,1] gamut)."""
    xyz = np.asarray(xyz, dtype=float)
    return xyz @ XYZ_TO_SRGB_MATRIX.T


def xyz_to_srgb(xyz: np.ndarray) -> np.ndarray:
    """CIE XYZ to gamma-encoded sRGB, clipped into [0, 1]."""
    return linear_to_srgb(xyz_to_linear_rgb(xyz))
