"""CIE color science substrate.

ColorBars modulates data as chromaticity points in the CIE 1931 xy diagram
(transmitter side) and demodulates in CIELab's ab-plane (receiver side).
This package implements the full conversion chain used by both ends:

``xy + Y  <->  XYZ  <->  linear RGB  <->  sRGB``  and  ``XYZ -> CIELab``

plus the color-difference metrics (ΔE) and the gamut-triangle geometry used
for constellation design.
"""

from repro.color.chromaticity import (
    ChromaticityPoint,
    GamutTriangle,
    barycentric_coordinates,
)
from repro.color.cielab import (
    lab_to_xyz,
    xyz_to_lab,
)
from repro.color.ciexyz import (
    xyY_to_XYZ,
    XYZ_to_xy,
    XYZ_to_xyY,
    xy_to_XYZ,
)
from repro.color.illuminants import (
    ILLUMINANT_D65,
    ILLUMINANT_E,
    WhitePoint,
)
from repro.color.srgb import (
    linear_to_srgb,
    srgb_to_linear,
    xyz_to_srgb,
)

__all__ = [
    "ChromaticityPoint",
    "GamutTriangle",
    "barycentric_coordinates",
    "lab_to_xyz",
    "xyz_to_lab",
    "xyY_to_XYZ",
    "XYZ_to_xy",
    "XYZ_to_xyY",
    "xy_to_XYZ",
    "ILLUMINANT_D65",
    "ILLUMINANT_E",
    "WhitePoint",
    "linear_to_srgb",
    "srgb_to_linear",
    "xyz_to_srgb",
]
