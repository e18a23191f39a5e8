"""Lens/scene optics: vignetting, distance attenuation, ambient light.

Fig 8(a) of the paper shows the received frame is brighter at the center
than at the periphery; that non-uniform brightness is the reason the
receiver demodulates in CIELab's ab-plane instead of RGB.  The standard
cos^4 vignetting law reproduces it.  Distance attenuation and additive
ambient light complete the link-budget model (the paper operates within
~3 cm of a low-lumen LED).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.color.ciexyz import xy_to_XYZ
from repro.color.illuminants import ILLUMINANT_A
from repro.exceptions import CameraError


@dataclass(frozen=True)
class Optics:
    """Optical path between the LED and the sensor.

    ``vignetting_strength`` in [0, 1] scales the corner falloff (0 disables);
    ``field_angle_rad`` is the half field-of-view reaching the frame corner;
    ``distance_m`` attenuates irradiance by the inverse-square law relative
    to ``reference_distance_m``; ``ambient_luminance`` adds a constant
    incandescent-ish background (illuminant A chromaticity).
    """

    vignetting_strength: float = 0.85
    field_angle_rad: float = 0.35
    distance_m: float = 0.03
    reference_distance_m: float = 0.03
    ambient_luminance: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.vignetting_strength <= 1.0:
            raise CameraError(
                f"vignetting_strength must be in [0, 1], "
                f"got {self.vignetting_strength}"
            )
        if self.distance_m <= 0 or self.reference_distance_m <= 0:
            raise CameraError("distances must be positive")
        if self.ambient_luminance < 0:
            raise CameraError("ambient_luminance must be >= 0")

    def distance_gain(self) -> float:
        """Inverse-square irradiance factor relative to the reference range."""
        ratio = self.reference_distance_m / self.distance_m
        return ratio * ratio

    def vignette_map(
        self,
        rows: int,
        cols: int,
        col_start: int = 0,
        col_stop: Optional[int] = None,
    ) -> np.ndarray:
        """Relative illumination of a ``rows x cols`` sensor (1 at the center).

        Classic cos^4(theta) falloff with theta growing radially toward the
        corners, blended by ``vignetting_strength``.  By default the whole
        ``(rows, cols)`` map; ``col_start``/``col_stop`` evaluate only the
        column strip ``[col_start, col_stop)``, still normalised by the full
        geometry.  Every pixel is computed independently, so a strip is
        bit-identical to the same slice of the full map.
        """
        if rows <= 0 or cols <= 0:
            raise CameraError(f"rows and cols must be positive, got {rows}x{cols}")
        if col_stop is None:
            col_stop = cols
        if not 0 <= col_start < col_stop <= cols:
            raise CameraError(
                f"column strip [{col_start}, {col_stop}) must be a non-empty "
                f"range within [0, {cols}]"
            )
        row_coords = (np.arange(rows) - (rows - 1) / 2.0) / max((rows - 1) / 2.0, 1)
        col_coords = (np.arange(col_start, col_stop) - (cols - 1) / 2.0) / max(
            (cols - 1) / 2.0, 1
        )
        radius = np.sqrt(
            row_coords[:, np.newaxis] ** 2 + col_coords[np.newaxis, :] ** 2
        ) / np.sqrt(2.0)
        theta = radius * self.field_angle_rad
        falloff = np.cos(theta) ** 4
        return 1.0 - self.vignetting_strength * (1.0 - falloff)

    def ambient_xyz(self) -> np.ndarray:
        """XYZ of the additive ambient background light."""
        if self.ambient_luminance == 0.0:
            return np.zeros(3)
        return xy_to_XYZ(
            np.array(ILLUMINANT_A.xy), Y=self.ambient_luminance
        )

    def apply_to_scene(self, xyz: np.ndarray) -> np.ndarray:
        """Distance attenuation plus ambient, before the sensor sees light."""
        xyz = np.asarray(xyz, dtype=float)
        return xyz * self.distance_gain() + self.ambient_xyz()


#: Vignette maps are pure geometry — (optics, rows, cols, column strip) —
#: and cameras read only the centre strip they simulate, so the memo holds
#: strips: a 48-column Nexus 5 strip is ~1 MB and ~10 ms to build, where the
#: full map is 64 MB kept, ~320 MB transient and ~0.5 s.  Sweep cells share
#: device geometry, so only the first camera per strip builds one.  Entries
#: are returned read-only because they are shared across every camera in
#: the process.
_VIGNETTE_CACHE: Dict[Tuple["Optics", int, int, int, int], np.ndarray] = {}
_VIGNETTE_CACHE_MAX = 16


def cached_vignette_map(
    optics: Optics, rows: int, cols: int, col_start: int, col_stop: int
) -> np.ndarray:
    """A process-wide memo over :meth:`Optics.vignette_map` column strips.

    Bit-identical to calling the method directly (the map is deterministic
    geometry); the returned array is marked non-writeable — copy before
    mutating.  The cache holds the :data:`_VIGNETTE_CACHE_MAX` most recently
    inserted strips (FIFO), bounding memory for synthetic-device population
    studies that vary optics per device.
    """
    key = (optics, rows, cols, col_start, col_stop)
    cached = _VIGNETTE_CACHE.get(key)
    if cached is None:
        cached = optics.vignette_map(rows, cols, col_start, col_stop)
        cached.flags.writeable = False
        while len(_VIGNETTE_CACHE) >= _VIGNETTE_CACHE_MAX:
            _VIGNETTE_CACHE.pop(next(iter(_VIGNETTE_CACHE)))
        _VIGNETTE_CACHE[key] = cached
    return cached
