"""Chromaticity-plane geometry: points, gamut triangles, barycentric math.

A tri-LED can produce exactly the chromaticities inside the triangle whose
vertices are its red, green and blue primaries.  CSK constellation design and
the xy -> per-LED-intensity solver both reduce to barycentric coordinates in
this triangle, implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.exceptions import GamutError
from repro.util.validation import require

#: Tolerance used when deciding whether a point is inside the gamut triangle.
_EDGE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ChromaticityPoint:
    """A point in the CIE 1931 xy chromaticity plane."""

    x: float
    y: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    def distance_to(self, other: "ChromaticityPoint") -> float:
        """Euclidean distance in the xy plane."""
        return float(np.hypot(self.x - other.x, self.y - other.y))

    def __iter__(self):
        return iter((self.x, self.y))


def barycentric_coordinates(
    point: np.ndarray, vertices: np.ndarray
) -> np.ndarray:
    """Barycentric coordinates of ``point`` w.r.t. a 2-D triangle.

    ``vertices`` is a ``(3, 2)`` array; returns ``(3,)`` weights summing to 1.
    Weights are negative when the point lies outside the triangle.
    """
    vertices = np.asarray(vertices, dtype=float)
    point = np.asarray(point, dtype=float)
    require(vertices.shape == (3, 2), f"vertices must be (3, 2), got {vertices.shape}")
    a, b, c = vertices
    v0 = b - a
    v1 = c - a
    v2 = point - a
    d00 = v0 @ v0
    d01 = v0 @ v1
    d11 = v1 @ v1
    d20 = v2 @ v0
    d21 = v2 @ v1
    denom = d00 * d11 - d01 * d01
    if abs(denom) < 1e-15:
        raise GamutError("degenerate gamut triangle: primaries are collinear")
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    u = 1.0 - v - w
    return np.array([u, v, w])


class GamutTriangle:
    """The chromaticity gamut of a tri-LED emitter.

    Constructed from the red, green and blue primary chromaticities; provides
    containment tests, the centroid (the "white" the LED produces with equal
    per-primary luminance), and interpolation helpers used by constellation
    design.
    """

    def __init__(
        self,
        red: ChromaticityPoint,
        green: ChromaticityPoint,
        blue: ChromaticityPoint,
    ) -> None:
        self.red = red
        self.green = green
        self.blue = blue
        self._vertices = np.array(
            [red.as_array(), green.as_array(), blue.as_array()]
        )
        # Validate non-degeneracy up front.
        barycentric_coordinates(self.centroid().as_array(), self._vertices)

    @property
    def vertices(self) -> np.ndarray:
        """``(3, 2)`` array of (R, G, B) primary chromaticities."""
        return self._vertices.copy()

    def centroid(self) -> ChromaticityPoint:
        """The equal-weight mixture point of the three primaries."""
        center = self._vertices.mean(axis=0)
        return ChromaticityPoint(float(center[0]), float(center[1]))

    def contains(self, point: ChromaticityPoint, tolerance: float = _EDGE_TOLERANCE) -> bool:
        """Whether the chromaticity is reproducible by this emitter."""
        weights = barycentric_coordinates(point.as_array(), self._vertices)
        return bool(np.all(weights >= -tolerance))

    def mixing_weights(self, point: ChromaticityPoint) -> np.ndarray:
        """Relative luminance shares of (R, G, B) that reproduce ``point``.

        Raises :class:`GamutError` if the point is outside the triangle; the
        weights sum to 1.
        """
        weights = barycentric_coordinates(point.as_array(), self._vertices)
        if np.any(weights < -_EDGE_TOLERANCE):
            raise GamutError(
                f"chromaticity ({point.x:.4f}, {point.y:.4f}) is outside the "
                "emitter gamut triangle"
            )
        clipped = np.clip(weights, 0.0, None)
        return clipped / clipped.sum()

    def interpolate(self, weights: Iterable[float]) -> ChromaticityPoint:
        """Chromaticity produced by the given (R, G, B) luminance shares."""
        w = np.asarray(list(weights), dtype=float)
        require(w.shape == (3,), f"weights must have 3 entries, got {w.shape}")
        require(np.all(w >= 0), f"weights must be non-negative, got {w}")
        total = w.sum()
        require(total > 0, "weights must not all be zero")
        point = (w / total) @ self._vertices
        return ChromaticityPoint(float(point[0]), float(point[1]))

    def grid_points(self, subdivisions: int) -> List[ChromaticityPoint]:
        """Triangular lattice of points with ``subdivisions`` steps per edge.

        ``subdivisions = n`` yields the (n+1)(n+2)/2 barycentric lattice points;
        this is the scaffold the 802.15.7-style constellations are drawn from.
        """
        require(subdivisions >= 1, f"subdivisions must be >= 1, got {subdivisions}")
        points: List[ChromaticityPoint] = []
        n = subdivisions
        for i in range(n + 1):
            for j in range(n + 1 - i):
                k = n - i - j
                weights = np.array([i, j, k], dtype=float) / n
                xy = weights @ self._vertices
                points.append(ChromaticityPoint(float(xy[0]), float(xy[1])))
        return points

    def min_pairwise_distance(self, points: Iterable[ChromaticityPoint]) -> float:
        """Smallest inter-point xy distance — the constellation's noise margin."""
        pts = [p.as_array() for p in points]
        require(len(pts) >= 2, "need at least two points")
        best = float("inf")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                dist = float(np.hypot(*(pts[i] - pts[j])))
                best = min(best, dist)
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GamutTriangle(R=({self.red.x:.3f},{self.red.y:.3f}), "
            f"G=({self.green.x:.3f},{self.green.y:.3f}), "
            f"B=({self.blue.x:.3f},{self.blue.y:.3f}))"
        )
