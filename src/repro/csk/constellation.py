"""CSK constellation designs for 4/8/16/32-CSK.

The designs follow the construction principles of the IEEE 802.15.7 CSK
constellations the paper adopts (Figs. 1e/1f): symbols live on a triangular
lattice inside the emitter's gamut triangle, are spread to maximize the
minimum pairwise chromaticity distance, and are balanced so that the equal-
proportion mixture of all symbols is the white point — the property §4 relies
on for flicker-free illumination.

One deliberate deviation from the verbatim standard layouts: ColorBars
reserves the white point for illumination and framing symbols ('w'), so no
*data* symbol may sit at the gamut centroid — otherwise white insertion and
white stripping become ambiguous at the receiver.  Our designs therefore
keep the centroid symbol-free while preserving the standard's two structural
properties: (i) the equal-proportion mixture of all symbols is exactly the
white point (§4's flicker argument), and (ii) symbols maximize the minimum
pairwise distance — here computed *including* the white point, since the
receiver must also separate data colors from illumination whites.  The
median-pair radii below were chosen by a max-min-distance grid search over
the barycentric parametrization (gamut-independent).

Concretely:

* **4-CSK** — two centroid-symmetric pairs along the red and green medians
  at radius 0.48 (a "cross" around white).
* **8-CSK** — the order-2 lattice (vertices + edge midpoints) plus a
  green-median pair at radius 0.25, mirroring the two interior points of
  the standard's 8-CSK layout.
* **16-CSK** — the order-4 lattice minus its inner triad (12 points) plus
  red- and green-median pairs at radii 0.24 / 0.26.
* **32-CSK** — the order-6 lattice minus the centroid (27 points) plus a
  vertex-pointing triad at radius 0.30 and a green-median pair at 0.14.

Every design's mean chromaticity equals the centroid exactly (verified by
unit tests), and minimum distance decreases with order — 0.176, 0.097,
0.088, 0.055 in xy for the typical LED gamut: more bits per symbol buy rate
at the cost of noise margin, which is exactly the SER trade the paper
evaluates in Fig. 9.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.color.chromaticity import ChromaticityPoint, GamutTriangle
from repro.exceptions import ConstellationError

#: Constellation orders the paper evaluates.
SUPPORTED_ORDERS: Tuple[int, ...] = (4, 8, 16, 32)


class Constellation:
    """An ordered set of chromaticity symbols inside a gamut triangle."""

    def __init__(
        self,
        order: int,
        points: Sequence[ChromaticityPoint],
        gamut: GamutTriangle,
    ) -> None:
        if order < 2 or order & (order - 1):
            raise ConstellationError(f"order must be a power of two >= 2, got {order}")
        if len(points) != order:
            raise ConstellationError(
                f"{order}-CSK needs exactly {order} points, got {len(points)}"
            )
        seen: Dict[Tuple[float, float], int] = {}
        for index, point in enumerate(points):
            key = (round(point.x, 9), round(point.y, 9))
            if key in seen:
                raise ConstellationError(
                    f"duplicate constellation point at indices "
                    f"{seen[key]} and {index}: ({point.x:.4f}, {point.y:.4f})"
                )
            seen[key] = index
            if not gamut.contains(point, tolerance=1e-6):
                raise ConstellationError(
                    f"point {index} ({point.x:.4f}, {point.y:.4f}) lies outside "
                    "the gamut triangle"
                )
        self.order = order
        self.points: Tuple[ChromaticityPoint, ...] = tuple(points)
        self.gamut = gamut

    @property
    def bits_per_symbol(self) -> int:
        """C = log2(order) — the paper's symbol size in bits."""
        return self.order.bit_length() - 1

    def point(self, index: int) -> ChromaticityPoint:
        """Constellation entry ``index`` (the DATA symbol's chromaticity)."""
        if not 0 <= index < self.order:
            raise ConstellationError(
                f"symbol index {index} outside {self.order}-CSK constellation"
            )
        return self.points[index]

    def as_array(self) -> np.ndarray:
        """``(order, 2)`` array of xy coordinates."""
        return np.array([[p.x, p.y] for p in self.points])

    def mean_chromaticity(self) -> ChromaticityPoint:
        """Average of all symbols — equals the white point for valid designs."""
        mean = self.as_array().mean(axis=0)
        return ChromaticityPoint(float(mean[0]), float(mean[1]))

    def min_distance(self) -> float:
        """Smallest pairwise xy distance — the constellation's noise margin."""
        return self.gamut.min_pairwise_distance(self.points)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constellation(order={self.order}, d_min={self.min_distance():.4f})"


def _lattice(gamut: GamutTriangle, subdivisions: int) -> List[ChromaticityPoint]:
    return gamut.grid_points(subdivisions)


def _barycentric_point(gamut: GamutTriangle, weights: Sequence[float]) -> ChromaticityPoint:
    return gamut.interpolate(weights)


def _median_pair(
    gamut: GamutTriangle, vertex: int, radius: float
) -> List[ChromaticityPoint]:
    """A centroid-symmetric pair along the median through ``vertex``.

    ``radius`` in (0, 0.5]: 0.5 puts the inner point on the opposite edge.
    The pair's mean is the centroid, so adding pairs never disturbs the
    equal-mixture white balance.
    """
    center = 1.0 / 3.0
    plus = [center - radius / 3.0] * 3
    minus = [center + radius / 3.0] * 3
    plus[vertex] = center + 2.0 * radius / 3.0
    minus[vertex] = center - 2.0 * radius / 3.0
    return [
        _barycentric_point(gamut, plus),
        _barycentric_point(gamut, minus),
    ]


def _vertex_triad(gamut: GamutTriangle, radius: float) -> List[ChromaticityPoint]:
    """Three points at ``radius`` from the centroid toward each vertex."""
    center = 1.0 / 3.0
    points = []
    for vertex in range(3):
        weights = [center - radius / 3.0] * 3
        weights[vertex] = center + 2.0 * radius / 3.0
        points.append(_barycentric_point(gamut, weights))
    return points


def _design_4csk(gamut: GamutTriangle) -> List[ChromaticityPoint]:
    # Two median pairs at radius 0.48 — the widest centroid-free cross.
    return _median_pair(gamut, 0, 0.48) + _median_pair(gamut, 1, 0.48)


def _design_8csk(gamut: GamutTriangle) -> List[ChromaticityPoint]:
    # Order-2 lattice (vertices + edge midpoints, mean = centroid) plus a
    # green-median interior pair, as in the standard's 8-CSK layout.
    return _lattice(gamut, 2) + _median_pair(gamut, 1, 0.25)


def _design_16csk(gamut: GamutTriangle) -> List[ChromaticityPoint]:
    # Order-4 lattice minus its inner triad (12 points, mean preserved by
    # symmetry) plus red- and green-median pairs filling the interior.
    inner_triad = _vertex_triad(gamut, 0.25)  # the lattice's (2,1,1)/4 points
    base = [
        p
        for p in _lattice(gamut, 4)
        if all(p.distance_to(t) > 1e-9 for t in inner_triad)
    ]
    return base + _median_pair(gamut, 0, 0.24) + _median_pair(gamut, 1, 0.26)


def _design_32csk(gamut: GamutTriangle) -> List[ChromaticityPoint]:
    # Order-6 lattice minus the centroid (27 points, mean preserved), a
    # vertex triad at radius 0.30 and a green-median pair at 0.14.
    centroid = gamut.centroid()
    base = [
        p for p in _lattice(gamut, 6) if p.distance_to(centroid) > 1e-12
    ]
    return base + _vertex_triad(gamut, 0.30) + _median_pair(gamut, 1, 0.14)


_DESIGNS = {
    4: _design_4csk,
    8: _design_8csk,
    16: _design_16csk,
    32: _design_32csk,
}


def design_constellation(order: int, gamut: GamutTriangle) -> Constellation:
    """Build the standard ColorBars constellation for ``order``-CSK.

    Supported orders are 4, 8, 16 and 32 (the paper's evaluation set).
    """
    if order not in _DESIGNS:
        raise ConstellationError(
            f"unsupported CSK order {order}; supported: {sorted(_DESIGNS)}"
        )
    points = _DESIGNS[order](gamut)
    return Constellation(order, points, gamut)
