"""Receiver-side calibration state (paper §6).

Different cameras perceive the same transmitted color differently (filter
technology, demosaicing, auto exposure/ISO).  The transmitter periodically
sends *calibration packets* — the full constellation in index order — and the
receiver stores each symbol's received CIELab chroma as the reference for
subsequent matching.  :class:`CalibrationTable` is that store, with
exponential smoothing across calibration packets so the receiver tracks
slowly drifting channel conditions (ambient light, AE adjustments).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.csk.constellation import Constellation
from repro.exceptions import CalibrationError


class CalibrationTable:
    """Per-symbol reference chroma learned from calibration packets.

    ``references`` is an ``(order, 2)`` array of (a, b) chroma values.  The
    table also stores the white reference — illumination symbols share the
    matching pipeline — while OFF is detected by lightness, not chroma.
    """

    def __init__(
        self,
        constellation: Constellation,
        smoothing: float = 0.35,
    ) -> None:
        if not 0 < smoothing <= 1:
            raise CalibrationError(
                f"smoothing must be in (0, 1], got {smoothing}"
            )
        self.constellation = constellation
        self.smoothing = smoothing
        self._references: Optional[np.ndarray] = None
        self._seen = np.zeros(constellation.order, dtype=bool)
        self._extrapolated = np.zeros(constellation.order, dtype=bool)
        self._observations = np.zeros(constellation.order, dtype=int)
        self._white_reference: Optional[np.ndarray] = None
        self.updates_applied = 0

    #: Minimum directly-observed references before affine extrapolation of
    #: the rest is trusted (an affine map has 6 parameters).
    MIN_SEEN_FOR_EXTRAPOLATION = 4

    @property
    def is_calibrated(self) -> bool:
        """Whether every constellation symbol has a usable reference.

        Calibration packets interrupted by the inter-frame gap deliver only
        some symbols (see :meth:`update_partial`).  A symbol's reference is
        usable once it has been observed directly, or extrapolated through
        the affine chromaticity fit after enough other symbols were seen.
        """
        return self._references is not None and bool(
            (self._seen | self._extrapolated).all()
        )

    @property
    def seen_count(self) -> int:
        """Number of symbols whose reference was observed directly."""
        return int(self._seen.sum())

    @property
    def references(self) -> np.ndarray:
        """``(order, 2)`` reference chroma; raises until fully calibrated."""
        if not self.is_calibrated:
            missing = (
                int((~self._seen).sum()) if self._references is not None else None
            )
            raise CalibrationError(
                "calibration incomplete; cannot demodulate"
                + (f" ({missing} symbols never seen)" if missing else "")
            )
        return self._references.copy()

    @property
    def white_reference(self) -> np.ndarray:
        if self._white_reference is None:
            raise CalibrationError("white reference not calibrated yet")
        return self._white_reference.copy()

    def update(
        self, symbol_chroma: np.ndarray, white_chroma: Optional[np.ndarray] = None
    ) -> None:
        """Absorb one calibration packet.

        ``symbol_chroma`` is ``(order, 2)`` — the received (a, b) of each
        constellation symbol in index order.  Subsequent packets are blended
        with weight ``smoothing`` so the table adapts without jumping on a
        single noisy packet.
        """
        chroma = np.asarray(symbol_chroma, dtype=float)
        expected = (self.constellation.order, 2)
        if chroma.shape != expected:
            raise CalibrationError(
                f"calibration chroma must have shape {expected}, got {chroma.shape}"
            )
        self.update_partial(
            list(range(self.constellation.order)), chroma, white_chroma
        )

    def update_partial(
        self,
        indices: Sequence[int],
        symbol_chroma: np.ndarray,
        white_chroma: Optional[np.ndarray] = None,
    ) -> None:
        """Absorb a calibration packet that lost some symbols to the gap.

        Calibration symbols are transmitted in index order, so the receiver
        knows *which* symbols the surviving bands correspond to even when the
        inter-frame gap cuts the packet (position accounting, §5).  Only the
        listed ``indices`` are updated; a table becomes fully calibrated once
        every index has been covered at least once.
        """
        chroma = np.asarray(symbol_chroma, dtype=float)
        if chroma.ndim != 2 or chroma.shape[1] != 2:
            raise CalibrationError(
                f"symbol chroma must be (n, 2), got {chroma.shape}"
            )
        if len(indices) != chroma.shape[0]:
            raise CalibrationError(
                f"{len(indices)} indices but {chroma.shape[0]} chroma rows"
            )
        if not np.all(np.isfinite(chroma)):
            raise CalibrationError("calibration chroma contains non-finite values")
        order = self.constellation.order
        for row, index in enumerate(indices):
            if not 0 <= index < order:
                raise CalibrationError(
                    f"calibration index {index} outside {order}-CSK constellation"
                )
        if self._references is None:
            self._references = np.zeros((order, 2))
        for row, index in enumerate(indices):
            if self._seen[index]:
                # Running mean while observations are few (fast convergence),
                # EWMA once established (drift tracking).
                count = self._observations[index]
                weight = max(self.smoothing, 1.0 / (count + 1))
                self._references[index] = (
                    (1 - weight) * self._references[index] + weight * chroma[row]
                )
            else:
                self._references[index] = chroma[row]
                self._seen[index] = True
                self._extrapolated[index] = False
            self._observations[index] += 1
        self._extrapolate_missing()
        if white_chroma is not None:
            white = np.asarray(white_chroma, dtype=float)
            if white.shape != (2,):
                raise CalibrationError(
                    f"white chroma must have shape (2,), got {white.shape}"
                )
            if self._white_reference is None:
                self._white_reference = white.copy()
            else:
                self._white_reference = (
                    (1 - self.smoothing) * self._white_reference
                    + self.smoothing * white
                )
        self.updates_applied += 1

    def _extrapolate_missing(self) -> None:
        """Fill unseen references via an affine chromaticity fit.

        The camera's net effect on chromaticity is approximately affine
        (channel mixing plus white-balance shift), so fitting
        ``ab = A @ xy + b`` on the directly-observed symbols predicts the
        received chroma of the unseen ones.  Extrapolated entries are
        replaced outright by the first direct observation.
        """
        missing = ~(self._seen | self._extrapolated)
        if not missing.any():
            return
        if self.seen_count < self.MIN_SEEN_FOR_EXTRAPOLATION:
            return
        xy = self.constellation.as_array()
        design = np.hstack([xy[self._seen], np.ones((self.seen_count, 1))])
        observed = self._references[self._seen]
        coeffs, *_ = np.linalg.lstsq(design, observed, rcond=None)
        unseen = ~self._seen
        predicted = (
            np.hstack([xy[unseen], np.ones((int(unseen.sum()), 1))]) @ coeffs
        )
        self._references[unseen] = predicted
        self._extrapolated[unseen] = True

    def affine_residual(
        self, indices: Sequence[int], symbol_chroma: np.ndarray
    ) -> Optional[float]:
        """RMS misfit (ΔE) of a calibration event against the affine model.

        A genuine calibration packet carries the constellation's xy targets
        pushed through the camera — approximately the affine map
        :meth:`_extrapolate_missing` fits — so its received chroma fits
        ``ab = A @ xy + b`` to within channel noise.  Colors that were
        misframed as a calibration packet (a damaged data preamble matching
        the calibration skeleton) sit at the wrong indices and fit badly,
        which makes the residual a credibility score.  Returns ``None``
        when fewer than :data:`MIN_SEEN_FOR_EXTRAPOLATION` symbols
        survived: the 6-parameter fit would be underdetermined.
        """
        if len(indices) < self.MIN_SEEN_FOR_EXTRAPOLATION:
            return None
        chroma = np.asarray(symbol_chroma, dtype=float)
        if chroma.shape != (len(indices), 2):
            raise CalibrationError(
                f"expected chroma shape {(len(indices), 2)}, got {chroma.shape}"
            )
        xy = self.constellation.as_array()[list(indices)]
        design = np.hstack([xy, np.ones((len(indices), 1))])
        coeffs, *_ = np.linalg.lstsq(design, chroma, rcond=None)
        residual = chroma - design @ coeffs
        return float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))

    def distance_matrix(self, chroma: np.ndarray) -> np.ndarray:
        """ΔE from each chroma sample to *every* reference.

        ``chroma`` is ``(..., 2)``; returns ``(..., order)`` distances.  The
        full matrix is what margin estimation needs: the gap between the
        nearest and second-nearest reference is the decision margin the
        link-adaptation controller watches (:mod:`repro.link.adapt`).
        """
        refs = self.references  # raises if uncalibrated
        chroma = np.asarray(chroma, dtype=float)
        deltas = chroma[..., np.newaxis, :] - refs
        return np.sqrt(np.sum(deltas**2, axis=-1))

    def match(self, chroma: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Nearest reference for each chroma sample.

        ``chroma`` is ``(..., 2)``; returns ``(indices, distances)`` with the
        broadcast leading shape.  Callers compare distances against the ΔE
        acceptance threshold.
        """
        distances = self.distance_matrix(chroma)
        indices = np.argmin(distances, axis=-1)
        best = np.take_along_axis(
            distances, indices[..., np.newaxis], axis=-1
        )[..., 0]
        return indices, best
