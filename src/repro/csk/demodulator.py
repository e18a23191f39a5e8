"""CSK demodulator: received CIELab samples -> symbol decisions (paper §7).

The receiver classifies each detected band by:

1. **OFF detection** — lightness L below a dark threshold (the LED was off);
2. **white/color matching** — nearest reference chroma in the ab-plane,
   where references come from a :class:`~repro.csk.calibration.CalibrationTable`
   (calibrated mode) or from the nominal constellation pushed through the
   ideal color pipeline (uncalibrated ablation mode).

A match farther than the acceptance threshold (a multiple of the ΔE = 2.3
just-noticeable difference) is flagged low-confidence; packet-level logic
decides whether to keep or drop it.
"""

from __future__ import annotations

from enum import Enum
from typing import List, NamedTuple, Optional

import numpy as np

from repro.color.cielab import JND_DELTA_E
from repro.csk.calibration import CalibrationTable
from repro.exceptions import DemodulationError


class DecisionKind(Enum):
    """What a received band was classified as."""

    DATA = "data"
    WHITE = "white"
    OFF = "off"


class SymbolDecision(NamedTuple):
    """One demodulated band: its class, index (DATA only), and confidence.

    ``margin`` is the ΔE gap between the nearest and second-nearest
    candidate reference (data references plus white) — the distance this
    decision sits from flipping to its runner-up.  It is the per-symbol
    channel-quality signal the link-adaptation controller aggregates
    (:mod:`repro.link.adapt`).  ``None`` for OFF decisions (settled by
    lightness alone, never matched against the table) and for bootstrap
    decisions made before any calibration exists — an undefined margin is
    *not* a zero margin.

    Built once per lit band, so it is an immutable
    :class:`~typing.NamedTuple` rather than a frozen dataclass.
    """

    kind: DecisionKind
    index: Optional[int]
    distance: float
    confident: bool
    margin: Optional[float] = None

    def to_char(self) -> str:
        """Compact notation matching :meth:`LogicalSymbol.to_char`."""
        if self.kind is DecisionKind.OFF:
            return "o"
        if self.kind is DecisionKind.WHITE:
            return "w"
        return str(self.index)


class CskDemodulator:
    """Classifies per-band Lab measurements into symbol decisions.

    Parameters
    ----------
    calibration:
        The reference table (must be calibrated before data demodulation).
    off_lightness:
        L* below which a band is the OFF symbol.  The paper notes OFF and
        white are distinguishable "with very high accuracy" — darkness is a
        lightness decision, independent of chroma.
    acceptance_delta_e:
        Maximum ab-plane distance for a *confident* match, as a multiple of
        the 2.3 JND (default 4x: automatic exposure moves received chroma by
        several JND between calibrations, so a tight threshold would discard
        recoverable symbols; RS coding cleans up the rest).
    """

    def __init__(
        self,
        calibration: CalibrationTable,
        off_lightness: float = 12.0,
        acceptance_delta_e: float = 4.0 * JND_DELTA_E,
    ) -> None:
        if off_lightness <= 0:
            raise DemodulationError(
                f"off_lightness must be positive, got {off_lightness}"
            )
        if acceptance_delta_e <= 0:
            raise DemodulationError(
                f"acceptance_delta_e must be positive, got {acceptance_delta_e}"
            )
        self.calibration = calibration
        self.off_lightness = off_lightness
        self.acceptance_delta_e = acceptance_delta_e

    def decide(self, lab: np.ndarray) -> SymbolDecision:
        """Classify a single band measurement ``(L, a, b)``."""
        return self.decide_stream(np.asarray(lab, dtype=float)[np.newaxis, :])[0]

    def decide_stream(self, lab: np.ndarray) -> List[SymbolDecision]:
        """Classify ``(N, 3)`` Lab band measurements in order.

        Fully vectorized: dark/OFF rows are settled by the lightness test
        alone — no calibration matching or white-distance work is ever done
        for them — and an all-dark stream (gap-straddling frames, occlusion
        faults) short-circuits before touching the reference table at all.
        The remaining lit rows get one batched nearest-reference match and
        one white-distance pass; decisions are materialized at the end,
        straight from the ``tolist()`` columns (already Python numbers).
        """
        lab = np.asarray(lab, dtype=float)
        if lab.ndim != 2 or lab.shape[1] != 3:
            raise DemodulationError(
                f"expected (N, 3) Lab array, got shape {lab.shape}"
            )
        dark = lab[:, 0] < self.off_lightness
        off_decision = SymbolDecision(DecisionKind.OFF, None, 0.0, True)
        decisions: List[SymbolDecision] = [off_decision] * lab.shape[0]
        lit = np.flatnonzero(~dark)
        if lit.size == 0:
            return decisions

        # Distances to data references and to the white reference, lit rows
        # only.
        chroma = lab[lit, 1:]
        matrix = self.calibration.distance_matrix(chroma)
        indices = np.argmin(matrix, axis=-1)
        data_dist = np.take_along_axis(
            matrix, indices[..., np.newaxis], axis=-1
        )[..., 0]
        white_ref = self.calibration.white_reference
        white_dist = np.sqrt(np.sum((chroma - white_ref) ** 2, axis=-1))
        is_white = white_dist < data_dist
        distance = np.where(is_white, white_dist, data_dist)
        confident = distance <= self.acceptance_delta_e
        # Margin to the runner-up over the full candidate set (data
        # references + white): how far each decision is from flipping.
        candidates = np.concatenate([matrix, white_dist[:, np.newaxis]], axis=1)
        nearest_two = np.partition(candidates, 1, axis=1)
        margin = nearest_two[:, 1] - nearest_two[:, 0]

        for row, white, dist, index, sure, gap in zip(
            lit.tolist(),
            is_white.tolist(),
            distance.tolist(),
            indices.tolist(),
            confident.tolist(),
            margin.tolist(),
        ):
            decisions[row] = SymbolDecision(
                DecisionKind.WHITE if white else DecisionKind.DATA,
                None if white else index,
                dist,
                sure,
                gap,
            )
        return decisions


def nominal_calibration(
    constellation,
    modulator,
    camera_response=None,
) -> CalibrationTable:
    """Build a CalibrationTable from nominal emissions (no calibration packet).

    Used by the calibration-off ablation: references are the constellation
    emissions converted to Lab through an *ideal* pipeline (``camera_response``
    None) or through a device's color response when one is supplied.  This is
    exactly the mismatch the paper's §6 calibration mechanism exists to fix.
    """
    from repro.color.cielab import xyz_to_lab

    table = CalibrationTable(constellation)
    emissions = np.stack(modulator.reference_emissions())
    white = modulator.white_emission()
    if camera_response is not None:
        emissions = camera_response(emissions)
        white = camera_response(white[np.newaxis, :])[0]
    # Normalize luminance so Lab references sit at a stable lightness.
    peak = max(float(emissions[..., 1].max()), 1e-12)
    lab = xyz_to_lab(emissions / peak)
    white_lab = xyz_to_lab(white / peak)
    table.update(lab[:, 1:], white_lab[1:])
    return table
