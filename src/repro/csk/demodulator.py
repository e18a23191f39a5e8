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


#: Decision kinds by column code: ``DECISION_KINDS[code]``.
DECISION_KINDS = (DecisionKind.DATA, DecisionKind.WHITE, DecisionKind.OFF)
KIND_DATA, KIND_WHITE, KIND_OFF = range(len(DECISION_KINDS))
#: The index column's stand-in for ``None`` (an OFF, white or bootstrap
#: decision); the margin column's stand-in is NaN.
NO_INDEX = -1
_OFF_DECISION = SymbolDecision(DecisionKind.OFF, None, 0.0, True)


class DecisionColumns(NamedTuple):
    """A run of symbol decisions, one array per :class:`SymbolDecision` field.

    ``kind`` holds :data:`DECISION_KINDS` codes, ``index`` holds
    :data:`NO_INDEX` where the decision has none, and ``margin`` holds NaN
    where it is undefined.  :meth:`decisions` builds the records.  (A
    margin that is itself NaN — only a non-finite band color makes one —
    reads back as ``None``; scanline means of 8-bit pixels are finite.)
    """

    kind: np.ndarray
    index: np.ndarray
    distance: np.ndarray
    confident: np.ndarray
    margin: np.ndarray

    @classmethod
    def off(cls, count: int) -> "DecisionColumns":
        """``count`` OFF decisions, ready to have lit rows scattered in."""
        return cls(
            np.full(count, KIND_OFF, dtype=np.uint8),
            np.full(count, NO_INDEX, dtype=np.int16),
            np.zeros(count),
            np.ones(count, dtype=bool),
            np.full(count, np.nan),
        )

    def decisions(self) -> List[SymbolDecision]:
        """The :class:`SymbolDecision` records, from ``tolist()`` columns
        (already Python numbers); every OFF decision is one shared record.
        The columns may be strided fields of a packed record."""
        kinds = DECISION_KINDS
        return [
            _OFF_DECISION
            if code == KIND_OFF
            else SymbolDecision(
                kinds[code],
                None if number < 0 else number,
                dist,
                sure,
                None if gap != gap else gap,
            )
            for code, number, dist, sure, gap in zip(
                self.kind.tolist(),
                self.index.tolist(),
                self.distance.tolist(),
                self.confident.tolist(),
                self.margin.tolist(),
            )
        ]


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

    def decide_stream(self, lab: np.ndarray) -> List[SymbolDecision]:
        """Classify ``(N, 3)`` Lab band measurements in order.

        The record form of :meth:`decide_columns`.
        """
        return self.decide_columns(lab).decisions()

    def decide_columns(self, lab: np.ndarray) -> DecisionColumns:
        """Classify ``(N, 3)`` Lab band measurements, one array per field.

        Fully vectorized: dark/OFF rows are settled by the lightness test
        alone — no calibration matching or white-distance work is ever done
        for them — and an all-dark stream (gap-straddling frames, occlusion
        faults) short-circuits before touching the reference table at all.
        The remaining lit rows get one batched nearest-reference match and
        one white-distance pass, scattered into the columns.
        """
        lab = np.asarray(lab, dtype=float)
        if lab.ndim != 2 or lab.shape[1] != 3:
            raise DemodulationError(
                f"expected (N, 3) Lab array, got shape {lab.shape}"
            )
        dark = lab[:, 0] < self.off_lightness
        columns = DecisionColumns.off(lab.shape[0])
        lit = np.flatnonzero(~dark)
        if lit.size == 0:
            return columns

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
        # Margin to the runner-up over the full candidate set (data
        # references + white): how far each decision is from flipping.
        candidates = np.concatenate([matrix, white_dist[:, np.newaxis]], axis=1)
        nearest_two = np.partition(candidates, 1, axis=1)

        columns.kind[lit] = np.where(is_white, KIND_WHITE, KIND_DATA)
        columns.index[lit] = np.where(is_white, NO_INDEX, indices)
        columns.distance[lit] = distance
        columns.confident[lit] = distance <= self.acceptance_delta_e
        columns.margin[lit] = nearest_two[:, 1] - nearest_two[:, 0]
        return columns


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
