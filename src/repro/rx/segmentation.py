"""Scanline-to-band segmentation by symbol-timing recovery.

Each transmitted symbol occupies a run of scanlines (its *band*, Fig 1c).
The symbol rate is a system parameter, so the expected band pitch ``P``
(rows per symbol) is known exactly; what the receiver must estimate is the
*phase* — where the band grid sits within the frame.  Segmentation therefore
works like classic symbol-timing recovery rather than free-form edge
detection:

1. compute a boundary-strength signal ``g(r)`` — the color distance between
   scanlines one exposure-smear apart (transitions between bands are ramps
   ``smear`` rows long, because a scanline whose exposure window straddles a
   symbol boundary integrates both colors);
2. find the grid phase by maximizing the comb energy
   ``E(phi) = mean_k g(phi + k P)`` — every inter-band transition in the
   frame votes for the same phase;
3. place one band per grid cell and estimate its color from the *pure
   plateau*: the ``P - smear`` rows whose exposure windows sit entirely
   inside the symbol period, refined with a minimum-chroma-dispersion
   window search.

This remains robust when the exposure is a large fraction of the symbol
period (the high-symbol-rate regime of Fig 9, where transition rows
outnumber pure rows), and it splits runs of identical adjacent symbols for
free — the grid does not care that no edge is visible between them.

Band timing comes from the core rows: their exposure midpoints lie inside
the symbol period, so ``Band.center_row`` anchors slot indexing across
frames to a fraction of a symbol.

The 10-pixel minimum band width of paper §4 is enforced here: configurations
whose band pitch falls below it are rejected up front.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator, List, NamedTuple, Tuple

import numpy as np

from repro.exceptions import DemodulationError
from repro.util.validation import require, require_positive

#: Paper §4: below ~10 scanlines a band cannot be demodulated reliably.
MIN_BAND_ROWS = 10


class Band(NamedTuple):
    """One detected color band.

    ``row_start``/``row_stop`` span the grid cell; ``core_start``/
    ``core_stop`` bound the pure plateau used for both the color estimate
    and the band's timing.

    An immutable record a frame builds one of per band, so it is a
    :class:`~typing.NamedTuple`: no per-instance ``__dict__`` and no
    per-field ``object.__setattr__`` as a frozen dataclass has.
    """

    row_start: int
    row_stop: int
    core_start: int
    core_stop: int
    lab: np.ndarray

    @property
    def width(self) -> int:
        return self.row_stop - self.row_start

    @property
    def center_row(self) -> float:
        """Center of the pure core — the band's timing anchor."""
        return (self.core_start + self.core_stop - 1) / 2.0


class BandColumns(Sequence):
    """One frame's bands, stored as columns: one array per :class:`Band` field.

    The four bounds are integer arrays of one entry per band and ``lab`` is
    the ``(bands, 3)`` mean-Lab array, exactly as the segmenter computes
    them.  It reads as a read-only sequence of :class:`Band` records,
    built on demand (:meth:`bands`), and compares equal to any sequence of
    the same bands.  A frame's bands stay in this form until
    classification, which packs them into the receiver's band log without
    ever walking band objects.
    """

    __slots__ = Band._fields

    def __init__(
        self,
        row_start: np.ndarray,
        row_stop: np.ndarray,
        core_start: np.ndarray,
        core_stop: np.ndarray,
        lab: np.ndarray,
    ) -> None:
        self.row_start = row_start
        self.row_stop = row_stop
        self.core_start = core_start
        self.core_stop = core_stop
        self.lab = lab

    def __len__(self) -> int:
        return self.lab.shape[0]

    def __getitem__(self, key):
        return self.bands()[key]

    def __iter__(self) -> Iterator[Band]:
        return iter(self.bands())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.bands() == list(other)

    __hash__ = None  # type: ignore[assignment]

    def bands(self) -> List[Band]:
        """The :class:`Band` records, built from Python-int columns and
        the rows of the Lab array so no band pays for numpy scalars."""
        return list(
            map(
                Band,
                self.row_start.tolist(),
                self.row_stop.tolist(),
                self.core_start.tolist(),
                self.core_stop.tolist(),
                self.lab,
            )
        )

    @classmethod
    def from_bands(cls, bands: Sequence[Band]) -> "BandColumns":
        """Columns of explicit :class:`Band` records, such as the
        equalizer's re-estimated bands."""
        if not bands:
            return NO_BANDS
        bounds = np.array(
            [
                (band.row_start, band.row_stop, band.core_start, band.core_stop)
                for band in bands
            ],
            dtype=int,
        )
        return cls(
            bounds[:, 0],
            bounds[:, 1],
            bounds[:, 2],
            bounds[:, 3],
            np.array([band.lab for band in bands], dtype=float),
        )


_NO_ROWS = np.zeros(0, dtype=int)
_NO_ROWS.flags.writeable = False
_NO_LAB = np.zeros((0, 3))
_NO_LAB.flags.writeable = False
#: A frame without bands.
NO_BANDS = BandColumns(_NO_ROWS, _NO_ROWS, _NO_ROWS, _NO_ROWS, _NO_LAB)


class BandSegmenter:
    """Splits per-scanline Lab sequences into symbol bands.

    Parameters
    ----------
    rows_per_symbol:
        Band pitch in scanlines (from sensor timing and symbol rate).
        Must be at least :data:`MIN_BAND_ROWS`.
    boundary_delta_e:
        Retained for API compatibility; the comb estimator weighs *all*
        transitions, so no hard threshold is applied during segmentation.
    off_lightness:
        L* below which rows count as dark (OFF symbols); used to weight the
        boundary signal so dark/lit edges vote like color edges.
    edge_trim_fraction:
        Fraction trimmed from each side of the grid cell before estimating
        the band color (``central`` coring), or extra trim applied to the
        pure plateau before the dispersion search (``min_variance`` coring).
    coring:
        How the band's color is estimated from its scanlines:

        * ``"central"`` (default) — plain mean over the trimmed pure
          plateau.  The estimate's noise scales as ``1/sqrt(plateau)``, and
          the plateau shrinks linearly as the symbol rate rises (fewer
          scanlines per band, a fixed exposure smear): this is the
          narrower-bands-are-harder mechanism behind Fig 9's SER growth.
        * ``"min_variance"`` — additionally search the plateau for the
          minimum-chroma-dispersion window and take its median.  The
          selection suppresses scanline-correlated pipeline noise below
          the plain-mean floor — a receiver refinement beyond the paper,
          quantified in the coring ablation bench.
    """

    #: Grid-phase search resolution, in rows.
    PHASE_STEP_ROWS = 0.25

    #: Supported coring strategies.
    CORING_MODES = ("central", "min_variance")

    def __init__(
        self,
        rows_per_symbol: float,
        boundary_delta_e: float = 9.0,
        off_lightness: float = 12.0,
        edge_trim_fraction: float = 0.2,
        min_band_rows: int = MIN_BAND_ROWS,
        coring: str = "central",
        allow_no_plateau: bool = False,
    ) -> None:
        require_positive(rows_per_symbol, "rows_per_symbol")
        if rows_per_symbol < min_band_rows:
            raise DemodulationError(
                f"expected band width {rows_per_symbol:.1f} rows is below the "
                f"{min_band_rows}-row demodulation minimum; lower the symbol "
                "rate or use a taller sensor"
            )
        require_positive(boundary_delta_e, "boundary_delta_e")
        require_positive(off_lightness, "off_lightness")
        require(
            0 <= edge_trim_fraction < 0.5,
            f"edge_trim_fraction must be in [0, 0.5), got {edge_trim_fraction}",
        )
        if coring not in self.CORING_MODES:
            raise DemodulationError(
                f"coring must be one of {self.CORING_MODES}, got {coring!r}"
            )
        self.rows_per_symbol = float(rows_per_symbol)
        self.boundary_delta_e = boundary_delta_e
        self.off_lightness = off_lightness
        self.edge_trim_fraction = edge_trim_fraction
        self.min_band_rows = min_band_rows
        self.coring = coring
        #: When True, a vanishing pure plateau (exposure ~ band width) does
        #: not abort segmentation: the band grid is still produced (the
        #: comb phase needs only the transition ramps), with colors left to
        #: downstream ISI equalization (repro.rx.equalizer) to recover.
        self.allow_no_plateau = allow_no_plateau

    # -- phase recovery ------------------------------------------------------

    def _boundary_signal(
        self, scanline_lab: np.ndarray, lag: int
    ) -> np.ndarray:
        """Color distance between scanlines ``lag`` rows apart.

        Chroma distance plus a (down-weighted) lightness term so dark/lit
        transitions around OFF symbols vote alongside color transitions.
        """
        diff = scanline_lab[lag:] - scanline_lab[:-lag]
        return np.hypot(diff[:, 1], diff[:, 2]) + 0.4 * np.abs(diff[:, 0])

    def _grid_phase(self, g: np.ndarray) -> float:
        """Phase of the band grid: argmax of the comb energy of ``g``.

        All candidate phases are evaluated in one pass: a ``(phases, teeth)``
        comb-position matrix, one gather from ``g``, and a masked row mean.
        ``g`` is non-negative, so empty combs (energy 0) can never beat a
        real transition comb; ties resolve to the first (lowest) phase, as
        the scalar loop this replaces did.
        """
        pitch = self.rows_per_symbol
        phases = np.arange(0.0, pitch, self.PHASE_STEP_ROWS)
        limit = len(g) - 1
        counts = np.maximum(np.ceil((limit - phases) / pitch), 0).astype(int)
        teeth = int(counts.max()) if counts.size else 0
        if teeth == 0:
            return 0.0
        tooth_index = np.arange(teeth)
        positions = phases[:, np.newaxis] + pitch * tooth_index[np.newaxis, :]
        valid = tooth_index[np.newaxis, :] < counts[:, np.newaxis]
        samples = g[np.minimum(np.round(positions).astype(int), len(g) - 1)]
        energies = np.where(valid, samples, 0.0).sum(axis=1)
        energies /= np.maximum(counts, 1)
        return float(phases[int(np.argmax(energies))])

    # -- band extraction -----------------------------------------------------

    def segment(
        self, scanline_lab: np.ndarray, smear_rows: float = 0.0
    ) -> BandColumns:
        """Detect the symbol bands of one frame.

        ``smear_rows`` is the exposure time divided by the row period — the
        number of scanlines whose exposure window straddles each symbol
        boundary (and hence the length of every inter-band transition ramp).
        The bands come back as columns, a sequence of :class:`Band`.
        """
        scanline_lab = np.asarray(scanline_lab, dtype=float)
        if scanline_lab.ndim != 2 or scanline_lab.shape[1] != 3:
            raise DemodulationError(
                f"expected (rows, 3) Lab array, got {scanline_lab.shape}"
            )
        if smear_rows < 0:
            raise DemodulationError(f"smear_rows must be >= 0, got {smear_rows}")
        rows = scanline_lab.shape[0]
        pitch = self.rows_per_symbol
        plateau = pitch - smear_rows
        if plateau < 3:
            if not self.allow_no_plateau:
                # The exposure window spans (nearly) the whole band: no pure
                # scanlines remain, so nothing in this frame is demodulable
                # by plateau estimation.  This is runtime channel state (a
                # dim scene pushed the auto exposure long), not a
                # configuration error — the frame simply yields no symbols
                # and the link degrades to zero throughput, the physically
                # correct outcome at excessive range.
                return NO_BANDS
            # Equalized mode: keep the grid; colors will be recovered by
            # deconvolution downstream.  A minimal nominal plateau keeps
            # the per-band bookkeeping (cores anchor timing only).
            plateau = min(3.0, pitch)
        if rows < pitch:
            return NO_BANDS

        lag = max(1, min(int(round(smear_rows)), int(pitch / 2)))
        g = self._boundary_signal(scanline_lab, lag)
        phase = self._grid_phase(g)

        # The boundary signal with window [r, r + lag] peaks when the window
        # is centered on a transition center, which sits smear/2 before the
        # next symbol's first pure row.  Symbol-start rows therefore sit at
        # phase + lag/2 + smear/2 (mod pitch).
        first_start = phase + lag / 2.0 + smear_rows / 2.0
        first_start -= pitch * np.ceil(first_start / pitch)

        cell_count = int(np.ceil((rows - first_start) / pitch))
        starts = first_start + pitch * np.arange(max(cell_count, 0))
        if starts.size == 0:
            return NO_BANDS
        cell_lo = np.round(starts).astype(int)
        cell_hi = np.round(starts + pitch).astype(int)
        lo = np.maximum(np.floor(starts).astype(int), 0)
        hi = np.minimum(np.ceil(starts + plateau).astype(int), rows)
        # Partial symbols at the frame edges drop out here.
        keep = (hi - lo) >= max(3, 0.4 * plateau)
        cell_lo, cell_hi, lo, hi = (
            cell_lo[keep], cell_hi[keep], lo[keep], hi[keep]
        )
        if self.coring == "min_variance":
            core_start, core_stop, labs = self._min_variance_cores(
                scanline_lab, lo, hi
            )
        else:
            core_start, core_stop, labs = self._central_cores(
                scanline_lab, lo, hi
            )
        return BandColumns(
            np.maximum(cell_lo, 0),
            np.minimum(cell_hi, rows),
            core_start,
            core_stop,
            labs,
        )

    def _central_cores(
        self, scanline_lab: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Core bounds and colors of every central-coring band at once.

        A plain mean over each trimmed pure plateau.  Unlike the dispersion
        search, the mean has no selection bias, so scanline-correlated
        pipeline noise enters at its full 1/sqrt(plateau) floor — shrinking
        plateaus (higher symbol rates) estimate worse.  The per-band core
        means come from one cumulative sum over the scanlines.
        """
        rows = scanline_lab.shape[0]
        trim = ((hi - lo) * self.edge_trim_fraction).astype(int)
        core_start = lo + trim
        core_stop = hi - trim
        narrow = (core_stop - core_start) < 3
        core_start = np.where(narrow, lo, core_start)
        core_stop = np.where(
            narrow, np.minimum(np.maximum(hi, core_start + 3), rows), core_stop
        )
        sums = np.zeros((rows + 1, 3))
        np.cumsum(scanline_lab, axis=0, out=sums[1:])
        labs = (sums[core_stop] - sums[core_start]) / (
            (core_stop - core_start)[:, np.newaxis]
        )
        return core_start, core_stop, labs

    def _min_variance_cores(
        self, scanline_lab: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Core bounds and colors of every ``min_variance`` band.

        Each band's color is the median of the purest window of its pure
        plateau (``[lo, hi)``).
        """
        core_start = np.empty_like(lo)
        core_stop = np.empty_like(lo)
        labs = np.empty((lo.size, 3))
        for position, (plateau_lo, plateau_hi) in enumerate(
            zip(lo.tolist(), hi.tolist())
        ):
            rows = scanline_lab[plateau_lo:plateau_hi]
            width = plateau_hi - plateau_lo
            core_len = max(3, int(width * (1.0 - 2 * self.edge_trim_fraction)))
            if core_len >= width:
                offset, core = 0, rows
            else:
                offset, core = self._purest_window(rows, core_len)
            # Median resists residual transition rows better than the mean.
            labs[position] = np.median(core, axis=0)
            core_start[position] = plateau_lo + offset
            core_stop[position] = plateau_lo + offset + core.shape[0]
        return core_start, core_stop, labs

    @staticmethod
    def _purest_window(rows: np.ndarray, core_len: int) -> Tuple[int, np.ndarray]:
        """Offset and rows of the minimum-chroma-dispersion window.

        The pure plateau sits at an offset that depends on residual phase
        error, so a fixed trim can miss it; the minimum-variance window
        finds it regardless.
        """
        n = rows.shape[0]
        if core_len >= n:
            return 0, rows
        chroma = rows[:, 1:]
        # Rolling mean/variance via cumulative sums: O(n) per band.
        padded = np.vstack([np.zeros((1, 2)), np.cumsum(chroma, axis=0)])
        padded_sq = np.vstack(
            [np.zeros((1, 2)), np.cumsum(chroma**2, axis=0)]
        )
        window_sum = padded[core_len:] - padded[:-core_len]
        window_sq = padded_sq[core_len:] - padded_sq[:-core_len]
        variance = (window_sq / core_len - (window_sum / core_len) ** 2).sum(
            axis=1
        )
        best = int(np.argmin(variance))
        return best, rows[best : best + core_len]
