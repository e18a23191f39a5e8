"""ISI equalization by exposure deconvolution.

At high symbol rates the exposure window spans a large fraction of each
band, so most scanlines observe a *mixture* of two adjacent symbols.  The
standard receiver works around that by estimating colors from the shrinking
pure plateau; this module instead exploits that the mixing is exactly
known: a scanline whose exposure window starts at row ``r`` integrates
symbol ``k`` and ``k+1`` with weights given by the window's overlap with
each symbol period.  Stacking every scanline yields an overdetermined
linear system

    s(r) = w_k(r) * c_k + w_{k+1}(r) * c_{k+1}

in *linear* RGB (optical mixing is linear before gamma), whose least-squares
solution recovers the per-symbol colors ``c_k`` using **all** rows — pure
and mixed alike.  The normal equations are tridiagonal (each row touches at
most two symbols), so a frame solves in O(symbols).

This is the inter-symbol-interference half of the paper's §10 future work;
combined with the plateau estimators it lets the receiver keep climbing in
symbol rate after pure plateaus vanish.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.camera.frame import CapturedFrame
from repro.camera.noise import dequantize_8bit
from repro.color.cielab import xyz_to_lab
from repro.color.srgb import linear_rgb_to_xyz, srgb_to_linear
from repro.exceptions import DemodulationError
from repro.rx.segmentation import BandColumns


def frame_to_scanline_linear(frame: CapturedFrame) -> np.ndarray:
    """Per-scanline mean *linear* RGB — the domain where mixing is linear."""
    srgb = dequantize_8bit(frame.pixels)
    return srgb_to_linear(srgb).mean(axis=1)


def _window_weights(
    row: float, exposure_rows: float, cell_starts: np.ndarray
) -> Optional[tuple]:
    """Which two symbols a scanline's exposure window overlaps, and how much.

    ``cell_starts`` are the grid-cell start rows (window-start coordinates);
    the window covers ``[row, row + exposure_rows)``.
    """
    window_lo = row
    window_hi = row + max(exposure_rows, 1e-9)
    index = int(np.searchsorted(cell_starts, window_lo, side="right")) - 1
    if index < 0 or index + 1 >= len(cell_starts):
        return None
    boundary = cell_starts[index + 1]
    first = max(0.0, min(window_hi, boundary) - window_lo)
    second = max(0.0, window_hi - max(window_lo, boundary))
    total = first + second
    if total <= 0:
        return None
    return index, first / total, second / total


def deconvolve_frame(
    frame: CapturedFrame,
    bands: BandColumns,
    smear_rows: float,
    ridge: float = 1e-3,
    preserve_dark_below: Optional[float] = None,
) -> BandColumns:
    """Re-estimate every band's color by exposure deconvolution.

    ``bands`` must come from the grid segmenter (their ``row_start`` values
    define the cell grid).  Returns the same bounds with the deconvolved
    colors in CIELab; geometry and timing anchors are preserved.

    ``ridge`` regularizes the normal equations (scanline noise would
    otherwise leak between neighbouring symbols through the near-singular
    boundary rows).

    ``preserve_dark_below`` keeps the segmenter's direct plateau estimate
    for bands whose measured lightness is already under the threshold: an
    off symbol carries no chroma to recover, and at the black floor the
    regularized solve can only *add* leakage from lit neighbours — enough
    to push a dark band across the off-lightness decision boundary and
    corrupt the white/off anchors the packet assembler keys on.
    """
    if not len(bands):
        return bands
    if smear_rows < 0:
        raise DemodulationError(f"smear_rows must be >= 0, got {smear_rows}")

    scanlines = frame_to_scanline_linear(frame)
    rows = scanlines.shape[0]
    count = len(bands)

    # Grid cell starts in window-start coordinates: the band's first pure
    # row IS the cell start used by the segmenter.
    cell_starts = bands.row_start.astype(float)
    # Append the implied end of the final cell for boundary bookkeeping.
    pitch = (
        (cell_starts[-1] - cell_starts[0]) / (count - 1)
        if count > 1
        else float(bands.row_stop[0] - bands.row_start[0])
    )
    grid = np.append(cell_starts, cell_starts[-1] + pitch)

    # Accumulate tridiagonal normal equations: (A^T A) c = A^T s.
    diag = np.full(count, ridge)
    off = np.zeros(max(count - 1, 0))
    rhs = np.zeros((count, 3))
    row_indices = np.arange(rows, dtype=float)
    usable = (row_indices >= grid[0]) & (row_indices + smear_rows < grid[-1])
    for r in np.nonzero(usable)[0]:
        weights = _window_weights(float(r), smear_rows, grid)
        if weights is None:
            continue
        k, w1, w2 = weights
        if k >= count:
            continue
        diag[k] += w1 * w1
        rhs[k] += w1 * scanlines[r]
        if k + 1 < count:
            diag[k + 1] += w2 * w2
            off[k] += w1 * w2
            rhs[k + 1] += w2 * scanlines[r]

    colors = _solve_tridiagonal(diag, off, rhs)
    colors = np.clip(colors, 0.0, 1.0)
    lab = xyz_to_lab(linear_rgb_to_xyz(colors))

    if preserve_dark_below is not None:
        dark = bands.lab[:, 0] < preserve_dark_below
        lab = np.where(dark[:, np.newaxis], bands.lab, lab)
    return BandColumns(
        bands.row_start, bands.row_stop, bands.core_start, bands.core_stop, lab
    )


def _solve_tridiagonal(
    diag: np.ndarray, off: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Thomas algorithm for the symmetric tridiagonal normal equations."""
    n = diag.shape[0]
    if n == 1:
        return rhs / max(diag[0], 1e-12)
    c_prime = np.zeros(n - 1)
    d_prime = np.zeros((n, rhs.shape[1]))
    denom = diag[0]
    c_prime[0] = off[0] / denom
    d_prime[0] = rhs[0] / denom
    for i in range(1, n):
        denom = diag[i] - off[i - 1] * c_prime[i - 1]
        denom = denom if abs(denom) > 1e-12 else 1e-12
        if i < n - 1:
            c_prime[i] = off[i] / denom
        d_prime[i] = (rhs[i] - off[i - 1] * d_prime[i - 1]) / denom
    solution = np.zeros_like(d_prime)
    solution[-1] = d_prime[-1]
    for i in range(n - 2, -1, -1):
        solution[i] = d_prime[i] - c_prime[i] * solution[i + 1]
    return solution
