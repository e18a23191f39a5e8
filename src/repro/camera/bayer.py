"""Bayer color-filter-array mosaic and bilinear demosaicing (paper §6.1).

Each photodiode sees only one color through its filter; the ISP estimates
the missing channels from neighbours (demosaicing).  At the sharp color
transitions between rolling-shutter bands this interpolation mixes adjacent
symbols' colors — a genuine inter-symbol-interference mechanism that grows
as bands get narrower, contributing to the SER trend of Fig 9.

The RGGB pattern is used (rows alternate R-G and G-B filters, Fig 5a).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CameraError

#: Channel index sampled at each position of the 2x2 RGGB tile.
_RGGB = np.array([[0, 1], [1, 2]])


def bayer_mask(rows: int, cols: int) -> np.ndarray:
    """``(rows, cols)`` array of channel indices (0=R, 1=G, 2=B), RGGB tiling."""
    if rows <= 0 or cols <= 0:
        raise CameraError(f"rows and cols must be positive, got {rows}x{cols}")
    row_idx = np.arange(rows) % 2
    col_idx = np.arange(cols) % 2
    return _RGGB[row_idx[:, np.newaxis], col_idx[np.newaxis, :]]


def bayer_mosaic(image: np.ndarray) -> np.ndarray:
    """Sample a full-color linear image through the RGGB filter array.

    ``image`` is ``(rows, cols, 3)``; the result is ``(rows, cols)`` — one
    filtered sample per photodiode.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 3 or image.shape[2] != 3:
        raise CameraError(f"expected (rows, cols, 3) image, got {image.shape}")
    mask = bayer_mask(image.shape[0], image.shape[1])
    return np.take_along_axis(image, mask[..., np.newaxis], axis=2)[..., 0]


# -- batched (leading-axes) variants --------------------------------------
#
# The vectorized capture engine (camera.capture) runs the CFA stage over a
# whole recording block at once: ``mosaic_from_rows`` samples the
# row-constant sensor image straight into a ``(frames, rows, cols)`` mosaic
# and ``demosaic_bilinear_nd`` fills it back to three channels.  Both keep
# the input dtype (the batched pipeline is float32), apply
# per-frame-independent arithmetic only, and the demosaic shares one
# geometry memo so the presence masks and neighbour counts are computed once
# per sensor shape.

#: (rows, cols) -> (per-channel presence (3, rows, cols) bool,
#:                  per-channel 3x3 neighbour counts (3, rows, cols) float)
_GEOMETRY_MEMO: "dict" = {}
_GEOMETRY_MEMO_MAX = 8


def _demosaic_geometry(rows: int, cols: int):
    """Presence masks and neighbour counts for an RGGB sensor shape.

    Returns ``(presence, counts_by_dtype, has_holes)`` where
    ``counts_by_dtype`` lazily caches the neighbour counts cast to each
    requested mosaic dtype and ``has_holes`` flags geometries (degenerate
    1-row/1-column sensors) where some window contains no sample at all.
    """
    key = (rows, cols)
    hit = _GEOMETRY_MEMO.get(key)
    if hit is not None:
        return hit
    mask = bayer_mask(rows, cols)
    presence = np.empty((3, rows, cols), dtype=bool)
    counts = np.empty((3, rows, cols), dtype=float)
    for channel in range(3):
        pres = mask == channel
        padded = np.pad(pres.astype(float), 1, mode="edge")
        count_sum = np.zeros((rows, cols), dtype=float)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                count_sum += padded[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
        presence[channel] = pres
        counts[channel] = count_sum
    presence.flags.writeable = False
    counts.flags.writeable = False
    entry = (presence, {counts.dtype: counts}, bool((counts == 0).any()))
    if len(_GEOMETRY_MEMO) >= _GEOMETRY_MEMO_MAX:
        _GEOMETRY_MEMO.pop(next(iter(_GEOMETRY_MEMO)))
    _GEOMETRY_MEMO[key] = entry
    return entry


def _geometry_counts(counts_by_dtype: "dict", dtype) -> np.ndarray:
    counts = counts_by_dtype.get(dtype)
    if counts is None:
        counts = next(iter(counts_by_dtype.values())).astype(dtype)
        counts.flags.writeable = False
        counts_by_dtype[dtype] = counts
    return counts


def prepare_demosaic(rows: int, cols: int, dtype) -> None:
    """Fill the geometry memo for one sensor shape and mosaic dtype.

    Demosaics that run concurrently on one shape then only read the memo.
    """
    _, counts_by_dtype, _ = _demosaic_geometry(rows, cols)
    _geometry_counts(counts_by_dtype, np.dtype(dtype))


def mosaic_from_rows(row_rgb: np.ndarray, vignette: np.ndarray) -> np.ndarray:
    """RGGB mosaic of a row-constant image under a vignette, built directly.

    ``row_rgb`` is ``(..., rows, 3)`` — one color per scanline — and
    ``vignette`` is ``(rows, cols)``.  The result ``(..., rows, cols)`` equals
    ``bayer_mosaic`` of the broadcast image
    ``row_rgb[..., :, None, :] * vignette[..., None]`` sample for sample:
    each mosaic site is the same single product of its row's filtered
    channel and its vignette gain, computed by four strided multiplies, so
    the three-channel image two thirds of which the mosaic discards is never
    built.  The dtype follows numpy promotion of the two inputs.
    """
    row_rgb = np.asarray(row_rgb)
    vignette = np.asarray(vignette)
    if (
        row_rgb.ndim < 2
        or row_rgb.shape[-1] != 3
        or vignette.ndim != 2
        or row_rgb.shape[-2] != vignette.shape[0]
    ):
        raise CameraError(
            f"expected (..., rows, 3) rows and a (rows, cols) vignette, got "
            f"{row_rgb.shape} and {vignette.shape}"
        )
    rows, cols = vignette.shape
    mosaic = np.empty(
        row_rgb.shape[:-2] + (rows, cols),
        dtype=np.result_type(row_rgb, vignette),
    )
    for row0 in (0, 1):
        for col0 in (0, 1):
            np.multiply(
                row_rgb[..., row0::2, np.newaxis, _RGGB[row0, col0]],
                vignette[row0::2, col0::2],
                out=mosaic[..., row0::2, col0::2],
            )
    return mosaic


def _generic_fill_nd(
    mosaic: np.ndarray,
    presence: np.ndarray,
    counts: np.ndarray,
    has_holes: bool,
) -> np.ndarray:
    """Count-based separable 3x3 fill — works for any sensor geometry."""
    rows, cols = mosaic.shape[-2:]
    pad_width = [(0, 0)] * (mosaic.ndim - 2) + [(1, 1), (1, 1)]
    out = np.empty(mosaic.shape + (3,), dtype=mosaic.dtype)
    for channel in range(3):
        pres = presence[channel]
        plane = mosaic * pres
        padded = np.pad(plane, pad_width, mode="edge")
        # Separable 3x3 box sum: column triples first, then row triples —
        # six shifted adds instead of nine.
        col_sum = (
            padded[..., 0:cols]
            + padded[..., 1 : 1 + cols]
            + padded[..., 2 : 2 + cols]
        )
        value_sum = (
            col_sum[..., 0:rows, :]
            + col_sum[..., 1 : 1 + rows, :]
            + col_sum[..., 2 : 2 + rows, :]
        )
        count_sum = counts[channel]
        with np.errstate(invalid="ignore", divide="ignore"):
            filled = value_sum / count_sum
        if has_holes:
            filled = np.where(count_sum > 0, filled, 0)
        np.copyto(filled, plane, where=pres)
        out[..., channel] = filled
    return out


def _edge_triple(x: np.ndarray) -> np.ndarray:
    """Sliding triple sum along the last axis with replicated end pads.

    Matches the generic kernel's grouping exactly: interior elements sum as
    ``(left + center) + right``; the replicated pads make the first element
    ``(x0 + x0) + x1`` and the last ``(x[-2] + x[-1]) + x[-1]``.
    """
    out = np.empty_like(x)
    out[..., 1:-1] = (x[..., :-2] + x[..., 1:-1]) + x[..., 2:]
    out[..., 0] = (x[..., 0] + x[..., 0]) + x[..., 1]
    out[..., -1] = (x[..., -2] + x[..., -1]) + x[..., -1]
    return out


def _parity_fill_nd(
    mosaic: np.ndarray, presence: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Parity-class fill for even-dimension RGGB sensors (the common case).

    On an even ``rows x cols`` grid every absent site has a fixed neighbour
    pattern per 2x2 parity class, so the interior reduces to strided
    neighbour averages — no masked plane, no pad, and each output element
    costs at most three adds on quarter-size views instead of six full-size
    shifted adds.  The additions reproduce the generic separable grouping
    (column triple first, then row triple, zero terms dropped — dropping a
    ``+ 0.0`` term is exact for the non-negative-or-finite values here), so
    the result is bitwise identical to :func:`_generic_fill_nd`.  Border
    rows/columns touch the replicated edge pad; they are recomputed with the
    generic kernel on two-wide strips whose windows match the full-array
    windows exactly.
    """
    rows, cols = mosaic.shape[-2:]
    m = mosaic
    out = np.empty(mosaic.shape + (3,), dtype=mosaic.dtype)

    # Channel 0 (R at even rows, even cols).
    red = out[..., 0]
    red[..., 0::2, 0::2] = m[..., 0::2, 0::2]
    red[..., 0::2, 1 : cols - 1 : 2] = (
        m[..., 0::2, 0 : cols - 2 : 2] + m[..., 0::2, 2::2]
    ) / 2.0
    red[..., 1 : rows - 1 : 2, 0::2] = (
        m[..., 0 : rows - 2 : 2, 0::2] + m[..., 2::2, 0::2]
    ) / 2.0
    red[..., 1 : rows - 1 : 2, 1 : cols - 1 : 2] = (
        (m[..., 0 : rows - 2 : 2, 0 : cols - 2 : 2] + m[..., 0 : rows - 2 : 2, 2::2])
        + (m[..., 2::2, 0 : cols - 2 : 2] + m[..., 2::2, 2::2])
    ) / 4.0

    # Channel 2 (B at odd rows, odd cols) — the mirrored pattern.
    blue = out[..., 2]
    blue[..., 1::2, 1::2] = m[..., 1::2, 1::2]
    blue[..., 1::2, 2::2] = (
        m[..., 1::2, 1 : cols - 2 : 2] + m[..., 1::2, 3::2]
    ) / 2.0
    blue[..., 2::2, 1::2] = (
        m[..., 1 : rows - 2 : 2, 1::2] + m[..., 3::2, 1::2]
    ) / 2.0
    blue[..., 2::2, 2::2] = (
        (m[..., 1 : rows - 2 : 2, 1 : cols - 2 : 2] + m[..., 1 : rows - 2 : 2, 3::2])
        + (m[..., 3::2, 1 : cols - 2 : 2] + m[..., 3::2, 3::2])
    ) / 4.0

    # Channel 1 (G at even-odd and odd-even); absent sites average the
    # 4-neighbour cross with the generic grouping (up + (left+right)) + down.
    green = out[..., 1]
    green[..., 0::2, 1::2] = m[..., 0::2, 1::2]
    green[..., 1::2, 0::2] = m[..., 1::2, 0::2]
    cross = m[..., 1 : rows - 2 : 2, 2::2] + (
        m[..., 2::2, 1 : cols - 2 : 2] + m[..., 2::2, 3::2]
    )
    cross += m[..., 3::2, 2::2]
    green[..., 2::2, 2::2] = cross / 4.0
    cross = m[..., 0 : rows - 2 : 2, 1 : cols - 1 : 2] + (
        m[..., 1 : rows - 1 : 2, 0 : cols - 2 : 2] + m[..., 1 : rows - 1 : 2, 2::2]
    )
    cross += m[..., 2::2, 1 : cols - 1 : 2]
    green[..., 1 : rows - 1 : 2, 1 : cols - 1 : 2] = cross / 4.0

    # Border rows/cols see the replicated edge pad; recompute them with the
    # generic kernel's exact arithmetic on two-wide slices.  The generic
    # kernel pads the masked plane before summing, and replicating a row
    # commutes with the column triple, so a border value is the column
    # triple (with ``(p0 + p0) + p1``-style pad grouping) followed by the
    # row triple — reproduced here term by term, bitwise identical.
    for channel in range(3):
        pres = presence[channel]
        chan = out[..., channel]
        edge = m[..., :, 0:2] * pres[:, 0:2]
        col_sum = (edge[..., 0] + edge[..., 0]) + edge[..., 1]
        filled = _edge_triple(col_sum) / counts[channel][:, 0]
        np.copyto(filled, m[..., :, 0], where=pres[:, 0])
        chan[..., :, 0] = filled
        edge = m[..., :, cols - 2 :] * pres[:, cols - 2 :]
        col_sum = (edge[..., 0] + edge[..., 1]) + edge[..., 1]
        filled = _edge_triple(col_sum) / counts[channel][:, cols - 1]
        np.copyto(filled, m[..., :, cols - 1], where=pres[:, cols - 1])
        chan[..., :, cols - 1] = filled
        edge = m[..., 0:2, :] * pres[0:2, :]
        top_sum = _edge_triple(edge[..., 0, :])
        filled = ((top_sum + top_sum) + _edge_triple(edge[..., 1, :])) / counts[
            channel
        ][0]
        np.copyto(filled, m[..., 0, :], where=pres[0])
        chan[..., 0, :] = filled
        edge = m[..., rows - 2 :, :] * pres[rows - 2 :, :]
        bottom_sum = _edge_triple(edge[..., 1, :])
        filled = (
            (_edge_triple(edge[..., 0, :]) + bottom_sum) + bottom_sum
        ) / counts[channel][rows - 1]
        np.copyto(filled, m[..., rows - 1, :], where=pres[rows - 1])
        chan[..., rows - 1, :] = filled
    return out


def demosaic_bilinear_nd(mosaic: np.ndarray) -> np.ndarray:
    """Bilinear demosaic over ``(..., rows, cols)``, preserving dtype.

    Each missing channel of the RGGB mosaic is the average of that
    channel's samples in the 3x3 window around the pixel.  Simple bilinear
    interpolation is what low-latency phone pipelines of the paper's era
    effectively approximate; its channel mixing at band edges is the ISI
    behaviour we want to exercise, not an artifact to avoid.  Batched over
    any leading axes: every operation is elementwise or a fixed spatial
    shift, so a batched call is bitwise identical to per-frame calls.  Even
    sensor dimensions (every real device) take the parity-class fast path;
    odd or degenerate shapes fall back to the count-based generic kernel.
    Both produce bitwise-identical output.
    """
    mosaic = np.asarray(mosaic)
    if mosaic.ndim < 2:
        raise CameraError(f"expected (..., rows, cols) mosaic, got {mosaic.shape}")
    rows, cols = mosaic.shape[-2:]
    presence, counts_by_dtype, has_holes = _demosaic_geometry(rows, cols)
    counts = _geometry_counts(counts_by_dtype, mosaic.dtype)
    if rows % 2 == 0 and cols % 2 == 0 and rows >= 4 and cols >= 4:
        return _parity_fill_nd(mosaic, presence, counts)
    return _generic_fill_nd(mosaic, presence, counts, has_holes)
