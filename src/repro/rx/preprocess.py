"""Frame preprocessing: color-space conversion and dimension reduction.

Paper §7 steps 1-2: convert the received frame from RGB to CIELab (removing
the non-uniform brightness via the lightness channel) and collapse the 2-D
frame to one mean color per scanline to keep per-frame processing cheap on a
phone.

Every step before the column mean is local to a scanline, so frames are
converted in blocks of scanlines sized to keep float32 temporaries in
cache (:data:`_BLOCK_ELEMENTS`); blocking, like batching frames, never
changes a byte of the result.  Each block is computed planar, as
``(3, cols, rows)`` channel planes, so the color matmul is one
``(3, 3) @ (3, pixels)`` product and the column mean is a reduction over
the middle axis: one vectorized add of whole ``(3, rows)`` planes per
column, in column order.  A batched call converts its frames on the lanes
of :mod:`repro.util.lanes`, whole frames per lane, each lane writing only
its own frames' rows, so neither the lane count nor the batching can move
a byte; a single frame runs on the calling thread alone.  Each lane works
in its own scratch, made once per call on the calling thread: an index
buffer whose bytes also hold the float32 ratios and the toe mask, and a
float32 buffer for the linear values, so a block allocates no temporary
of its size.  A batched
call can also run a ``meanwhile`` callable on the calling thread while the
other lanes convert (:func:`repro.util.lanes.run_lanes`); the session
manager feeds a serving window that way.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.camera.frame import CapturedFrame
from repro.camera.noise import dequantize_8bit
from repro.color.cielab import xyz_to_lab
from repro.color.illuminants import ILLUMINANT_D65
from repro.color.srgb import SRGB_BYTE_TO_LINEAR, srgb_to_linear
from repro.color.srgb import SRGB_TO_XYZ_MATRIX, linear_rgb_to_xyz
from repro.exceptions import DemodulationError
from repro.util import lanes


def _read_only_f32(values: np.ndarray) -> np.ndarray:
    table = np.ascontiguousarray(values, dtype=np.float32)
    table.flags.writeable = False
    return table


#: Float32 fusion of the receive-path color chain.  An 8-bit frame has only
#: 256 distinct channel values, so gamma decode is a table lookup; the
#: XYZ matrix and the white-point division fuse into one matmul
#: (``ratios = linear @ (M.T / white)``), and Lab's channel mixing
#: (``L = 116 fy - 16`` etc.) is itself a matmul plus an offset.  The only
#: per-pixel transcendental left is the CIELab cube root.  Scanline means
#: scale every value by the float32 ``1/cols`` and sum the columns in
#: order, in float32; the result matches the reference
#: ``xyz_to_lab(linear_rgb_to_xyz(srgb_to_linear(...)))`` chain to float32
#: rounding (~1e-6 relative) — far below the ΔE = 2.3 decision scale.
_SRGB_BYTE_TO_LINEAR_F32 = _read_only_f32(SRGB_BYTE_TO_LINEAR)
_RGB_TO_XYZ_RATIOS_F32 = _read_only_f32(
    SRGB_TO_XYZ_MATRIX.T / ILLUMINANT_D65.XYZ[np.newaxis, :]
)
#: The same matrix for planar pixels: ``ratios = M.T @ linear``.
_RGB_TO_XYZ_RATIOS_T_F32 = _read_only_f32(_RGB_TO_XYZ_RATIOS_F32.T)
_LAB_BASIS = np.array(
    [[0.0, 500.0, 0.0], [116.0, -500.0, 200.0], [0.0, 0.0, -200.0]]
)
_LAB_BASIS.flags.writeable = False
_LAB_OFFSET = np.array([-16.0, 0.0, 0.0])
_LAB_OFFSET.flags.writeable = False
#: CIELab toe: f(t) = t / (3 δ²) + 4/29 for t <= δ³, δ = 6/29.
_LAB_TOE_THRESHOLD = (6.0 / 29.0) ** 3
_LAB_TOE_SCALE = 1.0 / (3.0 * (6.0 / 29.0) ** 2)
_LAB_TOE_OFFSET = 4.0 / 29.0
#: Pixel channel values per block of the fused conversion loop (cache
#: blocking): a block is as many scanlines of one frame as fit the budget,
#: so its float32 temporaries stay cache-sized whatever the frame geometry.
_BLOCK_ELEMENTS = 150_000


def _lab_scratch(values: int) -> Tuple[np.ndarray, np.ndarray]:
    """Scratch for :func:`_column_mean_lab_f` blocks of up to ``values``
    channel values: intp lookup indices and float32 linear values, 12
    bytes per value, the peak a block's own temporaries would reach.
    Both live in one allocation."""
    raw = np.empty(12 * values, dtype=np.uint8)
    return raw[: 8 * values].view(np.intp), raw[8 * values :].view(np.float32)


def _column_mean_lab_f(
    pixels: np.ndarray,
    inv_cols: np.float32,
    scratch: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """sRGB bytes ``(rows, cols, 3)`` -> column-mean Lab ``f(X/Xn)``.

    Widens the pixels to planar ``(3, cols, rows)`` lookup indices, then
    gamma decode by byte lookup, the fused RGB->XYZ/white matmul, the Lab
    cube root with its linear toe, scaling by ``inv_cols`` and a sum over
    the columns, giving ``(rows, 3)`` ready for the Lab channel mixing.
    Every step is local to a scanline, so any row range converts
    independently.  The sum runs over the middle axis, adding the columns
    in order in float32: the same sums as a column-wise weighted
    ``einsum``, byte for byte, where BLAS's blocked matmul reductions are
    not.

    The block works in ``scratch`` (:func:`_lab_scratch`, at least the
    block's size), or in scratch of its own when none is given.
    """
    rows, cols = pixels.shape[:2]
    values = 3 * cols * rows
    if scratch is None:
        scratch = _lab_scratch(values)
    index, linear = (buffer[:values] for buffer in scratch)
    # Indexing by intp skips np.take's per-call cast of uint8 indices.
    np.copyto(index.reshape(3, cols, rows), pixels.transpose(2, 1, 0))
    linear = linear.reshape(3, -1)
    # The codes are bytes, so "wrap" never wraps; unlike the default
    # "raise", it writes straight into ``out``.
    np.take(
        _SRGB_BYTE_TO_LINEAR_F32, index.reshape(3, -1), mode="wrap", out=linear
    )
    # The codes are spent: their bytes now hold the ratios and the toe mask.
    spare = index.view(np.uint8)
    ratios = spare[: 4 * values].view(np.float32).reshape(3, -1)
    toe = spare[4 * values : 5 * values].view(np.bool_).reshape(3, -1)
    # A lone scanline stays pixel-major: numpy would multiply a lone pixel
    # by gemv and add contiguous columns pairwise, both rounding unlike
    # the block kernel.
    lone = rows == 1
    if lone:
        np.copyto(ratios, (linear.T @ _RGB_TO_XYZ_RATIOS_F32).T)
    else:
        np.matmul(_RGB_TO_XYZ_RATIOS_T_F32, linear, out=ratios)
    f = np.cbrt(ratios, out=linear)
    np.less_equal(ratios, _LAB_TOE_THRESHOLD, out=toe)
    ratios *= _LAB_TOE_SCALE
    ratios += _LAB_TOE_OFFSET
    np.copyto(f, ratios, where=toe)
    f *= inv_cols
    if lone:
        return np.add.reduce(np.ascontiguousarray(f.T), axis=0)[np.newaxis]
    return np.add.reduce(f.reshape(3, cols, rows), axis=1).T


def _scanlines_from_pixels(
    frame_pixels: Sequence[np.ndarray],
    smooth_rows: int,
    meanwhile: Optional[Callable[[], object]] = None,
) -> np.ndarray:
    """Same-shape sRGB byte frames -> scanline Lab ``(frames, rows, 3)``.

    ``frame_pixels`` is a list of ``(rows, cols, 3)`` frames or one stacked
    ``(frames, rows, cols, 3)`` array.  The shared core of the single-frame
    and batched entry points: gamma decode by byte lookup, one fused
    RGB->XYZ/white matmul, the Lab cube root, column mean, one Lab-mixing
    matmul, box smooth.  Each frame is converted in blocks of scanlines
    holding at most :data:`_BLOCK_ELEMENTS` channel values, read as views of
    the frame, so a batched decode never stacks frames or holds a
    recording-wide index copy or linear image: its transient footprint is
    one block's scratch per lane, whatever the recording length.  The
    lanes (:func:`repro.util.lanes.run_lanes`, which runs ``meanwhile``)
    take whole frames, and each writes only its own frames' rows.  Every
    step is elementwise, a per-row matmul, or a per-frame
    reduction/convolution, so batched and per-frame calls are bitwise
    identical.  Frames with fewer scanlines
    than ``smooth_rows`` raise :class:`DemodulationError`.
    """
    frames = len(frame_pixels)
    rows, cols = frame_pixels[0].shape[:2]
    if smooth_rows > 1 and rows < smooth_rows:
        # A box filter longer than the frame has no "same"-length output.
        raise DemodulationError(
            f"frame has {rows} scanline(s), fewer than the "
            f"smooth_rows={smooth_rows} box filter"
        )
    # Every conversion step is row-local, so blocking cannot change a byte.
    block = max(1, min(rows, _BLOCK_ELEMENTS // (cols * 3)))
    # One block scratch per lane, all made here, before the output: made
    # by each lane in its own thread's heap, or after ``f_rows``, it left
    # a grid sweep's peak RSS 1.6-3 MB higher.
    spares = [
        _lab_scratch(block * cols * 3) for _ in range(lanes.lanes_for(frames))
    ]
    f_rows = np.empty((frames, rows, 3))
    inv_cols = np.float32(1.0 / cols)
    lane = threading.local()

    def convert(index: int) -> None:
        scratch = getattr(lane, "scratch", None)
        if scratch is None:
            scratch = lane.scratch = spares.pop()
        pixels = frame_pixels[index]
        for lo in range(0, rows, block):
            hi = min(lo + block, rows)
            f_rows[index, lo:hi] = _column_mean_lab_f(
                pixels[lo:hi], inv_cols, scratch
            )

    lanes.run_lanes(convert, range(frames), meanwhile)
    del lane, spares  # the scratch goes before the mixing below
    # Lab's channel mixing is linear, so it commutes with the column mean:
    # mix the (rows, 3) means instead of every pixel.
    scanlines = f_rows @ _LAB_BASIS
    scanlines += _LAB_OFFSET
    if smooth_rows > 1:
        kernel = np.ones(smooth_rows) / smooth_rows
        smoothed = np.empty_like(scanlines)
        for index in range(frames):
            for channel in range(3):
                smoothed[index, :, channel] = np.convolve(
                    scanlines[index, :, channel], kernel, mode="same"
                )
        scanlines = smoothed
    return scanlines


def frame_to_scanline_lab(
    frame: CapturedFrame, smooth_rows: int = 3
) -> np.ndarray:
    """Reduce a captured frame to per-scanline CIELab colors.

    Returns ``(rows, 3)`` — the mean (L, a, b) of each scanline.  Conversion
    happens per pixel *before* averaging (as the paper's receiver does), so
    the lightness non-uniformity is removed where it arises rather than
    being smeared into the mean.  A short box filter (``smooth_rows``)
    suppresses scanline-scale pipeline noise; it is narrow relative to the
    10-row minimum band width, so band edges stay sharp enough to segment.
    """
    return _scanlines_from_pixels(frame.pixels[np.newaxis], smooth_rows)[0]


def frames_to_scanline_lab(
    frames: Sequence[CapturedFrame],
    smooth_rows: int = 3,
    meanwhile: Optional[Callable[[], object]] = None,
) -> List[np.ndarray]:
    """Batched :func:`frame_to_scanline_lab` over a same-shape recording.

    One chunked gamma-decode/XYZ/Lab/mean pass over all frames instead of a
    Python loop of per-frame passes; returns one ``(rows, 3)`` array per
    frame, bitwise identical to the per-frame results.  All frames must
    share a pixel shape (recordings do — fault injectors preserve shapes and
    only ever drop whole frames).  ``meanwhile``, if given, runs once on the
    calling thread while the lanes convert
    (:func:`repro.util.lanes.run_lanes`); a call that converts nothing, or
    rejects its frames, returns or raises without running it.
    """
    if not frames:
        return []
    shape = frames[0].pixels.shape
    for frame in frames:
        if frame.pixels.shape != shape:
            raise DemodulationError(
                f"frames_to_scanline_lab needs one shape, got {shape} "
                f"and {frame.pixels.shape}"
            )
    scanlines = _scanlines_from_pixels(
        [frame.pixels for frame in frames], smooth_rows, meanwhile
    )
    return [scanlines[i] for i in range(len(frames))]


def column_color_variance(
    pixels: np.ndarray, row_slice: slice, space: str = "lab"
) -> float:
    """Variance of per-pixel distance from a band's mean color (Fig 8b).

    Computes, for the pixels of one band (a row range), the variance of the
    Euclidean distance from each pixel's color to the band's mean color —
    in CIELab's ab-plane (``space='lab'``) or raw RGB (``space='rgb'``).
    The paper uses this to show CIELab absorbs brightness non-uniformity.
    """
    pixels = np.asarray(pixels)
    band = dequantize_8bit(pixels[row_slice])
    if band.size == 0:
        raise DemodulationError("row_slice selects an empty band")
    if space == "rgb":
        samples = band.reshape(-1, 3) * 255.0
    elif space == "lab":
        linear = srgb_to_linear(band)
        lab = xyz_to_lab(linear_rgb_to_xyz(linear))
        samples = lab.reshape(-1, 3)[:, 1:]
    else:
        raise DemodulationError(f"space must be 'rgb' or 'lab', got {space!r}")
    mean = samples.mean(axis=0)
    distances = np.sqrt(np.sum((samples - mean) ** 2, axis=1))
    return float(distances.var())
