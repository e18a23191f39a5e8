"""Unit tests for frame preprocessing."""

import tracemalloc

import numpy as np
import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.frame import CapturedFrame
from repro.exceptions import DemodulationError
from repro.rx import preprocess
from repro.rx.preprocess import (
    column_color_variance,
    frame_to_scanline_lab,
    frames_to_scanline_lab,
)


def make_frame(pixels):
    return CapturedFrame(
        index=0,
        pixels=pixels.astype(np.uint8),
        start_time=0.0,
        row_period=1e-5,
        exposure=ExposureSettings(1e-4, 100),
    )


class TestScanlineReduction:
    def test_output_shape(self):
        frame = make_frame(np.full((50, 10, 3), 128))
        assert frame_to_scanline_lab(frame).shape == (50, 3)

    def test_gray_rows_near_neutral(self):
        frame = make_frame(np.full((20, 10, 3), 180))
        lab = frame_to_scanline_lab(frame)
        assert np.all(np.abs(lab[:, 1:]) < 1.0)

    def test_dark_rows_low_lightness(self):
        pixels = np.full((30, 10, 3), 200)
        pixels[10:20] = 5
        lab = frame_to_scanline_lab(make_frame(pixels), smooth_rows=1)
        assert lab[15, 0] < 10
        assert lab[5, 0] > 60

    def test_red_rows_positive_a(self):
        pixels = np.zeros((10, 8, 3))
        pixels[..., 0] = 220
        lab = frame_to_scanline_lab(make_frame(pixels))
        assert np.all(lab[:, 1] > 30)

    def test_smoothing_reduces_row_noise(self):
        rng = np.random.default_rng(0)
        pixels = np.clip(
            128 + rng.normal(0, 30, (200, 1, 3)), 0, 255
        ).repeat(8, axis=1)
        rough = frame_to_scanline_lab(make_frame(pixels), smooth_rows=1)
        smooth = frame_to_scanline_lab(make_frame(pixels), smooth_rows=5)
        assert smooth[:, 1].std() < rough[:, 1].std()


class TestColumnColorVariance:
    def test_lab_below_rgb_under_brightness_gradient(self):
        """Fig 8(b): a brightness ramp inflates RGB variance, not ab variance."""
        ramp = np.linspace(0.3, 1.0, 40)[:, np.newaxis, np.newaxis]
        pixels = (np.array([0.8, 0.2, 0.2]) * ramp * 255).repeat(10, axis=1)
        frame_pixels = pixels.astype(np.uint8)
        rgb_var = column_color_variance(frame_pixels, slice(0, 40), space="rgb")
        lab_var = column_color_variance(frame_pixels, slice(0, 40), space="lab")
        assert lab_var < rgb_var

    def test_invalid_space(self):
        with pytest.raises(DemodulationError):
            column_color_variance(np.zeros((4, 4, 3), dtype=np.uint8), slice(0, 4),
                                  space="hsv")

    def test_empty_slice(self):
        with pytest.raises(DemodulationError):
            column_color_variance(np.zeros((4, 4, 3), dtype=np.uint8), slice(0, 0))


class TestBatchedScanlines:
    """frames_to_scanline_lab is the vectorized receive-side entry point:
    one stacked pass must be bitwise identical to the per-frame loop."""

    @staticmethod
    def _frames(count=5, rows=40, cols=12, seed=3):
        rng = np.random.default_rng(seed)
        return [
            make_frame(rng.integers(0, 256, size=(rows, cols, 3)))
            for _ in range(count)
        ]

    # Frame counts, each decoded under row budgets that straddle the 40-row
    # frames: one row, 7 rows (not a divisor of 40), 8 rows (a divisor) and
    # the default budget, which holds a whole 12-column frame.
    @pytest.mark.parametrize("count", [1, 4, 5, 9])
    def test_bitwise_identical_to_per_frame(self, count, monkeypatch):
        frames = self._frames(count=count)
        references = [frame_to_scanline_lab(frame) for frame in frames]
        for block_rows in (1, 7, 8, None):
            if block_rows is not None:
                monkeypatch.setattr(
                    preprocess, "_BLOCK_ELEMENTS", block_rows * 12 * 3
                )
            batched = frames_to_scanline_lab(frames)
            assert len(batched) == len(frames)
            for frame, scanlines, reference in zip(frames, batched, references):
                assert scanlines.dtype == reference.dtype
                assert np.array_equal(scanlines, reference)
                assert np.array_equal(frame_to_scanline_lab(frame), reference)

    def test_smoothing_parameter_forwarded(self):
        frames = self._frames(count=3)
        for smooth in (1, 5):
            batched = frames_to_scanline_lab(frames, smooth_rows=smooth)
            for frame, scanlines in zip(frames, batched):
                assert np.array_equal(
                    scanlines, frame_to_scanline_lab(frame, smooth_rows=smooth)
                )

    def test_empty_recording(self):
        assert frames_to_scanline_lab([]) == []

    def test_mismatched_shapes_rejected(self):
        frames = self._frames(count=2) + self._frames(count=1, rows=20)
        with pytest.raises(DemodulationError, match="one shape"):
            frames_to_scanline_lab(frames)

    def test_transient_footprint_bounded_by_chunk(self):
        """Decoding a longer recording costs at most its own pixel bytes in
        extra transient memory: gamma decode runs chunk by chunk, so no
        recording-wide index copy (8 B per channel) or float32 linear image
        (4 B per channel) is ever held."""

        def peak_bytes(frames):
            tracemalloc.start()
            try:
                frames_to_scanline_lab(frames)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short = self._frames(count=4, rows=1000, cols=64)
        long = self._frames(count=20, rows=1000, cols=64)
        pixel_bytes = sum(frame.pixels.nbytes for frame in long)
        growth = peak_bytes(long) - peak_bytes(short)
        assert growth <= pixel_bytes, (growth, pixel_bytes)


def _einsum_oracle(pixels, smooth_rows=3):
    """Scanline Lab by a column-wise float32 ``einsum`` over the whole frame.

    The layout-independent reference for the column-major mean: gamma
    decode, fused XYZ matmul, cube root and toe on the frame as given, then
    ``einsum`` with ``1/cols`` weights, Lab mixing and the box smooth.
    """
    rows, cols = pixels.shape[:2]
    linear = np.take(preprocess._SRGB_BYTE_TO_LINEAR_F32, pixels.reshape(-1, 3))
    ratios = linear @ preprocess._RGB_TO_XYZ_RATIOS_F32
    toe = ratios <= preprocess._LAB_TOE_THRESHOLD
    f = np.where(
        toe,
        ratios * np.float32(preprocess._LAB_TOE_SCALE)
        + np.float32(preprocess._LAB_TOE_OFFSET),
        np.cbrt(ratios),
    )
    weights = np.full(cols, 1.0 / cols, dtype=np.float32)
    means = np.einsum("rck,c->rk", f.reshape(rows, cols, 3), weights)
    lab = means.astype(np.float64) @ preprocess._LAB_BASIS + preprocess._LAB_OFFSET
    if smooth_rows > 1:
        kernel = np.ones(smooth_rows) / smooth_rows
        lab = np.stack(
            [np.convolve(lab[:, k], kernel, mode="same") for k in range(3)], axis=1
        )
    return lab


class TestColumnMajorLayout:
    """The column-major mean is byte-identical to a column-wise ``einsum``
    whatever the pixel layout, frame shape or row blocking."""

    @staticmethod
    def _frame(pixels):
        return CapturedFrame(
            index=0,
            pixels=pixels,
            start_time=0.0,
            row_period=1e-5,
            exposure=ExposureSettings(1e-4, 100),
        )

    @staticmethod
    def _pixels(rows, cols, seed=5):
        return np.random.default_rng(seed).integers(
            0, 256, size=(rows, cols, 3), dtype=np.uint8
        )

    def _assert_matches_oracle(self, pixels, smooth_rows=3):
        lab = frame_to_scanline_lab(self._frame(pixels), smooth_rows)
        oracle = _einsum_oracle(np.ascontiguousarray(pixels), smooth_rows)
        assert lab.dtype == np.float64
        assert np.array_equal(lab, oracle)

    def test_strided_column_view(self):
        pixels = self._pixels(64, 24)[:, ::2]
        assert not pixels.flags.c_contiguous
        self._assert_matches_oracle(pixels)

    def test_fortran_order(self):
        pixels = np.asfortranarray(self._pixels(48, 17))
        assert not pixels.flags.c_contiguous
        self._assert_matches_oracle(pixels)

    # A 1-row frame is decoded unsmoothed: the box filter needs at least
    # ``smooth_rows`` scanlines.
    @pytest.mark.parametrize(
        "rows,cols,smooth_rows", [(1, 9, 1), (1, 1, 1), (30, 1, 3)]
    )
    def test_degenerate_frames(self, rows, cols, smooth_rows):
        self._assert_matches_oracle(self._pixels(rows, cols), smooth_rows)

    def test_rows_straddle_default_block(self):
        cols = 32
        block_rows = preprocess._BLOCK_ELEMENTS // (cols * 3)
        self._assert_matches_oracle(self._pixels(2 * block_rows + 1, cols))

    @pytest.mark.parametrize("block_rows", [1, 5, 6])
    def test_rows_straddle_patched_block(self, block_rows, monkeypatch):
        cols = 48
        monkeypatch.setattr(preprocess, "_BLOCK_ELEMENTS", block_rows * cols * 3 + 1)
        self._assert_matches_oracle(self._pixels(31, cols))


def _column_major_kernel(pixels, inv_cols):
    """The column-major Lab block the planar kernel replaced, kept as its
    byte-exact reference: pixels transposed to ``(cols, rows, 3)`` as
    3-byte elements, one ``(pixels, 3) @ (3, 3)`` matmul, and a sum over
    the outermost (column) axis."""
    rows, cols = pixels.shape[:2]
    pixel_bytes = np.dtype((np.void, 3))
    by_column = np.ascontiguousarray(
        np.ascontiguousarray(pixels).view(pixel_bytes)[..., 0].T
    )
    codes = by_column.view(np.uint8).reshape(-1, 3).astype(np.intp)
    linear = np.take(preprocess._SRGB_BYTE_TO_LINEAR_F32, codes)
    ratios = linear @ preprocess._RGB_TO_XYZ_RATIOS_F32
    f = np.cbrt(ratios, out=linear)
    toe = ratios <= preprocess._LAB_TOE_THRESHOLD
    ratios *= preprocess._LAB_TOE_SCALE
    ratios += preprocess._LAB_TOE_OFFSET
    np.copyto(f, ratios, where=toe)
    f *= inv_cols
    return np.add.reduce(f.reshape(cols, rows, 3), axis=0)


def _assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype == np.float32
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint32), expected.view(np.uint32))


class TestPlanarKernel:
    """The planar ``(3, cols, rows)`` block is bitwise the column-major one."""

    def test_every_srgb_byte_triple(self):
        """All 2**24 pixels, as one-column frames of 2**18 scanlines: each
        scanline mean is the pixel's own ``f(X/Xn)``."""
        codes = np.arange(1 << 24, dtype=np.uint32)
        one = np.float32(1.0)
        for lo in range(0, 1 << 24, 1 << 18):
            chunk = codes[lo:lo + (1 << 18)]
            pixels = np.stack(
                [chunk >> 16, (chunk >> 8) & 255, chunk & 255], axis=-1
            ).astype(np.uint8)[:, np.newaxis]
            _assert_same_bits(
                preprocess._column_mean_lab_f(pixels, one),
                _column_major_kernel(pixels, one),
            )

    # Frames and blocks of a lone scanline or pixel, short blocks, and the
    # receive path's tall frames: the column sums must add in order.
    @pytest.mark.parametrize(
        "rows,cols",
        [(1, 1), (1, 9), (1, 64), (2, 9), (7, 33), (40, 12), (800, 48),
         (1920, 32), (3, 1920)],
    )
    def test_multi_column_frames(self, rows, cols):
        pixels = np.random.default_rng(rows * cols).integers(
            0, 256, size=(rows, cols, 3), dtype=np.uint8
        )
        inv_cols = np.float32(1.0 / cols)
        expected = _column_major_kernel(pixels, inv_cols)
        _assert_same_bits(preprocess._column_mean_lab_f(pixels, inv_cols), expected)
        # A strided view of the same pixels converts to the same bits.
        strided = np.repeat(pixels, 2, axis=1)[:, ::2]
        _assert_same_bits(preprocess._column_mean_lab_f(strided, inv_cols), expected)

    def test_lone_pixel_blocks(self):
        """A one-pixel block (a 1x1 frame, or a frame's last scanline of
        one column) is a matrix-vector product in numpy, not a block one."""
        pixels = np.random.default_rng(11).integers(
            0, 256, size=(512, 1, 1, 3), dtype=np.uint8
        )
        one = np.float32(1.0)
        for pixel in pixels:
            _assert_same_bits(
                preprocess._column_mean_lab_f(pixel, one),
                _column_major_kernel(pixel, one),
            )
