"""Unit tests for the ISI equalizer (exposure deconvolution)."""

import numpy as np
import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.frame import CapturedFrame
from repro.color.cielab import xyz_to_lab
from repro.color.srgb import linear_rgb_to_xyz, linear_to_srgb
from repro.exceptions import DemodulationError
from repro.rx.equalizer import (
    _solve_tridiagonal,
    deconvolve_frame,
    frame_to_scanline_linear,
)
from repro.rx.segmentation import NO_BANDS, BandColumns


def synthetic_frame(symbol_colors, pitch=20, exposure_rows=14, cols=8):
    """Render scanlines by exactly the exposure-mixing model.

    Scanline r integrates [r, r + exposure_rows) over the piecewise-constant
    symbol sequence; the frame stores the gamma-encoded result.
    """
    colors = np.asarray(symbol_colors, dtype=float)
    count = colors.shape[0]
    rows = count * pitch
    linear = np.zeros((rows, 3))
    for r in range(rows):
        lo, hi = r, r + exposure_rows
        acc = np.zeros(3)
        for k in range(count):
            s_lo, s_hi = k * pitch, (k + 1) * pitch
            overlap = max(0.0, min(hi, s_hi) - max(lo, s_lo))
            acc += overlap * colors[k]
        # Beyond the last symbol: hold the final color (keeps edges clean).
        tail = max(0.0, hi - rows)
        acc += tail * colors[-1]
        linear[r] = acc / exposure_rows
    pixels = np.clip(
        np.round(linear_to_srgb(linear) * 255), 0, 255
    ).astype(np.uint8)
    pixels = np.repeat(pixels[:, np.newaxis, :], cols, axis=1)
    return CapturedFrame(
        index=0,
        pixels=pixels,
        start_time=0.0,
        row_period=1e-5,
        exposure=ExposureSettings(exposure_rows * 1e-5, 100),
    )


def grid_bands(count, pitch=20):
    starts = np.arange(count) * pitch
    return BandColumns(
        starts, starts + pitch, starts + 2, starts + 5, np.zeros((count, 3))
    )


COLORS = np.array(
    [
        [0.6, 0.1, 0.1],
        [0.1, 0.6, 0.1],
        [0.45, 0.45, 0.45],
        [0.1, 0.1, 0.6],
        [0.6, 0.5, 0.1],
        [0.45, 0.45, 0.45],
    ]
)


class TestDeconvolution:
    def test_recovers_exact_colors_under_heavy_mixing(self):
        frame = synthetic_frame(COLORS, exposure_rows=14)
        bands = deconvolve_frame(frame, grid_bands(len(COLORS)), smear_rows=14.0)
        expected = xyz_to_lab(linear_rgb_to_xyz(COLORS))
        recovered = bands.lab
        # Interior symbols recover near-exactly; frame-edge symbols carry
        # boundary effects.
        assert np.allclose(recovered[1:-1], expected[1:-1], atol=2.0)

    def test_near_full_exposure_still_recovers(self):
        frame = synthetic_frame(COLORS, exposure_rows=19)
        bands = deconvolve_frame(frame, grid_bands(len(COLORS)), smear_rows=19.0)
        expected = xyz_to_lab(linear_rgb_to_xyz(COLORS))
        recovered = bands.lab
        assert np.allclose(recovered[1:-1], expected[1:-1], atol=4.0)

    def test_zero_smear_reduces_to_plateau(self):
        frame = synthetic_frame(COLORS, exposure_rows=1)
        bands = deconvolve_frame(frame, grid_bands(len(COLORS)), smear_rows=1.0)
        expected = xyz_to_lab(linear_rgb_to_xyz(COLORS))
        recovered = bands.lab
        assert np.allclose(recovered[1:-1], expected[1:-1], atol=2.0)

    def test_geometry_preserved(self):
        frame = synthetic_frame(COLORS)
        original = grid_bands(len(COLORS))
        bands = deconvolve_frame(frame, original, smear_rows=14.0)
        for name in ("row_start", "row_stop", "core_start", "core_stop"):
            assert np.array_equal(getattr(bands, name), getattr(original, name))

    def test_dark_bands_keep_their_segmented_color(self):
        frame = synthetic_frame(COLORS, exposure_rows=14)
        given = grid_bands(len(COLORS))
        given.lab[:] = [60.0, 0.0, 0.0]
        given.lab[2] = [4.0, 1.0, -1.0]
        bands = deconvolve_frame(
            frame, given, smear_rows=14.0, preserve_dark_below=10.0
        )
        expected = xyz_to_lab(linear_rgb_to_xyz(COLORS))
        assert np.array_equal(bands.lab[2], [4.0, 1.0, -1.0])
        assert np.allclose(bands.lab[[1, 3, 4]], expected[[1, 3, 4]], atol=2.0)

    def test_empty_bands(self):
        frame = synthetic_frame(COLORS)
        assert len(deconvolve_frame(frame, NO_BANDS, smear_rows=10.0)) == 0

    def test_negative_smear_rejected(self):
        frame = synthetic_frame(COLORS)
        with pytest.raises(DemodulationError):
            deconvolve_frame(frame, grid_bands(len(COLORS)), smear_rows=-1.0)


class TestScanlineLinear:
    def test_shape_and_range(self):
        frame = synthetic_frame(COLORS)
        linear = frame_to_scanline_linear(frame)
        assert linear.shape == (len(COLORS) * 20, 3)
        assert linear.min() >= 0.0 and linear.max() <= 1.0


class TestTridiagonalSolver:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        n = 12
        diag = rng.random(n) + 2.0
        off = rng.random(n - 1) * 0.5
        rhs = rng.random((n, 3))
        matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = np.linalg.solve(matrix, rhs)
        solution = _solve_tridiagonal(diag, off, rhs)
        assert np.allclose(solution, expected, atol=1e-9)

    def test_single_element(self):
        out = _solve_tridiagonal(
            np.array([2.0]), np.zeros(0), np.array([[4.0, 6.0, 8.0]])
        )
        assert np.allclose(out, [[2.0, 3.0, 4.0]])
