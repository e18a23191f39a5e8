"""Unit tests for the Bayer mosaic / demosaic stage."""

import numpy as np
import pytest

from repro.camera.bayer import (
    bayer_mask,
    bayer_mosaic,
    demosaic_bilinear,
    mosaic_from_rows,
)
from repro.exceptions import CameraError


class TestMask:
    def test_rggb_tile(self):
        mask = bayer_mask(4, 4)
        assert mask[0, 0] == 0  # R
        assert mask[0, 1] == 1  # G
        assert mask[1, 0] == 1  # G
        assert mask[1, 1] == 2  # B

    def test_green_density_half(self):
        mask = bayer_mask(100, 100)
        assert (mask == 1).mean() == pytest.approx(0.5)
        assert (mask == 0).mean() == pytest.approx(0.25)

    def test_bad_shape(self):
        with pytest.raises(CameraError):
            bayer_mask(0, 5)


class TestMosaic:
    def test_samples_correct_channel(self):
        image = np.zeros((4, 4, 3))
        image[..., 0] = 1.0  # pure red image
        mosaic = bayer_mosaic(image)
        mask = bayer_mask(4, 4)
        assert np.all(mosaic[mask == 0] == 1.0)
        assert np.all(mosaic[mask != 0] == 0.0)

    def test_bad_input(self):
        with pytest.raises(CameraError):
            bayer_mosaic(np.zeros((4, 4)))


class TestMosaicFromRows:
    """``mosaic_from_rows`` must equal ``bayer_mosaic`` of the broadcast
    float32 image bit for bit (a float32 -> float64 cast is exact)."""

    @pytest.mark.parametrize(
        "rows, cols",
        [(4, 4), (6, 8), (5, 4), (4, 7), (7, 9), (1, 1), (1, 6), (5, 1), (2, 1)],
    )
    def test_matches_mosaic_of_broadcast(self, rows, cols):
        rng = np.random.default_rng(rows * 31 + cols)
        row_rgb = rng.random((3, rows, 3), dtype=np.float32) * 4000.0
        vignette = rng.random((rows, cols), dtype=np.float32)
        mosaic = mosaic_from_rows(row_rgb, vignette)
        assert mosaic.dtype == np.float32
        assert mosaic.shape == (3, rows, cols)
        for frame in range(3):
            image = row_rgb[frame, :, np.newaxis, :] * vignette[:, :, np.newaxis]
            expected = bayer_mosaic(image)
            assert np.array_equal(mosaic[frame].astype(float), expected)

    def test_single_frame_matches_batched(self):
        rng = np.random.default_rng(0)
        row_rgb = rng.random((4, 10, 3), dtype=np.float32)
        vignette = rng.random((10, 6), dtype=np.float32)
        batched = mosaic_from_rows(row_rgb, vignette)
        for frame in range(4):
            assert np.array_equal(
                mosaic_from_rows(row_rgb[frame], vignette), batched[frame]
            )

    @pytest.mark.parametrize(
        "row_shape, vignette_shape",
        [((4, 2), (4, 4)), ((5, 3), (4, 4)), ((3,), (3, 3)), ((4, 3), (4,))],
    )
    def test_bad_input(self, row_shape, vignette_shape):
        with pytest.raises(CameraError):
            mosaic_from_rows(np.zeros(row_shape), np.zeros(vignette_shape))


class TestDemosaic:
    def test_uniform_image_exact(self):
        image = np.full((16, 16, 3), 0.5)
        out = demosaic_bilinear(bayer_mosaic(image))
        assert np.allclose(out, 0.5, atol=1e-12)

    def test_gray_image_preserved(self):
        gradient = np.linspace(0.1, 0.9, 16)
        image = np.repeat(
            np.repeat(gradient[np.newaxis, :, np.newaxis], 16, axis=0), 3, axis=2
        )
        out = demosaic_bilinear(bayer_mosaic(image))
        assert np.allclose(out, image, atol=0.1)

    def test_horizontal_band_edge_fringing(self):
        """Color transitions across scanlines acquire mixed pixels — the ISI
        mechanism this stage exists to model."""
        image = np.zeros((20, 8, 3))
        image[:10, :, 0] = 1.0  # red band
        image[10:, :, 2] = 1.0  # blue band
        out = demosaic_bilinear(bayer_mosaic(image))
        # Rows near the boundary carry both channels.
        boundary = out[9:11]
        assert boundary[..., 0].max() > 0.05
        assert boundary[..., 2].max() > 0.05

    def test_interior_bands_recovered(self):
        image = np.zeros((30, 8, 3))
        image[:15, :, 0] = 1.0
        image[15:, :, 2] = 1.0
        out = demosaic_bilinear(bayer_mosaic(image))
        # Away from the edge the band colors survive.
        assert out[5, 4, 0] == pytest.approx(1.0, abs=0.05)
        assert out[25, 4, 2] == pytest.approx(1.0, abs=0.05)

    def test_bad_input(self):
        with pytest.raises(CameraError):
            demosaic_bilinear(np.zeros((4, 4, 3)))
