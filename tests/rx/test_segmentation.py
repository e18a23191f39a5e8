"""Unit tests for band segmentation."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.csk.calibration import CalibrationTable
from repro.csk.demodulator import CskDemodulator
from repro.exceptions import DemodulationError
from repro.rx.detector import SymbolDetector
from repro.rx.segmentation import MIN_BAND_ROWS, Band, BandSegmenter


def synth_scanlines(band_colors, band_rows=20, noise=0.0, seed=0):
    """Stack constant-color bands into a scanline Lab array."""
    rng = np.random.default_rng(seed)
    rows = []
    for color in band_colors:
        block = np.tile(np.asarray(color, dtype=float), (band_rows, 1))
        if noise:
            block[:, 1:] += rng.normal(0, noise, (band_rows, 2))
        rows.append(block)
    return np.vstack(rows)


WHITE = [80.0, 0.0, 0.0]
RED = [70.0, 60.0, 30.0]
GREEN = [75.0, -60.0, 40.0]
DARK = [4.0, 1.0, 1.0]


@pytest.fixture
def segmenter():
    return BandSegmenter(rows_per_symbol=20.0)


class TestConstruction:
    def test_rejects_narrow_bands(self):
        with pytest.raises(DemodulationError):
            BandSegmenter(rows_per_symbol=MIN_BAND_ROWS - 1)

    def test_rejects_bad_trim(self):
        from repro.exceptions import ColorBarsError

        with pytest.raises(ColorBarsError):
            BandSegmenter(20.0, edge_trim_fraction=0.6)


class TestBasicSegmentation:
    def test_distinct_colors_give_bands(self, segmenter):
        scanlines = synth_scanlines([RED, GREEN, WHITE, RED])
        bands = segmenter.segment(scanlines)
        assert len(bands) == 4

    def test_band_colors_recovered(self, segmenter):
        scanlines = synth_scanlines([RED, GREEN])
        bands = segmenter.segment(scanlines)
        assert np.allclose(bands[0].lab, RED, atol=1e-9)
        assert np.allclose(bands[1].lab, GREEN, atol=1e-9)

    def test_dark_band_detected(self, segmenter):
        scanlines = synth_scanlines([WHITE, DARK, WHITE])
        bands = segmenter.segment(scanlines)
        assert len(bands) == 3
        assert bands[1].lab[0] < 10

    def test_noise_tolerated(self, segmenter):
        scanlines = synth_scanlines([RED, GREEN, WHITE], noise=1.5)
        assert len(segmenter.segment(scanlines)) == 3

    def test_bad_input_shape(self, segmenter):
        with pytest.raises(DemodulationError):
            segmenter.segment(np.zeros((10, 2)))

    def test_negative_smear_rejected(self, segmenter):
        with pytest.raises(DemodulationError):
            segmenter.segment(synth_scanlines([RED]), smear_rows=-1)


class TestRunSplitting:
    def test_repeated_symbol_split(self, segmenter):
        """Two identical adjacent symbols form one run but two bands."""
        scanlines = synth_scanlines([RED], band_rows=40)
        bands = segmenter.segment(scanlines)
        assert len(bands) == 2

    def test_triple_run_split(self, segmenter):
        scanlines = synth_scanlines([GREEN], band_rows=61)
        assert len(segmenter.segment(scanlines)) == 3

    def test_sliver_dropped(self, segmenter):
        scanlines = synth_scanlines([RED, GREEN], band_rows=20)
        # Insert a 4-row sliver of white between them.
        sliver = np.vstack(
            [scanlines[:20], np.tile(WHITE, (4, 1)), scanlines[20:]]
        )
        bands = segmenter.segment(sliver)
        assert len(bands) == 2

    def test_sub_pitch_frame_yields_nothing(self, segmenter):
        # A frame shorter than one band pitch has no complete symbol.
        scanlines = synth_scanlines([RED], band_rows=12)
        assert segmenter.segment(scanlines) == []

    def test_edge_partial_band_kept_when_large(self, segmenter):
        # 1.6 symbols: one full band plus a >=40%-plateau partial at the edge.
        scanlines = synth_scanlines([RED], band_rows=32)
        assert len(segmenter.segment(scanlines)) == 2

    def test_sub_half_symbol_dropped(self, segmenter):
        # A 7-row run is both under MIN_BAND_ROWS and under half a symbol.
        scanlines = np.vstack(
            [np.tile(RED, (7, 1)), np.tile(GREEN, (40, 1))]
        )
        bands = segmenter.segment(scanlines)
        assert all(b.width >= 10 for b in bands)


def ramped_scanlines(band_colors, pitch=20, smear=8):
    """Bands with exposure-ramp transitions, as a real camera produces.

    Each symbol holds its color for ``pitch - smear`` rows and blends
    linearly into the next color over ``smear`` rows — the scanline
    signature of an exposure window ``smear`` rows long.
    """
    rows = []
    for index, color in enumerate(band_colors):
        color = np.asarray(color, dtype=float)
        next_color = np.asarray(
            band_colors[(index + 1) % len(band_colors)], dtype=float
        )
        rows.extend([color] * (pitch - smear))
        for step in range(smear):
            mix = (step + 1) / (smear + 1)
            rows.append(color * (1 - mix) + next_color * mix)
    return np.vstack(rows)


class TestSmearedTransitions:
    def test_one_band_per_symbol_under_heavy_smear(self):
        """With transitions eating 40% of each band, the grid must still
        yield exactly one band per symbol with the right colors."""
        segmenter = BandSegmenter(rows_per_symbol=20.0)
        colors = [RED, GREEN, WHITE, RED, WHITE, GREEN, RED, GREEN]
        scanlines = ramped_scanlines(colors, pitch=20, smear=8)
        bands = segmenter.segment(scanlines, smear_rows=8.0)
        assert len(bands) == len(colors)
        for band, color in zip(bands, colors):
            assert np.allclose(band.lab, color, atol=4.0)

    def test_dark_bands_located_under_smear(self):
        segmenter = BandSegmenter(rows_per_symbol=20.0)
        colors = [WHITE, DARK, WHITE, DARK, WHITE, WHITE]
        scanlines = ramped_scanlines(colors, pitch=20, smear=8)
        bands = segmenter.segment(scanlines, smear_rows=8.0)
        dark = [b for b in bands if b.lab[0] < 12]
        assert len(dark) == 2

    def test_band_pitch_regular(self):
        segmenter = BandSegmenter(rows_per_symbol=20.0)
        colors = [RED, GREEN] * 6
        scanlines = ramped_scanlines(colors, pitch=20, smear=6)
        bands = segmenter.segment(scanlines, smear_rows=6.0)
        centers = (bands.core_start + bands.core_stop - 1) / 2.0
        gaps = np.diff(centers)
        assert np.allclose(gaps, 20.0, atol=4.0)

    def test_excessive_smear_degrades_gracefully(self):
        # Exposure spanning the whole band leaves no pure scanlines: the
        # frame yields nothing (the link collapses, as at excessive range)
        # rather than raising — exposure is runtime channel state.
        segmenter = BandSegmenter(rows_per_symbol=20.0)
        scanlines = synth_scanlines([RED, GREEN])
        assert segmenter.segment(scanlines, smear_rows=19.0) == []


class TestCoreExtraction:
    def test_core_within_band(self, segmenter):
        scanlines = synth_scanlines([RED, GREEN])
        for band in segmenter.segment(scanlines):
            assert band.row_start <= band.core_start < band.core_stop <= band.row_stop

    def test_core_avoids_contaminated_edge(self):
        """The min-variance core must land on the pure plateau."""
        segmenter = BandSegmenter(rows_per_symbol=30.0)
        # Band with a contaminated leading ramp (transition rows).
        ramp = np.linspace(0, 1, 12)[:, np.newaxis]
        transition = np.asarray(GREEN) * (1 - ramp) + np.asarray(RED) * ramp
        band_rows = np.vstack([transition, np.tile(RED, (18, 1))])
        scanlines = np.vstack([np.tile(GREEN, (30, 1)), band_rows])
        bands = segmenter.segment(scanlines, smear_rows=12.0)
        red_bands = [b for b in bands if b.lab[1] > 30]
        assert red_bands
        assert np.allclose(red_bands[-1].lab, RED, atol=3.0)

    def test_center_row_uses_core(self, segmenter, constellation8):
        """The detector times a band at the centre row of its core."""
        bands = segmenter.segment(synth_scanlines([RED]))
        # One row per second and a 2 s exposure: mid_time - 1 is the row.
        clock = SimpleNamespace(
            index=0, start_time=0.0, row_period=1.0,
            exposure=ExposureSettings(2.0, 100),
        )
        detector = SymbolDetector(CskDemodulator(CalibrationTable(constellation8)))
        center = detector.detect(clock, bands).record["mid_time"][0] - 1.0
        assert bands.core_start[0] <= center <= bands.core_stop[0] - 1
