"""Unit tests for the receiver calibration table."""

import numpy as np
import pytest

from repro.csk.calibration import CalibrationTable
from repro.exceptions import CalibrationError


@pytest.fixture
def table(constellation8):
    return CalibrationTable(constellation8)


def nominal_chroma(constellation, scale=120.0):
    """Synthetic received chroma: xy offsets from white, scaled to ab-like units."""
    points = constellation.as_array()
    center = points.mean(axis=0)
    return (points - center) * scale


class TestLifecycle:
    def test_uncalibrated_initially(self, table):
        assert not table.is_calibrated
        with pytest.raises(CalibrationError):
            table.references

    def test_full_update_calibrates(self, table, constellation8):
        table.update(nominal_chroma(constellation8), np.zeros(2))
        assert table.is_calibrated
        assert table.references.shape == (8, 2)
        assert table.updates_applied == 1

    def test_smoothing_blends(self, constellation8):
        table = CalibrationTable(constellation8, smoothing=0.5)
        first = nominal_chroma(constellation8)
        table.update(first)
        table.update(first + 10.0)
        assert np.allclose(table.references, first + 5.0)

    def test_invalid_smoothing(self, constellation8):
        with pytest.raises(CalibrationError):
            CalibrationTable(constellation8, smoothing=0.0)

    def test_wrong_shape_rejected(self, table):
        with pytest.raises(CalibrationError):
            table.update(np.zeros((4, 2)))

    def test_non_finite_rejected(self, table, constellation8):
        chroma = nominal_chroma(constellation8)
        chroma[0, 0] = np.nan
        with pytest.raises(CalibrationError):
            table.update(chroma)

    def test_white_reference(self, table, constellation8):
        table.update(nominal_chroma(constellation8), np.array([1.0, -2.0]))
        assert np.allclose(table.white_reference, [1.0, -2.0])

    def test_white_reference_missing(self, table, constellation8):
        table.update(nominal_chroma(constellation8))
        with pytest.raises(CalibrationError):
            table.white_reference


class TestPartialUpdates:
    def test_partial_below_fit_threshold(self, table, constellation8):
        chroma = nominal_chroma(constellation8)
        table.update_partial([0, 1], chroma[:2])
        assert not table.is_calibrated
        assert table.seen_count == 2

    def test_partial_accumulates(self, table, constellation8):
        chroma = nominal_chroma(constellation8)
        table.update_partial([0, 1, 2, 3], chroma[:4])
        # Affine extrapolation from 4 points fills the rest.
        assert table.is_calibrated

    def test_extrapolation_near_truth(self, constellation8):
        """The affine fill must land close to the true affine image."""
        table = CalibrationTable(constellation8)
        chroma = nominal_chroma(constellation8)
        table.update_partial([0, 1, 2, 3, 4], chroma[:5])
        assert table.is_calibrated
        assert np.allclose(table.references, chroma, atol=1e-6)

    def test_direct_observation_replaces_extrapolation(self, constellation8):
        table = CalibrationTable(constellation8)
        chroma = nominal_chroma(constellation8)
        table.update_partial([0, 1, 2, 3], chroma[:4])
        table.update_partial([7], chroma[7:8] + 3.0)
        assert np.allclose(table.references[7], chroma[7] + 3.0)

    def test_index_out_of_range(self, table):
        with pytest.raises(CalibrationError):
            table.update_partial([8], np.zeros((1, 2)))

    def test_length_mismatch(self, table):
        with pytest.raises(CalibrationError):
            table.update_partial([0, 1], np.zeros((3, 2)))


class TestMatching:
    def test_exact_match(self, table, constellation8):
        chroma = nominal_chroma(constellation8)
        table.update(chroma)
        indices, distances = table.match(chroma)
        assert np.array_equal(indices, np.arange(8))
        assert np.allclose(distances, 0.0)

    def test_noisy_match(self, table, constellation8):
        chroma = nominal_chroma(constellation8)
        table.update(chroma)
        rng = np.random.default_rng(0)
        noisy = chroma + rng.normal(0, 0.5, chroma.shape)
        indices, _ = table.match(noisy)
        assert np.array_equal(indices, np.arange(8))

    def test_match_before_calibration_raises(self, table):
        with pytest.raises(CalibrationError):
            table.match(np.zeros(2))
