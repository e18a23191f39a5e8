"""Unit tests for the CSK demodulator."""

import numpy as np
import pytest

from repro.csk.calibration import CalibrationTable
from repro.csk.demodulator import (
    CskDemodulator,
    DecisionKind,
    nominal_calibration,
)
from repro.exceptions import DemodulationError


@pytest.fixture
def calibrated_table(constellation8):
    table = CalibrationTable(constellation8)
    points = constellation8.as_array()
    chroma = (points - points.mean(axis=0)) * 120.0
    table.update(chroma, np.zeros(2))
    return table, chroma


@pytest.fixture
def demodulator(calibrated_table):
    table, _ = calibrated_table
    return CskDemodulator(table)


def lab_row(lightness, chroma):
    return np.array([lightness, chroma[0], chroma[1]])


def decide(demodulator, lab):
    """The decision for one band, from the columns detect classifies by."""
    return demodulator.decide_columns(np.asarray(lab)[np.newaxis]).decisions()[0]


class TestDecisions:
    def test_data_symbols_recovered(self, demodulator, calibrated_table):
        _, chroma = calibrated_table
        for index in range(8):
            decision = decide(demodulator, lab_row(70.0, chroma[index]))
            assert decision.kind is DecisionKind.DATA
            assert decision.index == index
            assert decision.confident

    def test_off_detected_by_lightness(self, demodulator):
        decision = decide(demodulator, np.array([5.0, 40.0, -20.0]))
        assert decision.kind is DecisionKind.OFF

    def test_white_detected_by_chroma(self, demodulator):
        decision = decide(demodulator, np.array([80.0, 0.5, -0.5]))
        assert decision.kind is DecisionKind.WHITE

    def test_far_sample_unconfident(self, demodulator, calibrated_table):
        _, chroma = calibrated_table
        midpoint = (chroma[0] + chroma[1]) / 2 + 30.0
        decision = decide(demodulator, lab_row(70.0, midpoint))
        if decision.kind is DecisionKind.DATA:
            assert decision.distance > 0

    def test_stream_ordering(self, demodulator, calibrated_table):
        _, chroma = calibrated_table
        lab = np.array(
            [
                [5.0, 0.0, 0.0],
                [80.0, 0.0, 0.0],
                lab_row(70.0, chroma[3]),
            ]
        )
        decisions = demodulator.decide_stream(lab)
        assert [d.kind for d in decisions] == [
            DecisionKind.OFF,
            DecisionKind.WHITE,
            DecisionKind.DATA,
        ]
        assert decisions[2].index == 3

    def test_bad_shape_rejected(self, demodulator):
        with pytest.raises(DemodulationError):
            demodulator.decide_stream(np.zeros((3, 2)))

    def test_invalid_thresholds(self, calibrated_table):
        table, _ = calibrated_table
        with pytest.raises(DemodulationError):
            CskDemodulator(table, off_lightness=0)
        with pytest.raises(DemodulationError):
            CskDemodulator(table, acceptance_delta_e=-1)


class TestNominalCalibration:
    def test_builds_usable_table(self, constellation8, modulator8):
        table = nominal_calibration(constellation8, modulator8)
        assert table.is_calibrated
        assert table.references.shape == (8, 2)

    def test_nominal_references_distinct(self, constellation8, modulator8):
        table = nominal_calibration(constellation8, modulator8)
        refs = table.references
        distances = np.linalg.norm(refs[:, np.newaxis] - refs[np.newaxis], axis=-1)
        assert distances[~np.eye(len(refs), dtype=bool)].min() > 2.0


class TestDarkShortCircuit:
    """Dark rows are settled by the lightness test alone: the calibration
    table must never be consulted for them (satellite: decide_stream
    short-circuits gap-straddling all-dark streams)."""

    @staticmethod
    def _counting_match(table, monkeypatch):
        calls = []
        original = table.distance_matrix

        def counted(chroma):
            calls.append(np.asarray(chroma).shape)
            return original(chroma)

        monkeypatch.setattr(table, "distance_matrix", counted)
        return calls

    def test_all_dark_stream_never_touches_calibration(
        self, demodulator, monkeypatch
    ):
        calls = self._counting_match(demodulator.calibration, monkeypatch)
        lab = np.array([[2.0, 50.0, -30.0], [5.0, -80.0, 10.0], [0.0, 0.0, 0.0]])
        decisions = demodulator.decide_stream(lab)
        assert calls == []
        assert all(d.kind is DecisionKind.OFF for d in decisions)
        assert all(d.confident for d in decisions)

    def test_mixed_stream_matches_lit_rows_only(
        self, demodulator, calibrated_table, monkeypatch
    ):
        _, chroma = calibrated_table
        calls = self._counting_match(demodulator.calibration, monkeypatch)
        lab = np.stack(
            [
                lab_row(2.0, chroma[0]),  # dark: below off_lightness
                lab_row(60.0, chroma[1]),
                lab_row(1.0, chroma[2]),  # dark
                lab_row(60.0, chroma[3]),
            ]
        )
        decisions = demodulator.decide_stream(lab)
        assert calls == [(2, 2)]  # one batched match over the 2 lit rows
        assert decisions[0].kind is DecisionKind.OFF
        assert decisions[2].kind is DecisionKind.OFF
        assert decisions[1].kind is DecisionKind.DATA
        assert decisions[1].index == 1
        assert decisions[3].index == 3

    def test_empty_stream(self, demodulator, monkeypatch):
        calls = self._counting_match(demodulator.calibration, monkeypatch)
        assert demodulator.decide_stream(np.empty((0, 3))) == []
        assert calls == []
