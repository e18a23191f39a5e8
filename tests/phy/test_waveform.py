"""Unit and property tests for the optical waveform."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.phy.waveform import EXTEND_CYCLE, EXTEND_OFF, OpticalWaveform


def make_waveform(levels, rate=1000.0, extend=EXTEND_OFF):
    return OpticalWaveform(np.asarray(levels, dtype=float), rate, extend=extend)


@pytest.fixture
def simple():
    return make_waveform([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


class TestConstruction:
    def test_duration(self, simple):
        assert simple.duration == pytest.approx(0.003)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            OpticalWaveform(np.zeros((3, 2)), 1000.0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            OpticalWaveform(np.zeros((0, 3)), 1000.0)

    def test_rejects_bad_extend(self):
        with pytest.raises(ConfigurationError):
            make_waveform([[1, 1, 1]], extend="wrap")


class TestSampling:
    def test_off_extension_dark(self, simple):
        indices = simple.symbol_index_at(np.array([0.0100, -0.001]))
        assert np.array_equal(indices, [-1, -1])

    def test_cyclic_extension_wraps(self):
        wf = make_waveform([[1, 0, 0], [0, 1, 0]], extend=EXTEND_CYCLE)
        # 2.5 ms -> symbol 0 again
        assert wf.symbol_index_at(np.array([0.0025]))[0] == 0

    def test_symbol_index_cyclic(self):
        wf = make_waveform([[1, 0, 0], [0, 1, 0]], extend=EXTEND_CYCLE)
        assert wf.symbol_index_at(np.array([0.0035]))[0] == 1

    def test_symbol_index_off_is_minus_one(self, simple):
        assert simple.symbol_index_at(np.array([1.0]))[0] == -1


class TestIntegration:
    def test_single_symbol_window(self, simple):
        integral = simple.integrate(0.0, 0.001)
        assert np.allclose(integral, [0.001, 0.0, 0.0])

    def test_spanning_window(self, simple):
        mean = simple.mean_xyz(0.0005, 0.0015)
        assert np.allclose(mean, [0.5, 0.5, 0.0])

    def test_whole_stream_mean(self, simple):
        mean = simple.mean_xyz(0.0, simple.duration)
        assert np.allclose(mean, [1 / 3, 1 / 3, 1 / 3])

    def test_cyclic_wrap_integral(self):
        wf = make_waveform([[1, 0, 0], [0, 1, 0]], extend=EXTEND_CYCLE)
        # Integrate over exactly 3 full cycles.
        integral = wf.integrate(0.0, 3 * wf.duration)
        assert np.allclose(integral, 3 * wf.integrate(0.0, wf.duration))

    def test_cyclic_cross_boundary_window(self):
        wf = make_waveform([[1, 0, 0], [0, 1, 0]], extend=EXTEND_CYCLE)
        mean = wf.mean_xyz(0.0015, 0.0025)  # second half of s1 + first of s0
        assert np.allclose(mean, [0.5, 0.5, 0.0])

    def test_vectorized_windows(self, simple):
        starts = np.array([0.0, 0.001, 0.002])
        stops = starts + 0.001
        means = simple.mean_xyz(starts, stops)
        assert np.allclose(means, np.eye(3))

    def test_reversed_window_rejected(self, simple):
        with pytest.raises(ConfigurationError):
            simple.integrate(0.002, 0.001)

    def test_zero_width_mean_rejected(self, simple):
        with pytest.raises(ConfigurationError):
            simple.mean_xyz(0.001, 0.001)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=0.01),
        st.floats(min_value=1e-5, max_value=0.01),
    )
    def test_additivity_property(self, start, width):
        wf = make_waveform(
            np.random.default_rng(0).random((7, 3)), extend=EXTEND_CYCLE
        )
        mid = start + width / 2
        stop = start + width
        whole = wf.integrate(start, stop)
        parts = wf.integrate(start, mid) + wf.integrate(mid, stop)
        assert np.allclose(whole, parts, atol=1e-12)


class TestConcatenate:
    def test_joined_duration(self, simple):
        joined = OpticalWaveform.concatenate([simple, simple])
        assert joined.num_symbols == 6

    def test_rate_mismatch_rejected(self, simple):
        other = make_waveform([[1, 1, 1]], rate=2000.0)
        with pytest.raises(ConfigurationError):
            OpticalWaveform.concatenate([simple, other])
