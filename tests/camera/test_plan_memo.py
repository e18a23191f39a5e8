"""The capture noise-plan memo: invisible to results, small in memory.

:func:`~repro.camera.capture.cached_capture_plan` memoizes a recording's
draw plan keyed on the exact RNG state plus the :class:`DrawPlanSpec`.
The contract pinned here:

* a warm memo gives the same frames and the same post-recording generator
  state as a cold one, on both capture paths;
* it is least recently used and keeps at most two plans;
* a plan over the byte budget is returned but not kept;
* a miss evicts before it draws, so drawing a third plan never holds more
  than two plans' bytes (measured with ``tracemalloc``).
"""

import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

import repro.camera.capture as capture
from repro.camera.capture import (
    DrawPlanSpec,
    cached_capture_plan,
    draw_capture_plan,
)
from repro.phy.symbols import data_symbol
from repro.util import lanes as util_lanes

from tests.conftest import make_tiny_device


@pytest.fixture
def memo(monkeypatch):
    """A private, empty plan memo for the duration of one test."""
    fresh = OrderedDict()
    monkeypatch.setattr(capture, "_PLAN_CACHE", fresh)
    return fresh


def _spec(frames, rows=200, cols=64, prnu=0.0, row_noise=0.0):
    return DrawPlanSpec(
        frame_count=frames,
        rows=rows,
        cols=cols,
        jitter_sigma=1e-5,
        drift_sigma=0.0,
        prnu=prnu,
        row_noise=row_noise,
    )


def _plan_bytes(plan):
    arrays = (plan.jitter, plan.drift, plan.prnu_gain, plan.shot, plan.row_gain)
    return sum(array.nbytes for array in arrays if array is not None)


def _memo_specs(memo):
    return [key[1] for key in memo]


def _record(modulator8, path, seed=11):
    camera = make_tiny_device().make_camera(
        simulated_columns=16, seed=seed, capture_path=path
    )
    waveform = modulator8.waveform([data_symbol(i % 8) for i in range(300)])
    frames = camera.record(waveform, duration=0.2, frame_jitter_s=1e-5)
    return camera, frames


class TestMemoIsInvisible:
    @pytest.mark.parametrize("path", ["batched", "reference"])
    def test_warm_memo_matches_cold(self, memo, modulator8, path):
        cold_camera, cold = _record(modulator8, path)
        assert len(memo) == 1
        (plan, _), = memo.values()
        warm_camera, warm = _record(modulator8, path)
        assert len(memo) == 1
        assert next(iter(memo.values()))[0] is plan, "second recording missed"
        assert len(cold) == len(warm) > 0
        for a, b in zip(cold, warm):
            assert a.start_time == b.start_time
            assert a.exposure == b.exposure
            assert np.array_equal(a.pixels, b.pixels)
        assert (
            cold_camera.rng.bit_generator.state
            == warm_camera.rng.bit_generator.state
        )

    def test_hit_restores_the_end_state_of_a_draw(self, memo):
        spec = _spec(3)
        drawn_rng = np.random.default_rng(5)
        drawn = draw_capture_plan(spec, drawn_rng)
        cached_capture_plan(spec, np.random.default_rng(5))
        hit_rng = np.random.default_rng(5)
        hit = cached_capture_plan(spec, hit_rng)
        assert hit_rng.bit_generator.state == drawn_rng.bit_generator.state
        assert np.array_equal(hit.shot, drawn.shot)
        assert not hit.shot.flags.writeable


class TestEviction:
    def test_least_recently_used_plan_goes(self, memo):
        a, b, c = _spec(2), _spec(3), _spec(4)
        cached_capture_plan(a, np.random.default_rng(1))
        cached_capture_plan(b, np.random.default_rng(2))
        cached_capture_plan(a, np.random.default_rng(1))  # a hit
        assert _memo_specs(memo) == [b, a]
        cached_capture_plan(c, np.random.default_rng(3))
        assert _memo_specs(memo) == [a, c]

    def test_plan_over_budget_is_returned_not_kept(self, memo, monkeypatch):
        small, large = _spec(1, cols=8), _spec(4)
        cached_capture_plan(small, np.random.default_rng(1))
        budget = _plan_bytes(draw_capture_plan(large, np.random.default_rng(2)))
        monkeypatch.setattr(capture, "_PLAN_CACHE_MAX_BYTES", budget - 1)
        rng = np.random.default_rng(2)
        plan = cached_capture_plan(large, rng)
        assert plan.shot.shape == (4, 200, 64, 3)
        assert _memo_specs(memo) == [small]
        reference = np.random.default_rng(2)
        draw_capture_plan(large, reference)
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_byte_budget_evicts_older_plans(self, memo, monkeypatch):
        a, b = _spec(2), _spec(3)
        budget = _plan_bytes(draw_capture_plan(b, np.random.default_rng(2)))
        monkeypatch.setattr(capture, "_PLAN_CACHE_MAX_BYTES", budget)
        cached_capture_plan(a, np.random.default_rng(1))
        cached_capture_plan(b, np.random.default_rng(2))
        assert _memo_specs(memo) == [b]

    @pytest.mark.parametrize(
        "prnu,row_noise", [(0, 0), (0.01, 0), (0, 0.02), (0.01, 0.02)]
    )
    def test_spec_predicts_plan_bytes(self, prnu, row_noise):
        spec = _spec(3, rows=50, cols=7, prnu=prnu, row_noise=row_noise)
        plan = draw_capture_plan(spec, np.random.default_rng(0))
        assert spec.nbytes == _plan_bytes(plan)

    def test_third_plan_never_coexists_with_two(self, memo):
        """Drawing a third distinct plan evicts first: the traced peak stays
        within two plans' bytes (plus a quarter plan of slack for keys,
        states and small draws), where keep-then-evict would hold three."""
        specs = [_spec(8, prnu=0.01, row_noise=0.02) for _ in range(3)]
        tracemalloc.start()
        try:
            for seed, spec in enumerate(specs):
                plan = cached_capture_plan(spec, np.random.default_rng(seed))
                plan_bytes = _plan_bytes(plan)
                del plan
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * plan_bytes + plan_bytes // 4, (peak, plan_bytes)
        assert len(memo) == 2


def test_pool_worker_starts_with_empty_memo_and_its_lane_share(memo, monkeypatch):
    """A pool worker drops the plans it inherited and takes its CPU share."""
    cached_capture_plan(_spec(2), np.random.default_rng(0))
    assert len(memo) == 1
    monkeypatch.setattr(util_lanes, "_CONCURRENT_CELLS", 1)
    lanes = util_lanes.lane_count()
    capture.start_pool_worker(2)
    assert not memo
    assert util_lanes.lane_count() == max(1, lanes // 2)
