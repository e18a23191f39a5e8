"""Lane safety: every item runs once, failures reach the caller, and no
lane thread outlives :func:`~repro.util.lanes.run_lanes`."""

import threading

import numpy as np
import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.frame import CapturedFrame
from repro.rx.preprocess import frame_to_scanline_lab, frames_to_scanline_lab
from repro.util import lanes


def _lane_threads():
    return [
        thread for thread in threading.enumerate()
        if thread.name.startswith(lanes.THREAD_PREFIX)
    ]


@pytest.fixture
def three_lanes(monkeypatch):
    monkeypatch.setattr(lanes, "lane_count", lambda: 3)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7])
def test_every_item_runs_once(count, three_lanes):
    done = []
    lanes.run_lanes(done.append, range(count))
    assert sorted(done) == list(range(count))
    assert not _lane_threads()


@pytest.mark.parametrize("lane_count", [2, 3])
@pytest.mark.parametrize("raiser", ["caller", "other"])
def test_lane_exception_reaches_caller(lane_count, raiser, monkeypatch):
    """Each lane holds one item at a barrier, so the raising item runs on
    the named lane: the calling thread, or an executor thread."""
    monkeypatch.setattr(lanes, "lane_count", lambda: lane_count)
    barrier = threading.Barrier(lane_count, timeout=30)
    caller = threading.current_thread()

    def work(item):
        barrier.wait()
        on_caller = threading.current_thread() is caller
        if on_caller == (raiser == "caller"):
            raise ValueError(f"lane failed on item {item}")

    with pytest.raises(ValueError, match="lane failed"):
        lanes.run_lanes(work, range(lane_count))
    assert not _lane_threads()


def _frame(seed):
    pixels = np.random.default_rng(seed).integers(
        0, 256, size=(40, 12, 3), dtype=np.uint8
    )
    return CapturedFrame(
        index=seed,
        pixels=pixels,
        start_time=0.0,
        row_period=1e-5,
        exposure=ExposureSettings(1e-4, 100),
    )


def test_single_frame_preprocess_starts_no_executor(three_lanes, monkeypatch):
    """The per-frame serve path never pays for an executor; a batch does."""
    started = []

    class Recording(lanes.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(lanes, "ThreadPoolExecutor", Recording)
    frame_to_scanline_lab(_frame(0))
    frames_to_scanline_lab([_frame(1)])
    assert not started
    frames_to_scanline_lab([_frame(2), _frame(3)])
    assert started == [1]
