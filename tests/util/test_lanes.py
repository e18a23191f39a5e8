"""Lane safety: every item runs once, failures reach the caller, and no
lane thread outlives :func:`~repro.util.lanes.run_lanes`, with or without
the caller's ``meanwhile`` work."""

import threading
import time

import numpy as np
import pytest

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.frame import CapturedFrame
from repro.rx.preprocess import frame_to_scanline_lab, frames_to_scanline_lab
from repro.rx.receiver import preprocess_frames
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


# -- meanwhile: the caller's own work while the other lanes take items ----


def test_meanwhile_runs_once_on_the_caller_beside_a_lane(monkeypatch):
    monkeypatch.setattr(lanes, "lane_count", lambda: 2)
    caller = threading.current_thread()
    taken = threading.Event()
    done, calls = [], []

    def work(item):
        if threading.current_thread() is not caller:
            taken.set()
        done.append(item)

    def meanwhile():
        calls.append(threading.current_thread())
        # Another lane takes an item while the caller is still in here.
        assert taken.wait(30)

    lanes.run_lanes(work, range(6), meanwhile)
    assert calls == [caller]
    assert sorted(done) == list(range(6))
    assert not _lane_threads()


@pytest.mark.parametrize("lane_count,count", [(1, 3), (3, 0), (3, 1)])
def test_meanwhile_runs_first_without_other_lanes(lane_count, count, monkeypatch):
    monkeypatch.setattr(lanes, "lane_count", lambda: lane_count)
    order = []
    lanes.run_lanes(order.append, range(count), lambda: order.append("meanwhile"))
    assert order == ["meanwhile"] + list(range(count))
    assert not _lane_threads()


@pytest.mark.parametrize("lanes_fail", [False, True])
def test_meanwhile_exception_waits_for_every_lane(lanes_fail, monkeypatch):
    """The caller never joins the lanes, so the other lane runs every
    item; the exception arrives only once it has, and wins over the
    lane's own."""
    monkeypatch.setattr(lanes, "lane_count", lambda: 2)
    started = threading.Event()
    done = []

    def work(item):
        started.set()
        time.sleep(0.02)
        done.append(item)
        if lanes_fail and item == 3:
            raise KeyError("lane failed")

    def meanwhile():
        assert started.wait(30)
        raise ValueError("meanwhile failed")

    with pytest.raises(ValueError, match="meanwhile failed"):
        lanes.run_lanes(work, range(4), meanwhile)
    assert sorted(done) == list(range(4))
    assert not _lane_threads()


def test_preprocess_frames_never_contains_meanwhile(three_lanes):
    good = [_frame(seed) for seed in range(3)]
    short = CapturedFrame(
        index=9,
        pixels=good[0].pixels[:2],  # fewer rows than the box filter
        start_time=0.0,
        row_period=1e-5,
        exposure=ExposureSettings(1e-4, 100),
    )
    frames = good + [short, object()]
    calls = []
    labs = preprocess_frames(frames, meanwhile=lambda: calls.append(1))
    assert calls == [1]
    assert [lab is None for lab in labs] == [False, False, False, True, True]
    for frame, lab in zip(good, labs):
        assert np.array_equal(lab, frame_to_scanline_lab(frame))

    def failing():
        raise ValueError("feed failed")

    with pytest.raises(ValueError, match="feed failed"):
        preprocess_frames(frames, meanwhile=failing)
    # It runs, and raises, even when no group starts converting.
    with pytest.raises(ValueError, match="feed failed"):
        preprocess_frames([short, object()], meanwhile=failing)
    assert not _lane_threads()
