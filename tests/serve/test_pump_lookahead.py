"""The pump's preprocess lookahead moves no byte and contains everything.

``SessionManager.pump`` converts the frames it is about to feed in
windows that span sessions, and feeds each window while the lanes convert
the next.  These checks hold it to feeding each frame alone: the golden
chaos soak under any lane count, a hostile window against a
frame-at-a-time reference, multi-window pumps whose overlap meets a
quarantine or a failing lookahead, and a lone frame that takes the plain
``feed(frame)`` path.
"""

from dataclasses import replace

import pytest

import repro.rx.receiver as receiver_module
import repro.serve.manager as manager_module
from repro.core.config import SystemConfig
from repro.core.system import make_streaming_receiver
from repro.link.simulator import LinkSimulator
from repro.serve import (
    PoisonFrame,
    ServePolicy,
    SessionManager,
    VirtualClock,
    run_soak,
)
from repro.util import lanes
from tests.conftest import make_tiny_device
from tests.serve.test_soak_golden import (
    _GOLDEN_SHA256,
    _POLICY,
    _SPEC,
    _soak_digest,
)


@pytest.mark.parametrize("lane_count", [1, 2, 3])
def test_golden_soak_digest_under_every_lane_count(lane_count, monkeypatch):
    monkeypatch.setattr(lanes, "lane_count", lambda: lane_count)
    report = run_soak(_SPEC, device=make_tiny_device(), policy=_POLICY)
    assert _soak_digest(report) == _GOLDEN_SHA256


def _config(device):
    return SystemConfig(
        csk_order=4,
        symbol_rate=1000.0,
        design_loss_ratio=device.timing.gap_fraction,
        frame_rate=device.timing.frame_rate,
    )


@pytest.fixture
def frames(tiny_device):
    simulator = LinkSimulator(
        _config(tiny_device), tiny_device, simulated_columns=32, seed=3
    )
    _, recorded, _ = simulator.record_session(duration_s=0.6)
    return recorded


class _NoPixels:
    """A frame object the pipeline cannot even start on."""

    def __init__(self, index):
        self.index = index


def _hostile_queues(frames):
    """Per-session frame lists that put every fallback into one window."""
    narrow = replace(frames[1], pixels=frames[1].pixels[:, ::2])
    short = replace(frames[4], pixels=frames[4].pixels[:2])
    return {
        # Two poison frames quarantine it mid-window; the rest is dropped.
        "poison": [PoisonFrame(i) for i in range(5)],
        "good-a": list(frames),
        "mixed": [frames[0], narrow, PoisonFrame(2), frames[3], short]
        + list(frames[5:]),
        "bomb": [frames[0], _NoPixels(1)] + list(frames[2:6]),
        "good-b": list(frames),
    }


def _serve(device, queues):
    """Submit every queue, pump with a per-session cut, pump, close all."""
    config = _config(device)
    manager = SessionManager(
        lambda session_id: make_streaming_receiver(config, device.timing),
        policy=ServePolicy(quarantine_after=2, max_queued_frames=256),
        clock=VirtualClock(),
    )
    for session_id, queue in queues.items():
        manager.open_session(session_id)
        for frame in queue:
            manager.submit_frame(session_id, frame)
    fed = [manager.pump(max_frames_per_session=3), manager.pump()]
    manager.close_all()
    return fed, manager


def _outcome(fed, manager):
    return (
        fed,
        list(manager.failures),
        {
            session_id: (
                session.state,
                session.payloads(),
                [
                    (f.frame_index, f.stage, f.error_type)
                    for f in session.report.frame_failures
                ],
                session.frames_processed,
                session.frames_dropped,
            )
            for session_id, session in manager.sessions.items()
        },
    )


@pytest.fixture
def batch_calls(monkeypatch):
    """Sizes of the batched conversions the receiver module runs."""
    calls = []
    batched = receiver_module.frames_to_scanline_lab

    def counting(frames, *args, **kwargs):
        calls.append(len(frames))
        return batched(frames, *args, **kwargs)

    monkeypatch.setattr(receiver_module, "frames_to_scanline_lab", counting)
    return calls


def test_hostile_window_matches_frame_at_a_time(
    tiny_device, frames, batch_calls, monkeypatch
):
    monkeypatch.setattr(lanes, "lane_count", lambda: 1)
    queues = _hostile_queues(frames)
    windowed = _outcome(*_serve(tiny_device, queues))
    # The first window (8 frames) spans poison, good-a and mixed.
    assert batch_calls and max(batch_calls) > 1

    monkeypatch.setattr(manager_module, "WINDOW_FRAMES_PER_LANE", 1)
    del batch_calls[:]
    alone = _outcome(*_serve(tiny_device, queues))
    assert batch_calls == []

    assert windowed == alone
    _, failures, sessions = windowed
    assert {(f.session_id, f.cause) for f in failures} == {
        ("poison", "poison"),
        ("bomb", "error"),
    }
    assert sessions["poison"][4] == 3  # dropped mid-window by the quarantine
    assert [(i, stage) for i, stage, _ in sessions["mixed"][2]] == [
        (2, "preprocess"),
        (4, "preprocess"),
    ]
    assert sessions["good-a"][1] and sessions["good-a"][0] == "closed"


def test_lookahead_error_falls_back_to_per_frame_feeding(
    tiny_device, frames, monkeypatch
):
    queues = _hostile_queues(frames)
    reference = _outcome(*_serve(tiny_device, queues))

    def broken(frames, meanwhile=None):
        raise RuntimeError("lookahead bug")

    monkeypatch.setattr(manager_module, "preprocess_frames", broken)
    assert _outcome(*_serve(tiny_device, queues)) == reference


@pytest.mark.parametrize("queued", [1, 2])
def test_lone_frame_starts_no_lane_thread(
    queued, tiny_device, frames, batch_calls, monkeypatch
):
    monkeypatch.setattr(lanes, "lane_count", lambda: 3)
    executors = []
    executor = lanes.ThreadPoolExecutor

    def recording(*args, **kwargs):
        executors.append(kwargs.get("thread_name_prefix"))
        return executor(*args, **kwargs)

    monkeypatch.setattr(lanes, "ThreadPoolExecutor", recording)
    config = _config(tiny_device)
    manager = SessionManager(
        lambda session_id: make_streaming_receiver(config, tiny_device.timing),
        clock=VirtualClock(),
    )
    manager.open_session("only")
    for frame in frames[:queued]:
        manager.submit_frame("only", frame)
    assert manager.pump() == queued
    if queued == 1:
        assert executors == [] and batch_calls == []
    else:
        # Control: two frames do convert together, on the lanes.
        assert executors == [lanes.THREAD_PREFIX] and batch_calls == [2]


def _reference(tiny_device, queues, monkeypatch):
    """The frame-at-a-time outcome: one lane, one-frame windows."""
    with monkeypatch.context() as patch:
        patch.setattr(lanes, "lane_count", lambda: 1)
        patch.setattr(manager_module, "WINDOW_FRAMES_PER_LANE", 1)
        return _outcome(*_serve(tiny_device, queues))


@pytest.fixture
def fed_frames(monkeypatch):
    """Every frame the manager hands a receiver, in feed order."""
    fed = []
    feed_next = SessionManager._feed_next

    def recording(self, session, scanlines):
        fed.append((session.session_id, session.queue[0][0]))
        return feed_next(self, session, scanlines)

    monkeypatch.setattr(SessionManager, "_feed_next", recording)
    return fed


@pytest.mark.parametrize("per_lane", [1, 2])
@pytest.mark.parametrize("lane_count", [2, 3])
def test_overlapped_windows_match_frame_at_a_time(
    lane_count, per_lane, tiny_device, frames, batch_calls, fed_frames,
    monkeypatch,
):
    queues = _hostile_queues(frames)
    reference = _reference(tiny_device, queues, monkeypatch)
    reference_feeds = list(fed_frames)
    del fed_frames[:]
    monkeypatch.setattr(lanes, "lane_count", lambda: lane_count)
    monkeypatch.setattr(manager_module, "WINDOW_FRAMES_PER_LANE", per_lane)
    assert _outcome(*_serve(tiny_device, queues)) == reference
    assert batch_calls and max(batch_calls) > 1
    # Each frame was fed once, in the same order.
    assert [(s, id(f)) for s, f in fed_frames] == [
        (s, id(f)) for s, f in reference_feeds
    ]


def test_quarantine_skips_turns_already_converted_ahead(
    tiny_device, frames, fed_frames, monkeypatch
):
    """The bomb session's third frame sits in the window after the one
    that quarantines it: the lanes convert it while that window feeds,
    and it is never fed."""
    monkeypatch.setattr(lanes, "lane_count", lambda: 2)
    monkeypatch.setattr(manager_module, "WINDOW_FRAMES_PER_LANE", 1)
    converted = []
    convert = manager_module.preprocess_frames

    def recording(batch, meanwhile=None):
        converted.append(list(batch))
        return convert(batch, meanwhile=meanwhile)

    monkeypatch.setattr(manager_module, "preprocess_frames", recording)
    bomb = [frames[0], _NoPixels(1), frames[2], frames[3]]
    queues = {"bomb": bomb, "good": [replace(f) for f in frames[:4]]}
    outcome = _outcome(*_serve(tiny_device, queues))
    assert [f.session_id for f in outcome[1]] == ["bomb"]
    assert any(frame is bomb[2] for batch in converted for frame in batch)
    assert [id(f) for s, f in fed_frames if s == "bomb"] == [
        id(f) for f in bomb[:2]
    ]
    assert outcome == _reference(tiny_device, queues, monkeypatch)


@pytest.mark.parametrize("when", ["before", "after"])
def test_failing_lookahead_feeds_every_frame_once(
    when, tiny_device, frames, fed_frames, monkeypatch
):
    """One lookahead raises before it ran its window's feed, or after; the
    window is fed exactly once either way, and the next frame by frame."""
    queues = _hostile_queues(frames)
    reference = _reference(tiny_device, queues, monkeypatch)
    reference_feeds = [(s, id(f)) for s, f in fed_frames]
    del fed_frames[:]
    monkeypatch.setattr(lanes, "lane_count", lambda: 2)
    monkeypatch.setattr(manager_module, "WINDOW_FRAMES_PER_LANE", 2)
    convert = manager_module.preprocess_frames
    calls = []

    def flaky(batch, meanwhile=None):
        calls.append(meanwhile)
        if len(calls) == 3:
            if when == "after" and meanwhile is not None:
                meanwhile()
            raise RuntimeError(f"lookahead bug {when} its feed")
        return convert(batch, meanwhile=meanwhile)

    monkeypatch.setattr(manager_module, "preprocess_frames", flaky)
    assert _outcome(*_serve(tiny_device, queues)) == reference
    assert len(calls) > 3 and calls[2] is not None
    assert [(s, id(f)) for s, f in fed_frames] == reference_feeds
