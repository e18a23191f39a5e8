"""The pump's preprocess lookahead moves no byte and contains everything.

``SessionManager.pump`` converts the frames it is about to feed in
windows that span sessions, then feeds each frame with its scanlines.
These checks hold it to feeding each frame alone: the golden chaos soak
under any lane count, a hostile window against a frame-at-a-time
reference, and a lone frame that takes the plain ``feed(frame)`` path.
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

    def broken(frames):
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
