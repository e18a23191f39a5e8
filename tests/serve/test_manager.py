"""Session-manager robustness contracts: admission, backpressure,
eviction, quarantine, and the manager-never-dies guarantee."""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import make_receiver, make_streaming_receiver
from repro.exceptions import (
    AdmissionError,
    ConfigurationError,
    SessionFailure,
    SessionStateError,
)
from repro.link.simulator import LinkSimulator
from repro.obs import MetricsRegistry
from repro.obs.schema import (
    M_SESSION_FRAMES_DROPPED,
    M_SESSIONS_ACTIVE,
    M_SESSIONS_ADMITTED,
    M_SESSIONS_QUARANTINED,
    M_SESSIONS_REJECTED,
)
from repro.serve import (
    BACKPRESSURE_REJECT,
    STATE_CLOSED,
    STATE_EVICTED,
    STATE_QUARANTINED,
    SUBMIT_ACCEPTED,
    SUBMIT_DROPPED_OLDEST,
    SUBMIT_DROPPED_QUARANTINED,
    SUBMIT_REJECTED_FULL,
    PoisonFrame,
    ServePolicy,
    SessionManager,
    VirtualClock,
)


def _config(tiny_device, order=4, rate=1000.0):
    return SystemConfig(
        csk_order=order,
        symbol_rate=rate,
        design_loss_ratio=tiny_device.timing.gap_fraction,
        frame_rate=tiny_device.timing.frame_rate,
    )


@pytest.fixture
def frames(tiny_device):
    config = _config(tiny_device)
    simulator = LinkSimulator(config, tiny_device, simulated_columns=32, seed=3)
    _, recorded, _ = simulator.record_session(duration_s=0.6)
    return recorded


def _manager(tiny_device, policy=None, metrics=None, clock=None):
    config = _config(tiny_device)
    return SessionManager(
        lambda session_id: make_streaming_receiver(config, tiny_device.timing),
        policy=policy,
        metrics=metrics,
        clock=clock if clock is not None else VirtualClock(),
    )


class TestAdmission:
    def test_capacity_rejection_is_structured(self, tiny_device):
        manager = _manager(tiny_device, ServePolicy(max_sessions=2))
        manager.open_session("a")
        manager.open_session("b")
        with pytest.raises(AdmissionError, match="capacity") as excinfo:
            manager.open_session("c")
        assert excinfo.value.reason == "capacity"
        assert manager.rejections == 1
        assert sum(s.is_active for s in manager.sessions.values()) == 2

    def test_duplicate_rejection(self, tiny_device):
        manager = _manager(tiny_device)
        manager.open_session("a")
        with pytest.raises(AdmissionError) as excinfo:
            manager.open_session("a")
        assert excinfo.value.reason == "duplicate"

    def test_closing_frees_capacity(self, tiny_device):
        manager = _manager(tiny_device, ServePolicy(max_sessions=1))
        manager.open_session("a")
        manager.close_session("a")
        manager.open_session("b")  # does not raise
        assert sum(s.is_active for s in manager.sessions.values()) == 1

    def test_unknown_session_raises(self, tiny_device):
        manager = _manager(tiny_device)
        with pytest.raises(SessionStateError, match="unknown"):
            manager.submit_frame("ghost", object())

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ServePolicy(max_queued_frames=0).validate()
        with pytest.raises(ConfigurationError):
            ServePolicy(backpressure="spill").validate()

    def test_admission_metrics(self, tiny_device):
        registry = MetricsRegistry()
        manager = _manager(
            tiny_device, ServePolicy(max_sessions=1), metrics=registry
        )
        manager.open_session("a")
        with pytest.raises(AdmissionError):
            manager.open_session("b")
        assert registry.counter(M_SESSIONS_ADMITTED).value == 1
        assert registry.counter(M_SESSIONS_REJECTED).value == 1
        assert registry.gauge(M_SESSIONS_ACTIVE).value == 1


class TestBackpressure:
    def test_drop_oldest_keeps_cap(self, tiny_device, frames):
        policy = ServePolicy(max_queued_frames=4)
        manager = _manager(tiny_device, policy)
        manager.open_session("a")
        session = manager.sessions["a"]
        outcomes = [manager.submit_frame("a", f) for f in frames[:6]]
        assert outcomes[:4] == [SUBMIT_ACCEPTED] * 4
        assert outcomes[4:] == [SUBMIT_DROPPED_OLDEST] * 2
        assert session.queue_depth == 4
        assert session.frames_dropped == 2
        # The two oldest were shed: the queue holds frames 2..5.
        assert [frame.index for frame, _ in session.queue] == [2, 3, 4, 5]

    def test_reject_mode_refuses_new_frame(self, tiny_device, frames):
        policy = ServePolicy(max_queued_frames=2, backpressure=BACKPRESSURE_REJECT)
        manager = _manager(tiny_device, policy)
        manager.open_session("a")
        assert manager.submit_frame("a", frames[0]) == SUBMIT_ACCEPTED
        assert manager.submit_frame("a", frames[1]) == SUBMIT_ACCEPTED
        assert manager.submit_frame("a", frames[2]) == SUBMIT_REJECTED_FULL
        assert [f.index for f, _ in manager.sessions["a"].queue] == [0, 1]

    def test_byte_cap_enforced(self, tiny_device, frames):
        cost = int(frames[0].pixels.nbytes)
        policy = ServePolicy(max_queued_frames=64, max_queued_bytes=2 * cost)
        manager = _manager(tiny_device, policy)
        manager.open_session("a")
        session = manager.sessions["a"]
        for frame in frames[:4]:
            manager.submit_frame("a", frame)
        assert session.queued_bytes <= 2 * cost
        assert session.queue_depth == 2

    def test_oversized_single_frame_rejected(self, tiny_device, frames):
        cost = int(frames[0].pixels.nbytes)
        policy = ServePolicy(max_queued_bytes=cost - 1)
        manager = _manager(tiny_device, policy)
        manager.open_session("a")
        assert manager.submit_frame("a", frames[0]) == SUBMIT_REJECTED_FULL
        assert manager.sessions["a"].queue_depth == 0

    def test_drop_metric_counts(self, tiny_device, frames):
        registry = MetricsRegistry()
        manager = _manager(
            tiny_device, ServePolicy(max_queued_frames=2), metrics=registry
        )
        manager.open_session("a")
        for frame in frames[:5]:
            manager.submit_frame("a", frame)
        assert registry.counter(M_SESSION_FRAMES_DROPPED).value == 3


class TestEviction:
    def test_idle_sessions_evicted_and_flushed(self, tiny_device, frames):
        clock = VirtualClock()
        policy = ServePolicy(idle_timeout_s=10.0, max_queued_frames=256)
        manager = _manager(tiny_device, policy, clock=clock)
        manager.open_session("idle")
        manager.open_session("busy")
        for frame in frames:
            manager.submit_frame("idle", frame)
        manager.pump()
        clock.advance(11.0)
        manager.submit_frame("busy", frames[0])
        assert manager.evict_idle() == ["idle"]
        idle = manager.sessions["idle"]
        assert idle.state == STATE_EVICTED
        # Eviction flushed: the report matches a batch decode of its frames.
        config = _config(tiny_device)
        batch = make_receiver(config, tiny_device.timing).process_frames(frames)
        assert idle.payloads() == batch.payloads
        assert manager.sessions["busy"].is_active

    def test_no_timeout_means_no_eviction(self, tiny_device):
        manager = _manager(tiny_device, ServePolicy(idle_timeout_s=None))
        manager.open_session("a")
        assert manager.evict_idle(now=1e9) == []


class TestQuarantine:
    def test_poison_session_quarantined_with_record(self, tiny_device):
        registry = MetricsRegistry()
        policy = ServePolicy(quarantine_after=3, max_queued_frames=16)
        manager = _manager(tiny_device, policy, metrics=registry)
        manager.open_session("bad")
        for index in range(6):
            manager.submit_frame("bad", PoisonFrame(index))
        manager.pump()
        session = manager.sessions["bad"]
        assert session.state == STATE_QUARANTINED
        assert len(manager.failures) == 1
        failure = manager.failures[0]
        assert isinstance(failure, SessionFailure)
        assert failure.cause == "poison"
        assert failure.consecutive_failures == 3
        assert failure.error_type == "CameraError"
        assert "bad" in failure.describe()
        assert manager.degraded
        assert "poison: 1" in manager.failure_summary()
        assert registry.counter(M_SESSIONS_QUARANTINED).value == 1
        assert registry.gauge(M_SESSIONS_ACTIVE).value == 0

    def test_quarantine_discards_queue_and_sheds_new_frames(self, tiny_device):
        policy = ServePolicy(quarantine_after=2, max_queued_frames=16)
        manager = _manager(tiny_device, policy)
        manager.open_session("bad")
        for index in range(8):
            manager.submit_frame("bad", PoisonFrame(index))
        manager.pump()
        session = manager.sessions["bad"]
        assert session.queue_depth == 0
        assert session.queued_bytes == 0
        outcome = manager.submit_frame("bad", PoisonFrame(99))
        assert outcome == SUBMIT_DROPPED_QUARANTINED

    def test_escaped_exception_quarantines_as_error(self, tiny_device):
        class Bomb:
            index = 0

        config = _config(tiny_device)

        class ExplodingStreaming:
            def __init__(self):
                self.inner = make_streaming_receiver(config, tiny_device.timing)
                self.report = self.inner.report
                self.frames_fed = 0
                self.failures_contained = 0

            def feed(self, frame):
                self.frames_fed += 1
                raise RuntimeError("receiver state corrupted")

            def finish(self):
                return []

        manager = SessionManager(
            lambda session_id: ExplodingStreaming(), clock=VirtualClock()
        )
        manager.open_session("bomb")
        manager.submit_frame("bomb", Bomb())
        manager.pump()
        failure = manager.failures[0]
        assert failure.cause == "error"
        assert failure.error_type == "RuntimeError"

    def test_healthy_sessions_survive_a_poison_neighbor(
        self, tiny_device, frames
    ):
        policy = ServePolicy(quarantine_after=2, max_queued_frames=256)
        manager = _manager(tiny_device, policy)
        manager.open_session("good")
        manager.open_session("bad")
        for index, frame in enumerate(frames):
            manager.submit_frame("good", frame)
            manager.submit_frame("bad", PoisonFrame(index))
        manager.pump()
        manager.close_session("good")
        good = manager.sessions["good"]
        assert good.state == STATE_CLOSED
        config = _config(tiny_device)
        batch = make_receiver(config, tiny_device.timing).process_frames(frames)
        assert good.payloads() == batch.payloads
        assert manager.sessions["bad"].state == STATE_QUARANTINED

    def test_failure_streak_resets_on_clean_frame(self, tiny_device, frames):
        policy = ServePolicy(quarantine_after=2, max_queued_frames=256)
        manager = _manager(tiny_device, policy)
        manager.open_session("flaky")
        # poison, clean, poison, clean ... never two failures in a row.
        for index, frame in enumerate(frames[:8]):
            manager.submit_frame("flaky", PoisonFrame(1000 + index))
            manager.submit_frame("flaky", frame)
        manager.pump()
        assert manager.sessions["flaky"].is_active
        assert manager.failures == []


class TestLifecycle:
    def test_close_all_in_admission_order(self, tiny_device, frames):
        manager = _manager(tiny_device, ServePolicy(max_queued_frames=256))
        for name in ("one", "two", "three"):
            manager.open_session(name)
            for frame in frames[:4]:
                manager.submit_frame(name, frame)
        closed = manager.close_all()
        assert [s.session_id for s in closed] == ["one", "two", "three"]
        assert sum(s.is_active for s in manager.sessions.values()) == 0

    def test_submit_to_closed_session_raises(self, tiny_device, frames):
        manager = _manager(tiny_device)
        manager.open_session("a")
        manager.close_session("a")
        with pytest.raises(SessionStateError, match="closed"):
            manager.submit_frame("a", frames[0])
        with pytest.raises(SessionStateError, match="already"):
            manager.close_session("a")
