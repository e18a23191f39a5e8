"""Serve-side link adaptation: per-session controllers under the manager.

The manager's adaptation contract, end to end:

* ``make_controller=None`` (the default) keeps sessions unmanaged — the
  pre-adaptation behavior, byte for byte.
* A calibrated session closes one adaptation window per packet boundary
  and records the decision; controllers created without a registry inherit
  the manager's, so adapt metrics land next to the session metrics.
* A failure streak at the quarantine threshold spends a ladder rung
  *before* quarantining (the downshift-before-quarantine contract); only
  an exhausted ladder lets the ``poison`` quarantine through.
* A channel breach the ladder cannot absorb quarantines with cause
  ``channel``.
"""

from repro.core.config import SystemConfig
from repro.core.system import make_streaming_receiver
from repro.link.adapt import (
    ACTION_DOWNSHIFT,
    ACTION_HOLD,
    AdaptationPolicy,
    LinkAdaptationController,
    ModulationLadder,
    ModulationRung,
)
from repro.link.simulator import LinkSimulator
from repro.obs import MetricsRegistry
from repro.obs.schema import (
    M_ADAPT_DECISIONS,
    M_ADAPT_QUARANTINES_AVERTED,
    M_ADAPT_RUNG,
)
from repro.rx.streaming import StreamingReceiver
from repro.serve import (
    CAUSE_CHANNEL,
    CAUSE_POISON,
    STATE_QUARANTINED,
    PoisonFrame,
    ServePolicy,
    SessionManager,
    VirtualClock,
)

TOLERANT_POLICY = AdaptationPolicy(
    min_margin_delta_e=1.0,
    max_ser=0.5,
    max_erasure_fraction=0.9,
    upshift_after_clean=2,
    probation_windows=1,
    quarantine_after_breaches=3,
)

TWO_RUNGS = ModulationLadder(
    rungs=(
        ModulationRung(csk_order=8, loss_ratio=0.2),
        ModulationRung(csk_order=4, white_margin=0.02, loss_ratio=0.25),
    )
)


def _config(tiny_device):
    return SystemConfig(
        csk_order=4,
        symbol_rate=1000.0,
        design_loss_ratio=tiny_device.timing.gap_fraction,
        frame_rate=tiny_device.timing.frame_rate,
    )


def _recording(tiny_device, config, seed):
    simulator = LinkSimulator(config, tiny_device, simulated_columns=32, seed=seed)
    _, frames, _ = simulator.record_session(duration_s=0.6)
    return frames


def _calibrated_factory(tiny_device, config):
    """Session factory whose receivers stream live from the first frame.

    An uncalibrated streaming session buffers until ``finish()`` and emits
    no live packet events, so the manager would never see a packet
    boundary; warming the receiver up on a throwaway recording first makes
    the sessions causal.
    """

    def factory(session_id):
        warmup = make_streaming_receiver(config, tiny_device.timing)
        for frame in _recording(tiny_device, config, seed=11):
            warmup.feed(frame)
        warmup.finish()
        return StreamingReceiver(warmup.receiver)

    return factory


def _manager(tiny_device, *, policy=None, metrics=None, make_controller=None,
             calibrated=False):
    config = _config(tiny_device)
    factory = (
        _calibrated_factory(tiny_device, config)
        if calibrated
        else lambda session_id: make_streaming_receiver(config, tiny_device.timing)
    )
    return SessionManager(
        factory,
        policy=policy,
        metrics=metrics,
        clock=VirtualClock(),
        make_controller=make_controller,
    )


class TestUnmanagedDefault:
    def test_no_controller_records_no_decisions(self, tiny_device):
        manager = _manager(tiny_device, calibrated=True)
        manager.open_session("a")
        for frame in _recording(tiny_device, _config(tiny_device), seed=3):
            manager.submit_frame("a", frame)
        manager.pump()
        session = manager.sessions["a"]
        assert session.controller is None
        assert session.window_tracker is None
        assert session.adapt_decisions == []
        assert session.controller is None


class TestManagedSession:
    def test_decisions_at_packet_boundaries(self, tiny_device):
        registry = MetricsRegistry()
        manager = _manager(
            tiny_device,
            metrics=registry,
            calibrated=True,
            make_controller=lambda sid: LinkAdaptationController(
                ladder=ModulationLadder(
                    rungs=(ModulationRung(csk_order=4, loss_ratio=0.25),)
                ),
                policy=TOLERANT_POLICY,
            ),
        )
        manager.open_session("a")
        for frame in _recording(tiny_device, _config(tiny_device), seed=3):
            manager.submit_frame("a", frame)
        manager.pump()
        session = manager.sessions["a"]
        assert len(session.adapt_decisions) > 0
        # A healthy one-rung session can only ever hold.
        assert {d.action for d in session.adapt_decisions} == {ACTION_HOLD}
        assert session.controller.rung == 0
        assert not manager.degraded
        # Controller metrics inherit the manager registry.
        assert session.controller.metrics is registry
        assert registry.counter(M_ADAPT_DECISIONS).value == len(
            session.adapt_decisions
        )
        assert registry.gauge(M_ADAPT_RUNG).value == 0


class TestDownshiftBeforeQuarantine:
    def test_failure_streak_spends_a_rung_first(self, tiny_device):
        registry = MetricsRegistry()
        manager = _manager(
            tiny_device,
            policy=ServePolicy(quarantine_after=3, max_queued_frames=16),
            metrics=registry,
            make_controller=lambda sid: LinkAdaptationController(
                ladder=TWO_RUNGS, policy=TOLERANT_POLICY
            ),
        )
        manager.open_session("bad")
        for index in range(3):
            manager.submit_frame("bad", PoisonFrame(index))
        manager.pump()
        session = manager.sessions["bad"]
        # First streak: averted by a forced downshift, session stays up.
        assert session.state != STATE_QUARANTINED
        assert session.controller.rung == 1
        assert [d.action for d in session.adapt_decisions] == [ACTION_DOWNSHIFT]
        assert session.adapt_decisions[0].reason == "failure-streak"
        assert session.consecutive_failures == 0
        assert registry.counter(M_ADAPT_QUARANTINES_AVERTED).value == 1

        # Second streak: the ladder is exhausted, poison wins.
        for index in range(3, 6):
            manager.submit_frame("bad", PoisonFrame(index))
        manager.pump()
        assert session.state == STATE_QUARANTINED
        assert len(manager.failures) == 1
        assert manager.failures[0].cause == CAUSE_POISON
        assert registry.counter(M_ADAPT_QUARANTINES_AVERTED).value == 1

    def test_unmanaged_session_quarantines_immediately(self, tiny_device):
        manager = _manager(
            tiny_device,
            policy=ServePolicy(quarantine_after=3, max_queued_frames=16),
        )
        manager.open_session("bad")
        for index in range(3):
            manager.submit_frame("bad", PoisonFrame(index))
        manager.pump()
        assert manager.sessions["bad"].state == STATE_QUARANTINED
        assert manager.failures[0].cause == CAUSE_POISON


class TestChannelQuarantine:
    def test_unmeetable_margin_quarantines_with_cause_channel(self, tiny_device):
        # A margin floor no real channel can meet, a one-rung ladder, and a
        # one-breach fuse: the first closed window must give up — with the
        # adaptation cause, not the poison one.
        policy = AdaptationPolicy(
            min_margin_delta_e=1000.0,
            max_ser=0.5,
            max_erasure_fraction=0.9,
            upshift_after_clean=2,
            probation_windows=1,
            quarantine_after_breaches=1,
        )
        manager = _manager(
            tiny_device,
            calibrated=True,
            make_controller=lambda sid: LinkAdaptationController(
                ladder=ModulationLadder(
                    rungs=(ModulationRung(csk_order=4, loss_ratio=0.25),)
                ),
                policy=policy,
            ),
        )
        manager.open_session("a")
        for frame in _recording(tiny_device, _config(tiny_device), seed=3):
            manager.submit_frame("a", frame)
        manager.pump()
        session = manager.sessions["a"]
        assert session.state == STATE_QUARANTINED
        assert len(manager.failures) == 1
        failure = manager.failures[0]
        assert failure.cause == CAUSE_CHANNEL
        assert failure.error_type == "AdaptationBreach"
        assert "last rung" in failure.message
