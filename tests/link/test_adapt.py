"""Link adaptation: ladder, window stats, and golden controller traces.

The hysteresis state machine (:func:`repro.link.adapt.advance`) is a pure
function, so its behavior is pinned with golden decision traces — scripted
window sequences whose exact (action, reason, rung) progression must never
change silently.  Trajectory replay is covered with a monkeypatched
decode seam (fast, fully scripted channels) plus two real-simulation
checks: common-random-numbers equality against the fixed baseline, and
equal window stats from batch and streaming decode of a drift-injected
segment.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.system import make_receiver, make_streaming_receiver
from repro.exceptions import AdaptationError
from repro.faults.injectors import DriftInjector
from repro.link.adapt import (
    ACTION_DOWNSHIFT,
    ACTION_HOLD,
    ACTION_QUARANTINE,
    ACTION_UPSHIFT,
    AdaptationPolicy,
    ControllerState,
    LinkAdaptationController,
    ModulationLadder,
    ModulationRung,
    ReportWindowTracker,
    WindowStats,
    _segment_seed,
    adaptive_vs_fixed,
    advance,
    simulate_adaptive,
)
from repro.link.channel import ChannelTrajectory, TrajectorySegment
from repro.link.simulator import LinkSimulator
from repro.obs import MetricsRegistry
from repro.obs.schema import (
    M_ADAPT_DECISIONS,
    M_ADAPT_DOWNSHIFTS,
    M_ADAPT_MARGIN,
    M_ADAPT_RUNG,
    M_ADAPT_UPSHIFTS,
)
from repro.rx.receiver import ReceiverReport

# Scripted windows for the state-machine tests.
CLEAN = WindowStats(
    frames=10,
    packets_seen=2,
    packets_decoded=2,
    ser_estimate=0.0,
    delta_e_margin=9.0,
    erasure_fraction=0.1,
)
LOW_MARGIN = replace(CLEAN, delta_e_margin=3.0)
HIGH_SER = replace(CLEAN, ser_estimate=0.4)
HIGH_ERASURE = replace(CLEAN, erasure_fraction=0.8)
FEC_CLIFF = replace(CLEAN, packets_decoded=0)
BLIND = WindowStats(frames=10)

POLICY = AdaptationPolicy(
    min_margin_delta_e=5.0,
    max_ser=0.10,
    max_erasure_fraction=0.50,
    upshift_after_clean=2,
    probation_windows=1,
    quarantine_after_breaches=3,
)


class TestModulationRung:
    def test_white_margin_out_of_range_rejected(self):
        with pytest.raises(AdaptationError, match="white_margin"):
            ModulationRung(csk_order=8, white_margin=1.0)

    def test_loss_ratio_out_of_range_rejected(self):
        with pytest.raises(AdaptationError, match="loss_ratio"):
            ModulationRung(csk_order=8, loss_ratio=0.5)

    def test_white_margin_only_adds_whites(self):
        plain = ModulationRung(csk_order=8)
        padded = ModulationRung(csk_order=8, white_margin=0.1)
        assert padded.illumination_ratio(1500.0) < plain.illumination_ratio(1500.0)

    def test_make_config_carries_rung_parameters(self):
        rung = ModulationRung(csk_order=16, white_margin=0.02, loss_ratio=0.3)
        config = rung.make_config(1500.0, 30.0)
        assert config.csk_order == 16
        assert config.design_loss_ratio == 0.3
        assert config.illumination_ratio == rung.illumination_ratio(1500.0)

    def test_label(self):
        rung = ModulationRung(csk_order=32, white_margin=0.05, loss_ratio=0.2)
        assert rung.label() == "32-CSK/w+0.05/l=0.20"


class TestModulationLadder:
    def test_empty_ladder_rejected(self):
        with pytest.raises(AdaptationError, match="at least one rung"):
            ModulationLadder(rungs=())

    def test_increasing_order_rejected(self):
        with pytest.raises(AdaptationError, match="fastest-first"):
            ModulationLadder(
                rungs=(
                    ModulationRung(csk_order=8),
                    ModulationRung(csk_order=16),
                )
            )

    def test_default_ladder_is_the_paper_set(self):
        ladder = ModulationLadder.default()
        assert [rung.csk_order for rung in ladder.rungs] == [32, 16, 8, 4]
        assert len(ladder) == 4

    def test_default_ladder_is_flicker_safe_at_operating_rates(self):
        ladder = ModulationLadder.default()
        ladder.validate(1500.0)
        ladder.validate(2000.0)

    def test_validate_rejects_clamped_eta(self):
        # Below ~10 sym/s the flicker model demands 100% white; the eta
        # clamp truncates that to 95%, so no rung can honour the budget.
        with pytest.raises(AdaptationError, match="flicker minimum"):
            ModulationLadder.default().validate(5.0)

    def test_config_uses_the_indexed_rung(self):
        ladder = ModulationLadder.default()
        assert ladder.config(2, 1500.0, 30.0).csk_order == 8


class TestWindowStats:
    def test_blind_window(self):
        assert BLIND.is_blind
        assert not CLEAN.is_blind
        # Any evidence — a packet, an SER reading, a margin — ends blindness.
        assert not replace(BLIND, packets_seen=1).is_blind
        assert not replace(BLIND, ser_estimate=0.0).is_blind
        assert not replace(BLIND, delta_e_margin=4.0).is_blind

    def test_describe_prints_na_for_undefined(self):
        text = BLIND.describe()
        assert "ser=n/a" in text and "margin=n/a" in text

    def test_from_report_mirrors_channel_quality_properties(self):
        report = ReceiverReport()
        report.frames_processed = 7
        report.packets_seen = 3
        report.packets_decoded = 2
        report.calibration_symbols_seen = 10
        report.calibration_symbol_errors = 1
        report.codeword_symbols_seen = 20
        report.erasure_symbols_seen = 5
        stats = WindowStats.from_report(report)
        assert stats.frames == 7
        assert stats.ser_estimate == pytest.approx(0.1)
        assert stats.erasure_fraction == pytest.approx(0.25)
        assert stats.delta_e_margin is None  # no lit bands in this report


class TestReportWindowTracker:
    @staticmethod
    def _band(margin):
        return SimpleNamespace(decision=SimpleNamespace(margin=margin))

    def test_windows_are_deltas_not_totals(self):
        report = ReceiverReport()
        tracker = ReportWindowTracker()

        report.frames_processed = 4
        report.packets_seen = 1
        report.packets_decoded = 1
        report.calibration_symbols_seen = 8
        report.calibration_symbol_errors = 2
        report.codeword_symbols_seen = 10
        report.erasure_symbols_seen = 1
        report.bands = [self._band(6.0), self._band(None), self._band(10.0)]
        first = tracker.take(report)
        assert first.frames == 4
        assert first.ser_estimate == pytest.approx(0.25)
        assert first.delta_e_margin == pytest.approx(8.0)  # None skipped
        assert first.erasure_fraction == pytest.approx(0.1)

        # The report grows; the second window must only see the growth.
        report.frames_processed = 6
        report.packets_seen = 2
        report.calibration_symbols_seen = 12
        report.calibration_symbol_errors = 2
        report.bands = report.bands + [self._band(2.0)]
        second = tracker.take(report)
        assert second.frames == 2
        assert second.packets_seen == 1
        assert second.packets_decoded == 0
        assert second.ser_estimate == pytest.approx(0.0)
        assert second.delta_e_margin == pytest.approx(2.0)
        assert second.erasure_fraction is None  # no new codeword symbols

    def test_empty_window_is_blind(self):
        report = ReceiverReport()
        tracker = ReportWindowTracker()
        tracker.take(report)
        assert tracker.take(report).is_blind


class TestAdaptationPolicy:
    def test_defaults_are_valid(self):
        AdaptationPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_margin_delta_e": -1.0},
            {"max_ser": 1.5},
            {"max_erasure_fraction": -0.1},
            {"upshift_after_clean": 0},
            {"quarantine_after_breaches": 0},
            {"probation_windows": -1},
        ],
    )
    def test_invalid_constants_rejected(self, kwargs):
        with pytest.raises(AdaptationError):
            AdaptationPolicy(**kwargs)

    def test_breach_priority_is_fixed(self):
        # margin > ser > erasure > fec-cliff, so traces are stable even
        # when a bad window trips several thresholds at once.
        everything = WindowStats(
            packets_seen=2,
            packets_decoded=0,
            ser_estimate=0.9,
            delta_e_margin=1.0,
            erasure_fraction=0.9,
        )
        assert POLICY.breach_reason(everything) == "margin"
        assert POLICY.breach_reason(replace(everything, delta_e_margin=9.0)) == "ser"
        assert (
            POLICY.breach_reason(
                replace(everything, delta_e_margin=9.0, ser_estimate=0.0)
            )
            == "erasure"
        )
        assert POLICY.breach_reason(FEC_CLIFF) == "fec-cliff"
        assert POLICY.breach_reason(CLEAN) is None

    def test_undefined_estimates_do_not_breach(self):
        # None is undefined, not zero: a window with no margin measurement
        # cannot breach the margin threshold.
        assert POLICY.breach_reason(replace(CLEAN, delta_e_margin=None)) is None


def run_trace(controller, windows):
    """Feed scripted windows; return (action, reason, rung) per decision."""
    out = []
    for stats in windows:
        decision = controller.observe(stats)
        out.append((decision.action, decision.reason, decision.rung))
    return out


class TestGoldenTraces:
    """The hysteresis state machine, pinned window by window."""

    def _controller(self, rungs=3, **kwargs):
        ladder = ModulationLadder(
            rungs=tuple(
                ModulationRung(csk_order=order) for order in (32, 16, 8)[:rungs]
            )
        )
        return LinkAdaptationController(ladder=ladder, policy=POLICY, **kwargs)

    def test_downshift_immediately_then_earn_the_way_back(self):
        controller = self._controller()
        trace = run_trace(
            controller, [CLEAN, LOW_MARGIN, CLEAN, CLEAN, CLEAN, CLEAN, CLEAN]
        )
        assert trace == [
            (ACTION_HOLD, "clean", 0),
            (ACTION_DOWNSHIFT, "margin", 1),  # breach: immediate, no streak
            (ACTION_HOLD, "probation", 1),  # clean but on probation
            (ACTION_HOLD, "clean", 1),  # streak 1 of 2
            (ACTION_UPSHIFT, "clean-streak", 0),  # streak 2: back up
            (ACTION_HOLD, "probation", 0),
            (ACTION_HOLD, "clean", 0),
        ]

    def test_each_breach_kind_downshifts(self):
        for stats, reason in [
            (LOW_MARGIN, "margin"),
            (HIGH_SER, "ser"),
            (HIGH_ERASURE, "erasure"),
            (FEC_CLIFF, "fec-cliff"),
        ]:
            controller = self._controller()
            assert run_trace(controller, [stats]) == [(ACTION_DOWNSHIFT, reason, 1)]

    def test_blind_windows_freeze_the_state(self):
        # No evidence either way: rung, probation and streaks all hold, so
        # an empty stretch can neither trigger nor delay a shift.
        state = ControllerState(rung=1, clean_windows=1, probation=0)
        next_state, action, reason = advance(state, BLIND, POLICY, 3)
        assert next_state == state
        assert (action, reason) == (ACTION_HOLD, "blind")

        controller = self._controller()
        trace = run_trace(controller, [CLEAN, BLIND, CLEAN])
        assert trace == [
            (ACTION_HOLD, "clean", 0),
            (ACTION_HOLD, "blind", 0),
            (ACTION_HOLD, "clean", 0),  # streak survived the blind window
        ]

    def test_upshift_never_above_the_fastest_rung(self):
        controller = self._controller()
        trace = run_trace(controller, [CLEAN, CLEAN, CLEAN, CLEAN])
        assert all(action == ACTION_HOLD for action, _, _ in trace)
        assert controller.rung == 0

    def test_quarantine_only_at_last_rung_after_streak(self):
        controller = self._controller(rungs=2)
        trace = run_trace(
            controller, [LOW_MARGIN, LOW_MARGIN, LOW_MARGIN, LOW_MARGIN]
        )
        assert trace == [
            (ACTION_DOWNSHIFT, "margin", 1),  # spend the ladder first
            (ACTION_HOLD, "margin", 1),  # breach streak 1 of 3
            (ACTION_HOLD, "margin", 1),  # breach streak 2 of 3
            (ACTION_QUARANTINE, "margin", 1),  # rung past the end
        ]

    def test_clean_window_resets_the_breach_streak(self):
        controller = self._controller(rungs=1)
        trace = run_trace(
            controller, [LOW_MARGIN, LOW_MARGIN, CLEAN, LOW_MARGIN, LOW_MARGIN]
        )
        assert ACTION_QUARANTINE not in [action for action, _, _ in trace]

    def test_golden_describe_line(self):
        controller = self._controller()
        controller.observe(LOW_MARGIN)
        assert controller.trace() == (
            "w000 downshift  rung 0->1   [margin] frames=10 pkts=2/2 "
            "ser=0.000 margin=3.000 erasure=0.100",
        )


class TestController:
    def test_initial_rung_validated(self):
        with pytest.raises(AdaptationError, match="initial_rung"):
            LinkAdaptationController(initial_rung=4)

    def test_force_downshift_walks_then_exhausts(self):
        ladder = ModulationLadder(
            rungs=(ModulationRung(csk_order=16), ModulationRung(csk_order=8))
        )
        controller = LinkAdaptationController(ladder=ladder)
        decision = controller.force_downshift("failure-streak")
        assert decision.action == ACTION_DOWNSHIFT
        assert decision.reason == "failure-streak"
        assert controller.rung == 1
        assert not controller.can_downshift
        assert controller.force_downshift("failure-streak") is None
        assert controller.rung == 1  # exhaustion does not move the rung

    def test_decisions_feed_the_adapt_metrics(self):
        registry = MetricsRegistry()
        controller = LinkAdaptationController(
            policy=POLICY, metrics=registry
        )
        run_trace(controller, [LOW_MARGIN, CLEAN, CLEAN, CLEAN])
        assert registry.counter(M_ADAPT_DECISIONS).value == 4
        assert registry.counter(M_ADAPT_DOWNSHIFTS).value == 1
        assert registry.counter(M_ADAPT_UPSHIFTS).value == 1
        assert registry.gauge(M_ADAPT_RUNG).value == 0
        assert registry.histogram(M_ADAPT_MARGIN).count == 4


class TestSegmentSeeds:
    def test_deterministic_and_distinct(self):
        seeds = [_segment_seed(7, index) for index in range(20)]
        assert seeds == [_segment_seed(7, index) for index in range(20)]
        assert len(set(seeds)) == len(seeds)

    def test_non_int_seed_uses_base_zero(self):
        assert _segment_seed(None, 3) == _segment_seed(0, 3)


# -- trajectory execution over a scripted decode seam ----------------------


def _fake_report(packets_seen, packets_decoded, margin, payload_bytes):
    return SimpleNamespace(
        frames_processed=10,
        packets_seen=packets_seen,
        packets_decoded=packets_decoded,
        packets_failed_fec=packets_seen - packets_decoded,
        frames_failed=0,
        ser_estimate=0.0,
        delta_e_margin=margin,
        erasure_fraction=0.1,
        payload_bytes=payload_bytes,
    )


def _script_decode(monkeypatch, script):
    """Replace the decode seam with a scripted per-(segment, order) channel."""
    calls = []

    def fake(config, device, segment, seed, simulated_columns):
        calls.append((segment, config.csk_order, seed))
        return script(segment, config)

    monkeypatch.setattr("repro.link.adapt._decode_segment_report", fake)
    return calls


#: Stand-in device for the scripted-seam tests (only timing is consulted
#: before the patched decode takes over).
STUB_DEVICE = SimpleNamespace(timing=SimpleNamespace(frame_rate=30.0))


def _trajectory(n, duration_s=1.0):
    return ChannelTrajectory(
        segments=tuple(TrajectorySegment(duration_s=duration_s) for _ in range(n))
    )


TWO_RUNGS = ModulationLadder(
    rungs=(
        ModulationRung(csk_order=32, loss_ratio=0.2),
        ModulationRung(csk_order=16, white_margin=0.02, loss_ratio=0.25),
    )
)


class TestScriptedTrajectories:
    def test_adaptive_downshifts_and_recovers_on_a_step_channel(
        self, monkeypatch
    ):
        # Segments 2-3 kill the fast rung's margin but leave the robust
        # rung healthy; the controller must ride the step down and back.
        def script(segment, config):
            index = segment.drift_intensity  # index smuggled via intensity
            degraded = 0.2 <= index <= 0.3
            if degraded and config.csk_order == 32:
                return _fake_report(2, 0, 3.0, 0)
            return _fake_report(2, 2, 9.0, 40 if config.csk_order == 32 else 30)

        trajectory = ChannelTrajectory(
            segments=tuple(
                TrajectorySegment(duration_s=1.0, drift_intensity=index / 10)
                for index in range(7)
            )
        )
        _script_decode(monkeypatch, script)
        result = simulate_adaptive(
            trajectory,
            STUB_DEVICE,
            ladder=TWO_RUNGS,
            policy=POLICY,
            symbol_rate=1500.0,
        )
        assert [d.action for d in result.decisions] == [
            ACTION_HOLD,  # clean at rung 0
            ACTION_HOLD,
            ACTION_DOWNSHIFT,  # the step hits
            ACTION_HOLD,  # probation at rung 1
            ACTION_HOLD,  # clean streak 1 (channel recovered)
            ACTION_UPSHIFT,  # streak 2: back to rung 0
            ACTION_HOLD,
        ]
        assert [s.csk_order for s in result.segments] == [32, 32, 32, 16, 16, 16, 32]
        assert not result.quarantined
        assert result.payload_bytes == 40 + 40 + 0 + 30 + 30 + 30 + 40

    def test_quarantine_stops_decoding_but_not_the_clock(self, monkeypatch):
        policy = replace(POLICY, quarantine_after_breaches=1)
        one_rung = ModulationLadder(rungs=(ModulationRung(csk_order=16),))

        def script(segment, config):
            return _fake_report(2, 0, 9.0, 0)  # permanent FEC cliff

        _script_decode(monkeypatch, script)
        result = simulate_adaptive(
            _trajectory(5), STUB_DEVICE, ladder=one_rung, policy=policy
        )
        assert result.quarantined
        assert [d.action for d in result.decisions] == [ACTION_QUARANTINE]
        # Graceful degradation: later segments are dead air, but goodput is
        # still measured over the whole trajectory.
        assert len(result.segments) == 1
        assert result.duration_s == 5.0
        assert result.goodput_bps == 0.0

    def test_fixed_and_adaptive_share_segment_seeds(self, monkeypatch):
        def script(segment, config):
            return _fake_report(2, 2, 9.0, 10)

        calls = _script_decode(monkeypatch, script)
        comparison = adaptive_vs_fixed(
            _trajectory(3), STUB_DEVICE, ladder=TWO_RUNGS, policy=POLICY, seed=7
        )
        # Runs execute back to back (adaptive, fixed rung 0, fixed rung 1),
        # three segments each; common random numbers means every run sees
        # the same per-segment seed sequence.
        assert len(calls) == 9
        seed_runs = [[seed for _, _, seed in calls[i : i + 3]] for i in (0, 3, 6)]
        assert seed_runs[0] == seed_runs[1] == seed_runs[2]
        assert len(set(seed_runs[0])) == 3
        assert comparison.best_fixed()[0] == 0  # ties go to the faster rung


# -- real-simulation checks (small, but end to end) ------------------------


class TestSimulatedTrajectories:
    def _ladder(self, tiny_device):
        # Orders the tiny test camera decodes comfortably at 1 kHz.
        return ModulationLadder(
            rungs=(
                ModulationRung(
                    csk_order=4, loss_ratio=tiny_device.timing.gap_fraction
                ),
            )
        )

    def test_single_rung_adaptive_equals_fixed_baseline(self, tiny_device):
        # With one rung the controller can only hold, so common random
        # numbers make the adaptive run byte-equal to the fixed baseline.
        trajectory = _trajectory(2, duration_s=0.5)
        ladder = self._ladder(tiny_device)
        comparison = adaptive_vs_fixed(
            trajectory,
            tiny_device,
            ladder=ladder,
            symbol_rate=1000.0,
            seed=3,
            simulated_columns=32,
        )
        fixed = comparison.fixed[0]
        assert comparison.adaptive.payload_bytes == fixed.payload_bytes
        assert comparison.adaptive.payload_bytes > 0

        def outcomes(run):
            # The rung index differs by convention (fixed runs record -1).
            return [
                {k: v for k, v in s.as_dict().items() if k != "rung"}
                for s in run.segments
            ]

        assert outcomes(comparison.adaptive) == outcomes(fixed)

    def test_batch_and_streaming_traces_identical(self, tiny_device):
        # The controller's input is a segment's window stats; batch and
        # streaming decode of the same drift-injected frames must agree.
        config = self._ladder(tiny_device).config(
            0, 1000.0, tiny_device.timing.frame_rate
        )
        segment = TrajectorySegment(duration_s=0.5, drift_intensity=0.4)
        simulator = LinkSimulator(
            config,
            tiny_device,
            channel=segment.conditions(),
            simulated_columns=32,
            seed=_segment_seed(3, 1),
            faults=(DriftInjector(segment.drift_intensity),),
        )
        _, frames, schedule = simulator.record_session(
            duration_s=segment.duration_s
        )
        assert schedule.events  # the drift really reached the frames
        batch = make_receiver(config, tiny_device.timing).process_frames(frames)
        streaming = make_streaming_receiver(config, tiny_device.timing)
        for frame in frames:
            streaming.feed(frame)
        streaming.finish()
        assert batch.packets_seen > 0
        assert WindowStats.from_report(batch) == WindowStats.from_report(
            streaming.report
        )


class TestDriftDemoTrajectory:
    def test_shape_is_clean_degraded_clean(self):
        trajectory = ChannelTrajectory.drift_demo()
        drifts = [s.drift_intensity for s in trajectory.segments]
        assert len(drifts) == 14
        assert drifts[:2] == [0.0, 0.0]
        assert all(d > 0 for d in drifts[2:10])
        assert drifts[10:] == [0.0] * 4
        assert trajectory.total_duration_s == pytest.approx(14 * 0.8)

    def test_degraded_phase_steps_the_distance(self):
        trajectory = ChannelTrajectory.drift_demo()
        assert trajectory.segments[0].distance_m < trajectory.segments[5].distance_m
