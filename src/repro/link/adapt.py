"""Closed-loop link adaptation: estimator -> hysteresis controller -> rungs.

ColorBars picks CSK order, white-symbol fraction and RS strength offline for
a static channel; the paper's own distance/ISO sweeps show the operating
point that works at 30 cm fails at 2 m.  This module closes the loop:

* **Channel-quality windows** — :class:`WindowStats` condenses one
  adaptation window (a trajectory segment here, a packet boundary in the
  serve path) into the three estimates the
  receive path now surfaces on :class:`~repro.rx.receiver.ReceiverReport`:
  a calibration-symbol SER proxy, the mean ΔE margin to the runner-up
  reference, and the erasure fraction.  Undefined estimates stay ``None``
  (an all-dark window has *no* margin, not a zero margin).
* **Hysteresis rate controller** — :func:`advance` is a pure function of
  ``(state, window stats, policy)``: downshift immediately on any breach,
  upshift only after ``upshift_after_clean`` consecutive clean windows,
  and a probation period after every rung change during which clean
  windows do not count toward the next upshift.  Golden decision traces in
  ``tests/link/test_adapt.py`` pin the state machine.
* **Modulation ladder** — :class:`ModulationLadder` orders
  :class:`ModulationRung` entries fastest-first (CSK order 32 -> 4, white
  margin and RS design-loss ratio growing toward the robust end).  Every
  rung derives its illumination ratio *from the flicker model*, so no
  reachable operating point can violate the perceptual-flicker budget —
  :meth:`ModulationLadder.validate` proves it and raises
  :class:`~repro.exceptions.AdaptationError` otherwise.
* **Trajectory replay** — :func:`simulate_adaptive` replays a
  :class:`~repro.link.channel.ChannelTrajectory` segment by segment,
  re-planning the transmitter at the controller's rung between segments
  and decoding each segment with the batch receiver, and
  :func:`adaptive_vs_fixed` produces the reproducible adaptive-vs-fixed
  goodput comparison ``colorbars adapt`` prints.  Batch and streaming
  decode run the same packet fold, so a segment's report does not depend
  on the decode shape (``tests/rx/test_streaming_equivalence.py``).  The
  serve-side wiring (packet boundaries, downshift-before-quarantine) lives
  in :class:`repro.serve.manager.SessionManager`.

Everything here is deterministic: no clocks, no entropy — segment seeds
derive from the run seed and segment index, and the controller is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.camera.devices import DeviceProfile
from repro.color.cielab import JND_DELTA_E
from repro.core.config import SystemConfig
from repro.core.system import make_receiver
from repro.exceptions import AdaptationError
from repro.faults.injectors import DriftInjector
from repro.flicker.threshold import FlickerModel
from repro.link.channel import ChannelTrajectory, TrajectorySegment
from repro.link.simulator import LinkSimulator
from repro.obs.metrics import NULL_METRICS
from repro.obs.schema import (
    M_ADAPT_DECISIONS,
    M_ADAPT_DOWNSHIFTS,
    M_ADAPT_MARGIN,
    M_ADAPT_RUNG,
    M_ADAPT_UPSHIFTS,
    SPAN_ADAPT_SEGMENT,
)
from repro.obs.trace import NULL_TRACER
from repro.rx.receiver import ReceiverReport, mean_margin

#: Controller actions, as recorded on :class:`AdaptationDecision`.
ACTION_HOLD = "hold"
ACTION_UPSHIFT = "upshift"
ACTION_DOWNSHIFT = "downshift"
ACTION_QUARANTINE = "quarantine"


# -- the modulation ladder -------------------------------------------------


@dataclass(frozen=True)
class ModulationRung:
    """One operating point on the ladder: order, white margin, RS strength.

    ``white_margin`` is *extra* white fraction beyond the flicker model's
    perceptual minimum (robust rungs brighten the white anchor the
    demodulator matches against); ``loss_ratio`` is the design loss ratio
    the RS code is dimensioned for (robust rungs carry more parity).
    """

    csk_order: int
    white_margin: float = 0.0
    loss_ratio: float = 0.25

    def __post_init__(self) -> None:
        if not 0 <= self.white_margin < 1:
            raise AdaptationError(
                f"white_margin must be in [0, 1), got {self.white_margin}"
            )
        if not 0 <= self.loss_ratio < 0.5:
            raise AdaptationError(
                f"loss_ratio must be in [0, 0.5), got {self.loss_ratio}"
            )

    def illumination_ratio(self, symbol_rate: float) -> float:
        """Data share eta at this rung: flicker minimum plus the margin.

        Derived through :class:`~repro.flicker.threshold.FlickerModel`, so
        the white fraction can only sit *above* the perceptual minimum —
        the hard constraint that makes every rung flicker-safe by
        construction.
        """
        return FlickerModel.reference().illumination_ratio(
            symbol_rate, margin=self.white_margin
        )

    def make_config(
        self, symbol_rate: float, frame_rate: float
    ) -> SystemConfig:
        """The shared TX/RX contract this rung operates under."""
        return SystemConfig(
            csk_order=self.csk_order,
            symbol_rate=symbol_rate,
            design_loss_ratio=self.loss_ratio,
            frame_rate=frame_rate,
            illumination_ratio=self.illumination_ratio(symbol_rate),
        )

    def label(self) -> str:
        return (
            f"{self.csk_order}-CSK/w+{self.white_margin:.2f}"
            f"/l={self.loss_ratio:.2f}"
        )


@dataclass(frozen=True)
class ModulationLadder:
    """Rungs ordered fastest-first; index 0 is the most aggressive.

    Downshifting moves to higher indices (more robust); the rung past the
    end is quarantine — the controller only recommends it once the ladder
    is exhausted and the channel still breaches.
    """

    rungs: Tuple[ModulationRung, ...]

    def __post_init__(self) -> None:
        if not self.rungs:
            raise AdaptationError("ladder must have at least one rung")
        orders = [rung.csk_order for rung in self.rungs]
        if any(a < b for a, b in zip(orders, orders[1:])):
            raise AdaptationError(
                "ladder rungs must be ordered fastest-first "
                f"(non-increasing CSK order), got {orders}"
            )

    def __len__(self) -> int:
        return len(self.rungs)

    def config(
        self, rung_index: int, symbol_rate: float, frame_rate: float
    ) -> SystemConfig:
        return self.rungs[rung_index].make_config(symbol_rate, frame_rate)

    def validate(self, symbol_rate: float) -> None:
        """Prove every rung respects the perceptual-flicker budget.

        A rung's white fraction must meet the flicker model's required
        minimum at the operating symbol rate.  Rung etas are *derived* from
        the model, so this can only fail when the model's [0.05, 1] eta
        clamp truncated an infeasibly large white requirement (very low
        symbol rates) — exactly the case adaptation must refuse to run in.
        """
        model = FlickerModel.reference()
        required = model.required_white_fraction(symbol_rate)
        for index, rung in enumerate(self.rungs):
            white = 1.0 - rung.illumination_ratio(symbol_rate)
            if white + 1e-9 < required:
                raise AdaptationError(
                    f"rung {index} ({rung.label()}) carries {white:.2f} "
                    f"white fraction, below the flicker minimum "
                    f"{required:.2f} at {symbol_rate:.0f} sym/s"
                )

    @classmethod
    def default(cls) -> "ModulationLadder":
        """The 32 -> 16 -> 8 -> 4 ladder of the paper's evaluation set."""
        return cls(
            rungs=(
                ModulationRung(csk_order=32, white_margin=0.0, loss_ratio=0.20),
                ModulationRung(csk_order=16, white_margin=0.02, loss_ratio=0.25),
                ModulationRung(csk_order=8, white_margin=0.05, loss_ratio=0.30),
                ModulationRung(csk_order=4, white_margin=0.08, loss_ratio=0.35),
            )
        )


# -- window stats and the hysteresis policy --------------------------------


@dataclass(frozen=True)
class WindowStats:
    """Channel quality measured over one adaptation window.

    The three estimates mirror :class:`~repro.rx.receiver.ReceiverReport`'s
    channel-quality properties; ``None`` means *undefined* (nothing to
    measure), which the policy treats differently from a measured zero.
    """

    frames: int = 0
    packets_seen: int = 0
    packets_decoded: int = 0
    frame_failures: int = 0
    ser_estimate: Optional[float] = None
    delta_e_margin: Optional[float] = None
    erasure_fraction: Optional[float] = None

    @classmethod
    def from_report(cls, report: ReceiverReport) -> "WindowStats":
        """One whole report as a single window (the batch shape)."""
        return cls(
            frames=report.frames_processed,
            packets_seen=report.packets_seen,
            packets_decoded=report.packets_decoded,
            frame_failures=report.frames_failed,
            ser_estimate=report.ser_estimate,
            delta_e_margin=report.delta_e_margin,
            erasure_fraction=report.erasure_fraction,
        )

    @property
    def is_blind(self) -> bool:
        """True when the window produced no channel evidence at all.

        No packet window closed and neither the SER proxy nor the ΔE
        margin is defined: the controller can neither clear nor condemn
        the current rung, so :func:`advance` freezes (a dead channel is
        the serve layer's failure-streak problem, not a rate problem).
        """
        return (
            self.packets_seen == 0
            and self.ser_estimate is None
            and self.delta_e_margin is None
        )

    def describe(self) -> str:
        def fmt(value: Optional[float]) -> str:
            return "n/a" if value is None else f"{value:.3f}"

        return (
            f"frames={self.frames} pkts={self.packets_decoded}"
            f"/{self.packets_seen} ser={fmt(self.ser_estimate)} "
            f"margin={fmt(self.delta_e_margin)} "
            f"erasure={fmt(self.erasure_fraction)}"
        )


class ReportWindowTracker:
    """Successive :class:`WindowStats` deltas off a growing report.

    The streaming/serve shape cannot hand the controller one report per
    window — the session's report only grows.  This tracker snapshots the
    counters at each window boundary and emits the delta as that window's
    stats; the margin is averaged over exactly the bands the window added.
    """

    def __init__(self) -> None:
        self._frames = 0
        self._packets_seen = 0
        self._packets_decoded = 0
        self._frame_failures = 0
        self._calibration_seen = 0
        self._calibration_errors = 0
        self._codeword_symbols = 0
        self._erasure_symbols = 0
        self._bands = 0

    def take(self, report: ReceiverReport) -> WindowStats:
        """Close the current window against ``report`` and start the next."""
        calibration_seen = (
            report.calibration_symbols_seen - self._calibration_seen
        )
        calibration_errors = (
            report.calibration_symbol_errors - self._calibration_errors
        )
        codeword_symbols = report.codeword_symbols_seen - self._codeword_symbols
        erasure_symbols = report.erasure_symbols_seen - self._erasure_symbols
        stats = WindowStats(
            frames=report.frames_processed - self._frames,
            packets_seen=report.packets_seen - self._packets_seen,
            packets_decoded=report.packets_decoded - self._packets_decoded,
            frame_failures=report.frames_failed - self._frame_failures,
            ser_estimate=(
                calibration_errors / calibration_seen
                if calibration_seen > 0
                else None
            ),
            delta_e_margin=mean_margin(report.bands, self._bands),
            erasure_fraction=(
                erasure_symbols / codeword_symbols
                if codeword_symbols > 0
                else None
            ),
        )
        self._frames = report.frames_processed
        self._packets_seen = report.packets_seen
        self._packets_decoded = report.packets_decoded
        self._frame_failures = report.frames_failed
        self._calibration_seen = report.calibration_symbols_seen
        self._calibration_errors = report.calibration_symbol_errors
        self._codeword_symbols = report.codeword_symbols_seen
        self._erasure_symbols = report.erasure_symbols_seen
        self._bands = len(report.bands)
        return stats


@dataclass(frozen=True)
class AdaptationPolicy:
    """The hysteresis constants of the controller (see DESIGN.md §5j)."""

    #: Downshift when the window's mean ΔE margin falls below this
    #: (~3.25 JND: where the 32-CSK rung's decisions stop being safe on
    #: the evaluated devices, with clean-channel windows well above it).
    min_margin_delta_e: float = 3.25 * JND_DELTA_E
    #: Downshift when the calibration-symbol SER proxy exceeds this.
    max_ser: float = 0.10
    #: Downshift when the erased share of codeword symbols exceeds this.
    max_erasure_fraction: float = 0.50
    #: Clean windows required (outside probation) before an upshift.
    upshift_after_clean: int = 2
    #: Windows after any rung change during which cleanliness does not
    #: count toward the next upshift.
    probation_windows: int = 1
    #: Consecutive breached windows *at the last rung* before the
    #: controller recommends quarantine.
    quarantine_after_breaches: int = 3

    def __post_init__(self) -> None:
        if self.min_margin_delta_e < 0:
            raise AdaptationError(
                f"min_margin_delta_e must be >= 0, got {self.min_margin_delta_e}"
            )
        for name in ("max_ser", "max_erasure_fraction"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise AdaptationError(
                    f"{name} must be in [0, 1], got {value}"
                )
        for name in (
            "upshift_after_clean",
            "quarantine_after_breaches",
        ):
            value = getattr(self, name)
            if value < 1:
                raise AdaptationError(f"{name} must be >= 1, got {value}")
        if self.probation_windows < 0:
            raise AdaptationError(
                f"probation_windows must be >= 0, got {self.probation_windows}"
            )

    def breach_reason(self, stats: WindowStats) -> Optional[str]:
        """Why this window breaches the policy, or ``None`` if clean.

        Checked in fixed priority order so decision traces are stable.  A
        window that saw packets but decoded none is the FEC cliff itself.
        Blind windows (no evidence in either direction,
        :attr:`WindowStats.is_blind`) are neither clean nor breached —
        :func:`advance` handles them before this is consulted.
        """
        if (
            stats.delta_e_margin is not None
            and stats.delta_e_margin < self.min_margin_delta_e
        ):
            return "margin"
        if stats.ser_estimate is not None and stats.ser_estimate > self.max_ser:
            return "ser"
        if (
            stats.erasure_fraction is not None
            and stats.erasure_fraction > self.max_erasure_fraction
        ):
            return "erasure"
        if stats.packets_seen > 0 and stats.packets_decoded == 0:
            return "fec-cliff"
        return None


# -- the pure state machine ------------------------------------------------


@dataclass(frozen=True)
class ControllerState:
    """The controller's whole memory: rung, streaks, probation."""

    rung: int
    clean_windows: int = 0
    probation: int = 0
    breach_streak: int = 0


@dataclass(frozen=True)
class AdaptationDecision:
    """One controller step: what it saw, what it did, why."""

    window: int
    action: str
    previous_rung: int
    rung: int
    reason: str
    stats: WindowStats

    def describe(self) -> str:
        arrow = (
            f"rung {self.previous_rung}"
            if self.previous_rung == self.rung
            else f"rung {self.previous_rung}->{self.rung}"
        )
        return (
            f"w{self.window:03d} {self.action:<10} {arrow:<11} "
            f"[{self.reason}] {self.stats.describe()}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "action": self.action,
            "previous_rung": self.previous_rung,
            "rung": self.rung,
            "reason": self.reason,
            "stats": {
                "frames": self.stats.frames,
                "packets_seen": self.stats.packets_seen,
                "packets_decoded": self.stats.packets_decoded,
                "frame_failures": self.stats.frame_failures,
                "ser_estimate": self.stats.ser_estimate,
                "delta_e_margin": self.stats.delta_e_margin,
                "erasure_fraction": self.stats.erasure_fraction,
            },
        }


def advance(
    state: ControllerState,
    stats: WindowStats,
    policy: AdaptationPolicy,
    num_rungs: int,
) -> Tuple[ControllerState, str, str]:
    """One pure hysteresis step: ``(state, stats, policy) -> (state', action, reason)``.

    * **Blind window** (:attr:`WindowStats.is_blind`) -> hold with the
      state frozen: no evidence either way, so neither the clean streak
      nor probation nor the breach streak moves.
    * **Breach** -> downshift immediately (one rung toward robust) and
      enter probation; at the last rung, hold and count the breach streak
      until it crosses ``quarantine_after_breaches`` — quarantine is the
      rung past the end of the ladder, never the first response.
    * **Clean during probation** -> hold; probation decrements and the
      clean-window streak stays at zero (recovery must prove itself).
    * **Clean otherwise** -> the streak grows; at
      ``upshift_after_clean`` it buys one upshift (toward fast) and a
      fresh probation.
    """
    if stats.is_blind:
        return state, ACTION_HOLD, "blind"
    breach = policy.breach_reason(stats)
    if breach is not None:
        if state.rung + 1 < num_rungs:
            return (
                ControllerState(
                    rung=state.rung + 1,
                    probation=policy.probation_windows,
                ),
                ACTION_DOWNSHIFT,
                breach,
            )
        streak = state.breach_streak + 1
        if streak >= policy.quarantine_after_breaches:
            return (
                ControllerState(rung=state.rung, breach_streak=streak),
                ACTION_QUARANTINE,
                breach,
            )
        return (
            ControllerState(rung=state.rung, breach_streak=streak),
            ACTION_HOLD,
            breach,
        )
    if state.probation > 0:
        return (
            ControllerState(rung=state.rung, probation=state.probation - 1),
            ACTION_HOLD,
            "probation",
        )
    clean = state.clean_windows + 1
    if clean >= policy.upshift_after_clean and state.rung > 0:
        return (
            ControllerState(
                rung=state.rung - 1,
                probation=policy.probation_windows,
            ),
            ACTION_UPSHIFT,
            "clean-streak",
        )
    return (
        ControllerState(rung=state.rung, clean_windows=clean),
        ACTION_HOLD,
        "clean",
    )


class LinkAdaptationController:
    """Stateful wrapper around :func:`advance`, with a decision log.

    Observability is injected; decisions recorded through
    :meth:`_record_decision` feed the ``colorbars.adapt.*`` metrics on the
    trajectory and serve paths alike.
    """

    def __init__(
        self,
        ladder: Optional[ModulationLadder] = None,
        policy: Optional[AdaptationPolicy] = None,
        initial_rung: int = 0,
        metrics=None,
    ) -> None:
        self.ladder = ladder if ladder is not None else ModulationLadder.default()
        self.policy = policy if policy is not None else AdaptationPolicy()
        if not 0 <= initial_rung < len(self.ladder):
            raise AdaptationError(
                f"initial_rung {initial_rung} outside ladder of "
                f"{len(self.ladder)} rung(s)"
            )
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.state = ControllerState(rung=initial_rung)
        self.decisions: List[AdaptationDecision] = []

    @property
    def rung(self) -> int:
        return self.state.rung

    @property
    def can_downshift(self) -> bool:
        return self.state.rung + 1 < len(self.ladder)

    def observe(self, stats: WindowStats) -> AdaptationDecision:
        """Feed one window's stats; returns the decision taken."""
        previous = self.state.rung
        self.state, action, reason = advance(
            self.state, stats, self.policy, len(self.ladder)
        )
        return self._record_decision(previous, action, reason, stats)

    def force_downshift(
        self, reason: str, stats: Optional[WindowStats] = None
    ) -> Optional[AdaptationDecision]:
        """Downshift outside the window cadence (serve failure streaks).

        Returns ``None`` when the ladder is already exhausted — the
        caller's signal that quarantine is all that is left.
        """
        if not self.can_downshift:
            return None
        previous = self.state.rung
        self.state = ControllerState(
            rung=previous + 1, probation=self.policy.probation_windows
        )
        return self._record_decision(
            previous,
            ACTION_DOWNSHIFT,
            reason,
            stats if stats is not None else WindowStats(),
        )

    def trace(self) -> Tuple[str, ...]:
        """The golden decision trace: one line per decision."""
        return tuple(decision.describe() for decision in self.decisions)

    def _record_decision(
        self, previous: int, action: str, reason: str, stats: WindowStats
    ) -> AdaptationDecision:
        decision = AdaptationDecision(
            window=len(self.decisions),
            action=action,
            previous_rung=previous,
            rung=self.state.rung,
            reason=reason,
            stats=stats,
        )
        self.decisions.append(decision)
        metrics = self.metrics
        metrics.counter(M_ADAPT_DECISIONS).inc()
        if action == ACTION_UPSHIFT:
            metrics.counter(M_ADAPT_UPSHIFTS).inc()
        elif action == ACTION_DOWNSHIFT:
            metrics.counter(M_ADAPT_DOWNSHIFTS).inc()
        metrics.gauge(M_ADAPT_RUNG).set(self.state.rung)
        if stats.delta_e_margin is not None:
            metrics.histogram(M_ADAPT_MARGIN).observe(stats.delta_e_margin)
        return decision


# -- trajectory replay -----------------------------------------------------


def _segment_seed(seed, index: int) -> int:
    """Stable per-segment seed: independent recordings, reproducible runs."""
    base = seed if isinstance(seed, int) else 0
    return (base * 1000003 + 7919 * index + 1) % (2**31)


@dataclass(frozen=True)
class SegmentOutcome:
    """One trajectory segment's result under one configuration."""

    index: int
    rung: int
    csk_order: int
    payload_bytes: int
    packets_seen: int
    packets_decoded: int
    packets_failed_fec: int
    stats: WindowStats

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "rung": self.rung,
            "csk_order": self.csk_order,
            "payload_bytes": self.payload_bytes,
            "packets_seen": self.packets_seen,
            "packets_decoded": self.packets_decoded,
            "packets_failed_fec": self.packets_failed_fec,
        }


@dataclass
class TrajectoryRunResult:
    """An adaptive (or fixed-baseline) run over one trajectory."""

    label: str
    duration_s: float
    payload_bytes: int
    segments: List[SegmentOutcome] = field(default_factory=list)
    decisions: List[AdaptationDecision] = field(default_factory=list)
    quarantined: bool = False

    @property
    def goodput_bps(self) -> float:
        return self.payload_bytes * 8.0 / self.duration_s

    def trace(self) -> Tuple[str, ...]:
        return tuple(decision.describe() for decision in self.decisions)

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "duration_s": self.duration_s,
            "payload_bytes": self.payload_bytes,
            "goodput_bps": self.goodput_bps,
            "quarantined": self.quarantined,
            "segments": [segment.as_dict() for segment in self.segments],
            "decisions": [decision.as_dict() for decision in self.decisions],
        }


def _decode_segment_report(
    config: SystemConfig,
    device: DeviceProfile,
    segment: TrajectorySegment,
    seed: int,
    simulated_columns: int,
) -> ReceiverReport:
    """Record one segment and decode it with the batch receiver."""
    faults = ()
    if segment.drift_intensity > 0:
        faults = (DriftInjector(segment.drift_intensity),)
    simulator = LinkSimulator(
        config,
        device,
        channel=segment.conditions(),
        simulated_columns=simulated_columns,
        seed=seed,
        faults=faults,
    )
    _, frames, _ = simulator.record_session(duration_s=segment.duration_s)
    return make_receiver(config, device.timing).process_frames(frames)


def _run_trajectory(
    trajectory: ChannelTrajectory,
    device: DeviceProfile,
    label: str,
    seed,
    simulated_columns: int,
    config_for_segment,
    on_report=None,
    tracer=None,
) -> TrajectoryRunResult:
    """Shared segment loop of the adaptive and fixed runs."""
    tracer = tracer if tracer is not None else NULL_TRACER
    result = TrajectoryRunResult(
        label=label,
        duration_s=trajectory.total_duration_s,
        payload_bytes=0,
    )
    for index, segment in enumerate(trajectory.segments):
        config, rung = config_for_segment(index)
        if config is None:
            # Quarantined: the rest of the trajectory is dead air, but the
            # goodput denominator stays the full duration.
            break
        with tracer.span(
            SPAN_ADAPT_SEGMENT,
            segment=index,
            rung=rung,
            order=config.csk_order,
        ) as span:
            report = _decode_segment_report(
                config,
                device,
                segment,
                _segment_seed(seed, index),
                simulated_columns,
            )
            stats = WindowStats.from_report(report)
            span.set("stats", stats.describe())
        result.payload_bytes += report.payload_bytes
        result.segments.append(
            SegmentOutcome(
                index=index,
                rung=rung,
                csk_order=config.csk_order,
                payload_bytes=report.payload_bytes,
                packets_seen=report.packets_seen,
                packets_decoded=report.packets_decoded,
                packets_failed_fec=report.packets_failed_fec,
                stats=stats,
            )
        )
        if on_report is not None:
            on_report(stats)
    return result


def simulate_adaptive(
    trajectory: ChannelTrajectory,
    device: DeviceProfile,
    ladder: Optional[ModulationLadder] = None,
    policy: Optional[AdaptationPolicy] = None,
    symbol_rate: float = 1500.0,
    seed=0,
    simulated_columns: int = 48,
    initial_rung: int = 0,
    tracer=None,
    metrics=None,
) -> TrajectoryRunResult:
    """Run the closed loop over a trajectory: one segment = one window.

    Each segment is transmitted at the controller's current rung and
    decoded; the resulting window stats drive the
    next decision, so the transmitter re-plans at rung changes exactly at
    segment boundaries — the simulation analogue of renegotiating at
    packet boundaries.  A quarantine decision ends the run (graceful
    degradation: the remaining trajectory is dead air, not an exception).
    """
    ladder = ladder if ladder is not None else ModulationLadder.default()
    ladder.validate(symbol_rate)
    controller = LinkAdaptationController(
        ladder=ladder,
        policy=policy,
        initial_rung=initial_rung,
        metrics=metrics,
    )
    frame_rate = device.timing.frame_rate
    state = {"quarantined": False}

    def config_for_segment(index: int):
        if state["quarantined"]:
            return None, controller.rung
        rung = controller.rung
        return ladder.config(rung, symbol_rate, frame_rate), rung

    def on_report(stats: WindowStats) -> None:
        decision = controller.observe(stats)
        if decision.action == ACTION_QUARANTINE:
            state["quarantined"] = True

    result = _run_trajectory(
        trajectory,
        device,
        label="adaptive",
        seed=seed,
        simulated_columns=simulated_columns,
        config_for_segment=config_for_segment,
        on_report=on_report,
        tracer=tracer,
    )
    result.decisions = list(controller.decisions)
    result.quarantined = state["quarantined"]
    return result


def simulate_fixed(
    trajectory: ChannelTrajectory,
    device: DeviceProfile,
    config: SystemConfig,
    label: Optional[str] = None,
    seed=0,
    simulated_columns: int = 48,
    tracer=None,
) -> TrajectoryRunResult:
    """A fixed-configuration baseline over the same trajectory and seeds."""
    return _run_trajectory(
        trajectory,
        device,
        label=label if label is not None else config.describe(),
        seed=seed,
        simulated_columns=simulated_columns,
        config_for_segment=lambda index: (config, -1),
        tracer=tracer,
    )


@dataclass
class AdaptiveComparison:
    """The adaptive-vs-fixed goodput curve over one trajectory."""

    adaptive: TrajectoryRunResult
    fixed: Dict[int, TrajectoryRunResult]
    symbol_rate: float
    seed: int

    def best_fixed(self) -> Tuple[int, TrajectoryRunResult]:
        """The fixed rung with the highest end-to-end payload, ties to
        the faster (lower-index) rung."""
        best_index = min(
            self.fixed,
            key=lambda index: (-self.fixed[index].payload_bytes, index),
        )
        return best_index, self.fixed[best_index]

    def as_dict(self) -> Dict[str, object]:
        best_index, best = self.best_fixed()
        return {
            "symbol_rate": self.symbol_rate,
            "seed": self.seed,
            "adaptive": self.adaptive.as_dict(),
            "fixed": {
                str(index): run.as_dict()
                for index, run in sorted(self.fixed.items())
            },
            "best_fixed_rung": best_index,
            "best_fixed_goodput_bps": best.goodput_bps,
            "adaptive_goodput_bps": self.adaptive.goodput_bps,
        }


def adaptive_vs_fixed(
    trajectory: ChannelTrajectory,
    device: DeviceProfile,
    ladder: Optional[ModulationLadder] = None,
    policy: Optional[AdaptationPolicy] = None,
    symbol_rate: float = 1500.0,
    seed=0,
    simulated_columns: int = 48,
    tracer=None,
    metrics=None,
) -> AdaptiveComparison:
    """The headline experiment: closed loop vs every fixed rung.

    All runs share the trajectory and the per-segment seeds (common random
    numbers), so the comparison isolates the controller's contribution.
    """
    ladder = ladder if ladder is not None else ModulationLadder.default()
    ladder.validate(symbol_rate)
    adaptive = simulate_adaptive(
        trajectory,
        device,
        ladder=ladder,
        policy=policy,
        symbol_rate=symbol_rate,
        seed=seed,
        simulated_columns=simulated_columns,
        tracer=tracer,
        metrics=metrics,
    )
    frame_rate = device.timing.frame_rate
    fixed: Dict[int, TrajectoryRunResult] = {}
    for index, rung in enumerate(ladder.rungs):
        fixed[index] = simulate_fixed(
            trajectory,
            device,
            ladder.config(index, symbol_rate, frame_rate),
            label=f"fixed:{rung.label()}",
            seed=seed,
            simulated_columns=simulated_columns,
            tracer=tracer,
        )
    return AdaptiveComparison(
        adaptive=adaptive,
        fixed=fixed,
        symbol_rate=symbol_rate,
        seed=seed if isinstance(seed, int) else 0,
    )
