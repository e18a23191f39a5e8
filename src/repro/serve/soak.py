"""Deterministic chaos soak of the session service.

:func:`run_soak` stands up one :class:`~repro.serve.manager.SessionManager`
and drives hundreds of concurrent receiver sessions through it, round-robin,
the way a busy gateway would see them — most healthy, some **chaotic**
(their recordings pass through a seeded :mod:`repro.faults` injector), some
**poison** (every frame raises inside the receiver), some **stalled** (they
go silent mid-stream and must be idle-evicted).  The soak asserts the
service contracts end to end:

* queue depth and buffered bytes never exceed :class:`ServePolicy` caps;
* poison sessions land in quarantine as structured
  :class:`~repro.exceptions.SessionFailure` records — the manager survives;
* stalled sessions are evicted by the (virtual) idle clock;
* healthy sessions decode byte-identically to a no-chaos soak, because
  roles only ever *replace* a session's frames, never reorder its peers'.

Everything is seeded: recordings, role assignment, and fault injection all
derive from ``SoakSpec.seed`` via :mod:`repro.util.rng`, and time is a
:class:`VirtualClock`, so two soaks with the same spec are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.camera.devices import DeviceProfile, generic_device
from repro.core.config import SystemConfig
from repro.core.system import make_streaming_receiver
from repro.exceptions import (
    AdmissionError,
    CameraError,
    ConfigurationError,
    SessionFailure,
)
from repro.faults import FAULT_REGISTRY, FaultSchedule, make_injector
from repro.link.simulator import LinkSimulator
from repro.serve.manager import ServePolicy, SessionManager
from repro.util.rng import derive_rng, make_rng

#: Session roles drawn per session from the soak seed.
ROLE_HEALTHY = "healthy"
ROLE_CHAOS = "chaos"
ROLE_POISON = "poison"
ROLE_STALL = "stall"

#: Frames a stalled session submits before going silent forever.
_STALL_AFTER_FRAMES = 3
#: Frames each session submits per scheduler round (the interleave grain).
_FRAMES_PER_ROUND = 4
#: Virtual seconds the clock advances per scheduler round.
_ROUND_SECONDS = 0.05


class PoisonFrame:
    """A frame whose pixel buffer is unreadable (simulated sensor fault).

    Reading ``pixels`` raises :class:`~repro.exceptions.CameraError`, which
    the receiver contains into a per-frame
    :class:`~repro.exceptions.FrameFailure`; a session made of these rides
    its failure streak straight into quarantine.
    """

    def __init__(self, index: int) -> None:
        self.index = index

    @property
    def pixels(self):
        raise CameraError(
            f"poison frame {self.index}: sensor returned no image data"
        )

    def __repr__(self) -> str:
        return f"PoisonFrame(index={self.index})"


class VirtualClock:
    """Deterministic monotonic clock for idle-eviction accounting."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


@dataclass(frozen=True)
class SoakSpec:
    """Shape of one soak: population, link config, and role mix."""

    sessions: int = 200
    seed: int = 0
    duration_s: float = 0.5
    csk_order: int = 4
    symbol_rate: float = 1000.0
    simulated_columns: int = 32
    #: Recordings are shared ``session i -> recording i % distinct`` so a
    #: 200-session soak costs ~6 simulations, not 200.
    distinct_recordings: int = 6
    chaos_fraction: float = 0.0
    poison_fraction: float = 0.0
    stall_fraction: float = 0.0
    #: Intensity handed to each chaotic session's fault injector.
    fault_intensity: float = 0.3

    def validate(self) -> None:
        if self.sessions < 1:
            raise ConfigurationError(
                f"soak needs at least one session, got {self.sessions}"
            )
        if self.distinct_recordings < 1:
            raise ConfigurationError(
                "distinct_recordings must be >= 1, got "
                f"{self.distinct_recordings}"
            )
        total = self.chaos_fraction + self.poison_fraction + self.stall_fraction
        for name, value in (
            ("chaos_fraction", self.chaos_fraction),
            ("poison_fraction", self.poison_fraction),
            ("stall_fraction", self.stall_fraction),
            ("fault_intensity", self.fault_intensity),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )
        if total > 1.0:
            raise ConfigurationError(
                f"role fractions sum to {total:g} > 1"
            )


@dataclass
class SessionOutcome:
    """Terminal record of one soak session."""

    session_id: str
    role: str
    state: str
    frames_submitted: int
    frames_dropped: int
    peak_queue_depth: int
    payloads: List[bytes]
    failure: Optional[SessionFailure] = None


@dataclass
class SoakReport:
    """Everything a caller (or the CI gate) needs to judge a soak."""

    spec: SoakSpec
    outcomes: List[SessionOutcome] = field(default_factory=list)
    failures: List[SessionFailure] = field(default_factory=list)
    rejected: List[Tuple[str, str]] = field(default_factory=list)
    evicted: List[str] = field(default_factory=list)
    peak_queue_depth: int = 0
    frames_dropped: int = 0

    @property
    def goodput_bytes(self) -> int:
        """Payload bytes decoded across all sessions that reached a flush."""
        return sum(
            len(payload)
            for outcome in self.outcomes
            for payload in outcome.payloads
        )

    @property
    def quarantined(self) -> List[SessionOutcome]:
        return [o for o in self.outcomes if o.failure is not None]

    def roles(self) -> Dict[str, str]:
        return {o.session_id: o.role for o in self.outcomes}

    def as_dict(self) -> dict:
        """JSON-safe summary (payload bytes reduced to counts)."""
        role_counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            role_counts[outcome.role] = role_counts.get(outcome.role, 0) + 1
        return {
            "sessions": self.spec.sessions,
            "seed": self.spec.seed,
            "roles": role_counts,
            "goodput_bytes": self.goodput_bytes,
            "packets_decoded": sum(
                len(o.payloads) for o in self.outcomes
            ),
            "frames_dropped": self.frames_dropped,
            "peak_queue_depth": self.peak_queue_depth,
            "rejected": [
                {"session": session_id, "reason": reason}
                for session_id, reason in self.rejected
            ],
            "evicted": list(self.evicted),
            "quarantined": [failure.describe() for failure in self.failures],
            "states": {
                outcome.session_id: outcome.state for outcome in self.outcomes
            },
        }


def _draw_role(spec: SoakSpec, index: int) -> str:
    """Seeded role for session ``index`` (independent of every other draw)."""
    rng = derive_rng(make_rng(spec.seed), f"soak:session:{index}")
    u = float(rng.random())
    if u < spec.chaos_fraction:
        return ROLE_CHAOS
    if u < spec.chaos_fraction + spec.poison_fraction:
        return ROLE_POISON
    if u < spec.chaos_fraction + spec.poison_fraction + spec.stall_fraction:
        return ROLE_STALL
    return ROLE_HEALTHY


def _base_recordings(
    spec: SoakSpec, config: SystemConfig, device: DeviceProfile
) -> List[list]:
    recordings = []
    for recording_index in range(spec.distinct_recordings):
        simulator = LinkSimulator(
            config,
            device,
            simulated_columns=spec.simulated_columns,
            seed=spec.seed + recording_index,
        )
        _, frames, _ = simulator.record_session(duration_s=spec.duration_s)
        recordings.append(frames)
    return recordings


def _session_frames(
    spec: SoakSpec, index: int, role: str, recordings: List[list]
) -> Iterator:
    """This session's frame stream — its shared recording, warped by role.

    Lazy: a chaotic session's damaged copy of a frame is made only when the
    scheduler asks for that frame.
    """
    frames = recordings[index % spec.distinct_recordings]
    if role == ROLE_POISON:
        return (PoisonFrame(frame.index) for frame in frames)
    if role == ROLE_STALL:
        return iter(frames[:_STALL_AFTER_FRAMES])
    if role == ROLE_CHAOS:
        names = sorted(FAULT_REGISTRY)
        injector = make_injector(
            names[index % len(names)], spec.fault_intensity
        )
        rng = derive_rng(make_rng(spec.seed), f"soak:chaos:{index}")
        return injector.stream(frames, rng, FaultSchedule())
    return iter(frames)


def run_soak(
    spec: SoakSpec,
    device: Optional[DeviceProfile] = None,
    policy: Optional[ServePolicy] = None,
    tracer=None,
    metrics=None,
) -> SoakReport:
    """Drive one full soak through a :class:`SessionManager`; see module doc."""
    spec.validate()
    if device is None:
        device = generic_device()
    config = SystemConfig(
        csk_order=spec.csk_order,
        symbol_rate=spec.symbol_rate,
        design_loss_ratio=device.timing.gap_fraction,
        frame_rate=device.timing.frame_rate,
    )
    if policy is None:
        policy = ServePolicy(
            max_sessions=max(spec.sessions, 1),
            max_queued_frames=_FRAMES_PER_ROUND * 2,
            idle_timeout_s=_ROUND_SECONDS * 4,
        )
    clock = VirtualClock()
    manager = SessionManager(
        lambda session_id: make_streaming_receiver(config, device.timing),
        policy=policy,
        tracer=tracer,
        metrics=metrics,
        clock=clock,
    )
    report = SoakReport(spec=spec)
    recordings = _base_recordings(spec, config, device)

    roles: Dict[str, str] = {}
    # Every session reads its frames from an iterator with one frame of
    # lookahead: ``upcoming[sid]`` is its next frame, or ``None`` once it has
    # none left to send.  A damaged copy therefore lives only from its
    # injection until it is fed, not for the whole soak.
    streams: Dict[str, Iterator] = {}
    upcoming: Dict[str, object] = {}
    for index in range(spec.sessions):
        session_id = f"session-{index:04d}"
        role = _draw_role(spec, index)
        try:
            manager.open_session(session_id)
        except AdmissionError as exc:
            report.rejected.append((session_id, exc.reason))
            continue
        roles[session_id] = role
        stream = _session_frames(spec, index, role, recordings)
        streams[session_id] = stream
        upcoming[session_id] = next(stream, None)

    # Round-robin scheduler: every round each live session submits a small
    # batch, the manager pumps, the virtual clock ticks, idlers fall off.
    while any(
        upcoming[sid] is not None and manager.sessions[sid].is_active
        for sid in streams
    ):
        for session_id, stream in streams.items():
            session = manager.sessions[session_id]
            for _ in range(_FRAMES_PER_ROUND):
                if not session.is_active:
                    upcoming[session_id] = None
                    break
                frame = upcoming[session_id]
                if frame is None:
                    break
                manager.submit_frame(session_id, frame)
                upcoming[session_id] = next(stream, None)
        manager.pump()
        clock.advance(_ROUND_SECONDS)
        report.evicted.extend(manager.evict_idle())
    # Polite producers close their sessions; stalled ones just go silent,
    # so only the idle reaper can retire them.
    for session_id, role in roles.items():
        if role != ROLE_STALL and manager.sessions[session_id].is_active:
            manager.close_session(session_id)
    clock.advance((policy.idle_timeout_s or 0.0) + _ROUND_SECONDS)
    report.evicted.extend(manager.evict_idle())
    manager.close_all()

    for session_id, role in roles.items():
        session = manager.sessions[session_id]
        report.outcomes.append(
            SessionOutcome(
                session_id=session_id,
                role=role,
                state=session.state,
                frames_submitted=session.frames_submitted,
                frames_dropped=session.frames_dropped,
                peak_queue_depth=session.peak_queue_depth,
                payloads=session.payloads(),
                failure=session.failure,
            )
        )
        report.frames_dropped += session.frames_dropped
    report.failures = list(manager.failures)
    report.peak_queue_depth = manager.peak_queue_depth
    return report
