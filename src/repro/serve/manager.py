"""The resilient session manager: thousands of receivers, none fatal.

:class:`SessionManager` multiplexes concurrent
:class:`~repro.rx.streaming.StreamingReceiver` sessions behind explicit
robustness contracts, mirroring the resilient sweep runtime (PR 4) one
level up — what :class:`~repro.exceptions.CellFailure` is to a sweep cell,
:class:`~repro.exceptions.SessionFailure` is to a session:

* **Admission control** — a hard ``max_sessions`` cap; refusals are
  structured (:class:`~repro.exceptions.AdmissionError` with a stable
  ``reason`` token) and counted, never silent.
* **Backpressure** — each session's frame queue is bounded by count and by
  bytes; overflow follows the configured policy (``drop-oldest`` sheds the
  stalest frame and admits the new one, ``reject`` refuses the new one).
  Either way the cap holds: queue depth and buffered bytes can never
  exceed configuration, no matter how fast producers push.
* **Idle eviction** — sessions silent longer than ``idle_timeout_s`` are
  flushed and retired, so abandoned producers cannot pin memory.  Time is
  an injectable monotonic clock, so eviction is deterministic under test.
* **Quarantine** — a session whose frames keep failing (``poison``), or
  whose receiver raises outright (``error``), is contained: its queue is
  discarded, a :class:`SessionFailure` is recorded, and every other
  session keeps decoding.  The manager itself never dies.
* **Link adaptation** — with a ``make_controller`` factory, each session
  carries a :class:`~repro.link.adapt.LinkAdaptationController` fed one
  channel-quality window per packet boundary; decisions are recorded as
  ``adapt-decision`` spans and ``colorbars.adapt.*`` metrics.  Quarantine
  becomes the *last* rung: a failure streak first forces a downshift
  (counted as an averted quarantine) and only quarantines — with cause
  ``channel`` — once the ladder is exhausted or the controller itself
  gives up.

Every pump preprocesses its frames ahead of feeding them: it converts
them to scanline Lab on the lanes (:mod:`repro.util.lanes`) a bounded
window at a time, across sessions, then feeds each frame with its
scanlines in the order frame-at-a-time feeding would.  The lookahead
moves no byte of any output and changes no containment (see
:meth:`SessionManager._feed_turns`).

Per-session spans and admitted/rejected/evicted/quarantined counters and
queue-depth gauges thread through :mod:`repro.obs` (see
``docs/METRICS.md``); the no-op defaults keep the hot path clean.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.exceptions import (
    AdmissionError,
    ConfigurationError,
    SessionFailure,
    SessionStateError,
)
from repro.link.adapt import ACTION_QUARANTINE, WindowStats
from repro.obs.metrics import NULL_METRICS
from repro.obs.schema import (
    M_ADAPT_QUARANTINES_AVERTED,
    SPAN_ADAPT_DECISION,
    M_SESSION_FRAMES_DROPPED,
    M_SESSION_QUEUE_PEAK,
    M_SESSIONS_ACTIVE,
    M_SESSIONS_ADMITTED,
    M_SESSIONS_CLOSED,
    M_SESSIONS_EVICTED,
    M_SESSIONS_QUARANTINED,
    M_SESSIONS_REJECTED,
    SPAN_SERVE_CLOSE,
    SPAN_SERVE_PUMP,
)
from repro.obs.trace import NULL_TRACER
from repro.rx.receiver import preprocess_frames
from repro.rx.streaming import StreamingReceiver
from repro.serve.session import (
    STATE_CLOSED,
    STATE_EVICTED,
    STATE_QUARANTINED,
    ReceiverSession,
    frame_cost_bytes,
)
from repro.util import lanes

#: Frames per lane in one lookahead window of :meth:`SessionManager.pump`.
#: On 2 CPUs (16-frame windows) the benchmark's 200-session soak ran 26%
#: faster than frame-at-a-time feeding, at +1.6 MB peak RSS; one window
#: per pump (up to 800 frames) ran 3-5% faster still but took peak RSS
#: from ~125 to ~220 MB (EXPERIMENTS.md, "Serving lookahead").
WINDOW_FRAMES_PER_LANE = 8

#: Backpressure policies for a full session queue.
BACKPRESSURE_DROP_OLDEST = "drop-oldest"
BACKPRESSURE_REJECT = "reject"
BACKPRESSURE_POLICIES = (BACKPRESSURE_DROP_OLDEST, BACKPRESSURE_REJECT)

#: Admission refusal reasons (:class:`AdmissionError` ``reason`` tokens).
REJECT_CAPACITY = "capacity"
REJECT_DUPLICATE = "duplicate"

#: Quarantine causes (``SessionFailure.cause`` tokens): ``poison`` (frame
#: failure streak, no controller or ladder exhausted), ``error`` (receiver
#: raised), ``channel`` (the adaptation controller recommended quarantine).
CAUSE_POISON = "poison"
CAUSE_ERROR = "error"
CAUSE_CHANNEL = "channel"

#: ``submit_frame`` outcomes.
SUBMIT_ACCEPTED = "accepted"
SUBMIT_DROPPED_OLDEST = "accepted-dropped-oldest"
SUBMIT_REJECTED_FULL = "rejected-full"
SUBMIT_DROPPED_QUARANTINED = "dropped-quarantined"


@dataclass(frozen=True)
class ServePolicy:
    """Robustness knobs of the session service (all caps are hard caps)."""

    #: Admitted-and-active sessions the manager will hold at once.
    max_sessions: Optional[int] = 1024
    #: Frames one session may have queued (count cap).
    max_queued_frames: int = 64
    #: Bytes one session may have queued (memory cap); ``None`` = count-only.
    max_queued_bytes: Optional[int] = None
    #: What to do with a frame submitted to a full queue.
    backpressure: str = BACKPRESSURE_DROP_OLDEST
    #: Evict sessions silent this long (seconds); ``None`` = never.
    idle_timeout_s: Optional[float] = None
    #: Consecutive contained per-frame failures before quarantine.
    quarantine_after: int = 8

    def validate(self) -> None:
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1 or None, got {self.max_sessions}"
            )
        if self.max_queued_frames < 1:
            raise ConfigurationError(
                f"max_queued_frames must be >= 1, got {self.max_queued_frames}"
            )
        if self.max_queued_bytes is not None and self.max_queued_bytes < 1:
            raise ConfigurationError(
                f"max_queued_bytes must be >= 1 or None, got "
                f"{self.max_queued_bytes}"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.idle_timeout_s is not None and self.idle_timeout_s <= 0:
            raise ConfigurationError(
                f"idle_timeout_s must be positive or None, got "
                f"{self.idle_timeout_s}"
            )
        if self.quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )


class SessionManager:
    """Admit, feed, supervise and retire streaming receiver sessions.

    ``make_streaming`` builds the session's receiver from its id (most
    deployments ignore the id — every phone shares the link config).
    ``clock`` is a monotonic-seconds callable used only for idle
    accounting; inject a virtual clock for deterministic eviction tests.
    """

    def __init__(
        self,
        make_streaming: Callable[[str], StreamingReceiver],
        policy: Optional[ServePolicy] = None,
        tracer=None,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
        make_controller: Optional[Callable[[str], object]] = None,
    ) -> None:
        self.make_streaming = make_streaming
        #: Optional per-session link-adaptation controller factory
        #: (session id -> :class:`~repro.link.adapt.LinkAdaptationController`).
        #: ``None`` keeps the pre-adaptation behavior exactly.
        self.make_controller = make_controller
        self.policy = policy if policy is not None else ServePolicy()
        self.policy.validate()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.clock = clock
        #: Every session ever admitted, by id, in admission order.  Retired
        #: sessions stay retrievable; only active ones count against caps.
        self.sessions: Dict[str, ReceiverSession] = {}
        #: Quarantine records, in occurrence order (the degraded signal).
        self.failures: List[SessionFailure] = []
        self.rejections = 0
        self._active = 0
        self._peak_queue_depth = 0

    # -- admission -------------------------------------------------------

    @property
    def peak_queue_depth(self) -> int:
        return self._peak_queue_depth

    @property
    def degraded(self) -> bool:
        """True once any session has been quarantined."""
        return bool(self.failures)

    def failure_summary(self) -> str:
        counts: Dict[str, int] = {}
        for failure in self.failures:
            counts[failure.cause] = counts.get(failure.cause, 0) + 1
        inner = ", ".join(
            f"{cause}: {count}" for cause, count in sorted(counts.items())
        )
        return f"{len(self.failures)} session(s) quarantined ({inner})"

    def open_session(self, session_id: str) -> ReceiverSession:
        """Admit a session or refuse with a structured reason."""
        policy = self.policy
        if session_id in self.sessions:
            self.rejections += 1
            self.metrics.counter(M_SESSIONS_REJECTED).inc()
            raise AdmissionError(
                REJECT_DUPLICATE,
                f"session id {session_id!r} already admitted "
                f"({self.sessions[session_id].state})",
            )
        if policy.max_sessions is not None and self._active >= policy.max_sessions:
            self.rejections += 1
            self.metrics.counter(M_SESSIONS_REJECTED).inc()
            raise AdmissionError(
                REJECT_CAPACITY,
                f"at capacity: {self._active} active session(s) of "
                f"{policy.max_sessions} allowed",
            )
        controller = (
            self.make_controller(session_id)
            if self.make_controller is not None
            else None
        )
        if controller is not None and controller.metrics is NULL_METRICS:
            # A factory that did not wire metrics inherits the manager's,
            # so adapt decisions land in the same registry as session ones.
            controller.metrics = self.metrics
        session = ReceiverSession(
            session_id,
            self.make_streaming(session_id),
            self.clock(),
            controller=controller,
        )
        self.sessions[session_id] = session
        self._active += 1
        self.metrics.counter(M_SESSIONS_ADMITTED).inc()
        self.metrics.gauge(M_SESSIONS_ACTIVE).set(self._active)
        return session

    def get(self, session_id: str) -> ReceiverSession:
        try:
            return self.sessions[session_id]
        except KeyError:
            raise SessionStateError(
                f"unknown session id {session_id!r}"
            ) from None

    # -- backpressure ----------------------------------------------------

    def submit_frame(self, session_id: str, frame) -> str:
        """Queue one frame; returns a ``SUBMIT_*`` outcome token.

        The queue caps are enforced *here*, at the producer edge: after
        this call the session's queue depth and buffered bytes are within
        policy, whichever backpressure mode is configured.
        """
        session = self.get(session_id)
        if session.state == STATE_QUARANTINED:
            # Producer has not noticed the quarantine yet; shed quietly.
            session.frames_dropped += 1
            self.metrics.counter(M_SESSION_FRAMES_DROPPED).inc()
            return SUBMIT_DROPPED_QUARANTINED
        if not session.is_active:
            raise SessionStateError(
                f"session {session_id!r} is {session.state}: "
                "no further frames accepted"
            )
        policy = self.policy
        cost = frame_cost_bytes(frame)
        dropped_any = False
        while session.queue and self._over_caps(session, cost):
            if policy.backpressure == BACKPRESSURE_REJECT:
                session.frames_dropped += 1
                self.metrics.counter(M_SESSION_FRAMES_DROPPED).inc()
                return SUBMIT_REJECTED_FULL
            session.drop_oldest()
            self.metrics.counter(M_SESSION_FRAMES_DROPPED).inc()
            dropped_any = True
        if self._over_caps(session, cost):
            # Queue already empty: this one frame alone busts the byte cap.
            session.frames_dropped += 1
            self.metrics.counter(M_SESSION_FRAMES_DROPPED).inc()
            return SUBMIT_REJECTED_FULL
        session.enqueue(frame, cost)
        session.last_activity = self.clock()
        self._peak_queue_depth = max(
            self._peak_queue_depth, session.queue_depth
        )
        self.metrics.gauge(M_SESSION_QUEUE_PEAK).set(self._peak_queue_depth)
        return SUBMIT_DROPPED_OLDEST if dropped_any else SUBMIT_ACCEPTED

    def _over_caps(self, session: ReceiverSession, incoming_cost: int) -> bool:
        policy = self.policy
        if session.queue_depth + 1 > policy.max_queued_frames:
            return True
        if policy.max_queued_bytes is None:
            return False
        return session.queued_bytes + incoming_cost > policy.max_queued_bytes

    # -- pumping ---------------------------------------------------------

    def pump(self, max_frames_per_session: Optional[int] = None) -> int:
        """Feed every active session's queued frames; returns frames fed.

        Sessions take their turns in admission order, each feeding up to
        ``max_frames_per_session`` queued frames, oldest first.  The frames
        are preprocessed ahead of their feed, a lookahead window at a time
        (see :meth:`_feed_turns`), which moves no byte of any output.
        Failures are contained per session: a quarantine removes one
        session from rotation and the pass continues with the rest.
        """
        with self.tracer.span(SPAN_SERVE_PUMP) as span:
            quarantined_before = len(self.failures)
            turns: List[ReceiverSession] = []
            for session in list(self.sessions.values()):
                if session.is_active:
                    frames = session.queue_depth
                    if max_frames_per_session is not None:
                        frames = min(frames, max_frames_per_session)
                    turns.extend([session] * frames)
            fed = self._feed_turns(turns)
            span.set("frames", fed)
            span.set("sessions", self._active)
            span.set(
                "quarantined", len(self.failures) - quarantined_before
            )
        return fed

    def _feed_turns(self, turns: List[ReceiverSession]) -> int:
        """Feed each turn's session its oldest queued frame, in turn order.

        The turns run in windows of :data:`WINDOW_FRAMES_PER_LANE` frames
        per lane, across sessions.  Each window's frames are first
        converted to scanline Lab together on the lanes
        (:func:`repro.rx.receiver.preprocess_frames`), then fed one by one
        with their scanlines.  A window holds its frames' scanlines only
        until it is fed, which bounds the lookahead's memory whatever the
        number of queued frames.  A turn whose session was quarantined
        earlier in the pass is skipped: its queue is gone.
        """
        fed = 0
        window = WINDOW_FRAMES_PER_LANE * lanes.lane_count()
        for lo in range(0, len(turns), window):
            part = turns[lo : lo + window]
            for session, scanlines in zip(part, self._lookahead(part)):
                if session.is_active:
                    fed += self._feed_next(session, scanlines)
        return fed

    @staticmethod
    def _lookahead(turns: List[ReceiverSession]) -> list:
        """Each turn's frame as scanline Lab, or ``None`` to feed it as is.

        The k-th turn of an active session in ``turns`` will feed the k-th
        frame of its queue, so the frames are read in place, never
        dequeued.  Only :class:`StreamingReceiver` sessions take
        precomputed scanlines.  Fewer than two such frames convert nothing
        here: a lone frame takes the plain ``feed(frame)`` path.  Nothing
        raises out of this: a frame the batch cannot convert is fed as is,
        and fails (or not) exactly as it would alone.
        """
        scanlines: list = [None] * len(turns)
        positions: List[int] = []
        frames: list = []
        taken: Dict[ReceiverSession, int] = {}
        for position, session in enumerate(turns):
            k = taken.get(session, 0)
            taken[session] = k + 1
            if session.is_active and isinstance(
                session.streaming, StreamingReceiver
            ):
                positions.append(position)
                frames.append(session.queue[k][0])
        if len(frames) < 2:
            return scanlines
        try:
            labs = preprocess_frames(frames)
        except Exception:
            return scanlines
        for position, lab in zip(positions, labs):
            scanlines[position] = lab
        return scanlines

    def _feed_next(self, session: ReceiverSession, scanlines) -> int:
        """Feed the session its oldest queued frame; returns frames fed.

        Returns 0 when the feed raised and quarantined the session instead.
        """
        streaming = session.streaming
        frame = session.dequeue()
        failures_before = streaming.failures_contained
        try:
            if scanlines is None:
                events = streaming.feed(frame)
            else:
                events = streaming.feed(frame, scanlines=scanlines)
        except Exception as exc:
            # feed() contains per-frame pipeline errors itself; one
            # escaping means the receiver cannot continue at all.
            self._quarantine(session, CAUSE_ERROR, type(exc).__name__, str(exc))
            return 0
        session.frames_processed += 1
        session.events.extend(events)
        session.last_activity = self.clock()
        if events and session.controller is not None:
            if not self._observe_window(session):
                return 1
        if streaming.failures_contained > failures_before:
            session.consecutive_failures += 1
            if (
                session.consecutive_failures >= self.policy.quarantine_after
                and not self._avert_quarantine(session)
            ):
                self._quarantine(
                    session, CAUSE_POISON, *self._last_failure_detail(session)
                )
        else:
            session.consecutive_failures = 0
        return 1

    def _observe_window(self, session: ReceiverSession) -> bool:
        """Close one adaptation window at a packet boundary.

        Feeds the controller the stats the session's report gained since
        the previous boundary and records the decision.  Returns False
        when the decision was quarantine (the session is retired with
        cause ``channel`` — the rung past the end of the ladder).
        """
        controller = session.controller
        stats = session.window_tracker.take(session.report)
        decision = controller.observe(stats)
        session.adapt_decisions.append(decision)
        with self.tracer.span(
            SPAN_ADAPT_DECISION, session=session.session_id
        ) as span:
            span.set("action", decision.action)
            span.set("rung", decision.rung)
            span.set("reason", decision.reason)
        if decision.action == ACTION_QUARANTINE:
            self._quarantine(
                session,
                CAUSE_CHANNEL,
                "AdaptationBreach",
                f"controller gave up at last rung: {decision.reason} "
                f"({stats.describe()})",
            )
            return False
        return True

    def _avert_quarantine(self, session: ReceiverSession) -> bool:
        """Downshift instead of quarantining, if the ladder allows it.

        The downshift-before-quarantine contract: a failure streak at the
        quarantine threshold first spends a ladder rung (recorded as a
        forced ``failure-streak`` downshift and an averted quarantine);
        only a session with no controller or no rung left is quarantined.
        """
        controller = session.controller
        if controller is None:
            return False
        decision = controller.force_downshift(
            "failure-streak",
            WindowStats(frame_failures=session.consecutive_failures),
        )
        if decision is None:
            return False
        session.adapt_decisions.append(decision)
        session.consecutive_failures = 0
        self.metrics.counter(M_ADAPT_QUARANTINES_AVERTED).inc()
        with self.tracer.span(
            SPAN_ADAPT_DECISION, session=session.session_id
        ) as span:
            span.set("action", decision.action)
            span.set("rung", decision.rung)
            span.set("reason", decision.reason)
        return True

    @staticmethod
    def _last_failure_detail(session: ReceiverSession) -> tuple:
        last = getattr(session.streaming, "last_contained_failure", None)
        if last is not None:
            return last.error_type, f"[{last.stage}] {last.message}"
        return (
            "FrameFailure",
            f"{session.consecutive_failures} consecutive contained "
            "frame failures",
        )

    # -- retirement ------------------------------------------------------

    def _quarantine(
        self,
        session: ReceiverSession,
        cause: str,
        error_type: str,
        message: str,
    ) -> SessionFailure:
        dropped = session.discard_queue()
        if dropped:
            self.metrics.counter(M_SESSION_FRAMES_DROPPED).inc(dropped)
        session.state = STATE_QUARANTINED
        failure = SessionFailure(
            session_id=session.session_id,
            cause=cause,
            frames_fed=session.streaming.frames_fed,
            consecutive_failures=session.consecutive_failures,
            error_type=error_type,
            message=message,
        )
        session.failure = failure
        self.failures.append(failure)
        self._active -= 1
        self.metrics.counter(M_SESSIONS_QUARANTINED).inc()
        self.metrics.gauge(M_SESSIONS_ACTIVE).set(self._active)
        return failure

    def _retire(self, session: ReceiverSession, state: str) -> None:
        """Drain, flush and finalize one active session into ``state``."""
        with self.tracer.span(
            SPAN_SERVE_CLOSE, session=session.session_id
        ) as span:
            self._feed_turns([session] * session.queue_depth)
            if not session.is_active:
                # The drain itself quarantined the session.
                span.set("state", session.state)
                return
            try:
                session.events.extend(session.streaming.finish())
            except Exception as exc:
                self._quarantine(session, CAUSE_ERROR, type(exc).__name__, str(exc))
                span.set("state", session.state)
                return
            session.state = state
            self._active -= 1
            span.set("state", state)
            span.set("packets_decoded", session.report.packets_decoded)
        counter = (
            M_SESSIONS_EVICTED if state == STATE_EVICTED else M_SESSIONS_CLOSED
        )
        self.metrics.counter(counter).inc()
        self.metrics.gauge(M_SESSIONS_ACTIVE).set(self._active)

    def close_session(self, session_id: str) -> ReceiverSession:
        """Drain, flush and close one session; returns its final record."""
        session = self.get(session_id)
        if not session.is_active:
            raise SessionStateError(
                f"session {session_id!r} is already {session.state}"
            )
        self._retire(session, STATE_CLOSED)
        return session

    def evict_idle(self, now: Optional[float] = None) -> List[str]:
        """Retire every session idle past the timeout; returns their ids."""
        timeout = self.policy.idle_timeout_s
        if timeout is None:
            return []
        if now is None:
            now = self.clock()
        evicted: List[str] = []
        for session in list(self.sessions.values()):
            if session.is_active and now - session.last_activity > timeout:
                self._retire(session, STATE_EVICTED)
                if session.state == STATE_EVICTED:
                    evicted.append(session.session_id)
        return evicted

    def close_all(self) -> List[ReceiverSession]:
        """Shut down: drain and close every active session, in admission
        order; quarantines during the final drain are contained as usual."""
        closed: List[ReceiverSession] = []
        for session in list(self.sessions.values()):
            if session.is_active:
                self._retire(session, STATE_CLOSED)
                if session.state == STATE_CLOSED:
                    closed.append(session)
        return closed
