"""One admitted streaming session and its supervision state.

A :class:`ReceiverSession` is the session manager's bookkeeping around a
:class:`~repro.rx.streaming.StreamingReceiver`: the bounded frame queue,
activity timestamps, failure streaks, and the state machine::

    active --(idle timeout)------> evicted      (flushed, report final)
    active --(explicit close)----> closed       (flushed, report final)
    active --(failure threshold)-> quarantined  (contained, report partial)

``evicted`` and ``closed`` both ran the streaming ``finish()`` flush, so
their reports are exactly what a batch decode of the frames they consumed
would have produced; a ``quarantined`` session was abandoned mid-stream and
carries its :class:`~repro.exceptions.SessionFailure` instead.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.exceptions import SessionFailure
from repro.link.adapt import (
    AdaptationDecision,
    LinkAdaptationController,
    ReportWindowTracker,
)
from repro.rx.streaming import PacketEvent, StreamingReceiver

#: Session lifecycle states (see module docstring for the transitions).
STATE_ACTIVE = "active"
STATE_QUARANTINED = "quarantined"
STATE_EVICTED = "evicted"
STATE_CLOSED = "closed"


def frame_cost_bytes(frame) -> int:
    """Approximate buffered cost of one frame, for the memory cap.

    The pixel buffer dominates a frame's footprint.  A frame that cannot
    even report its pixels (a poison object headed for quarantine) is
    costed at 1 byte — the probe must never be the thing that kills the
    service.
    """
    try:
        return int(frame.pixels.nbytes)
    except Exception:
        return 1


class ReceiverSession:
    """Supervision wrapper: queue, timestamps, streaks, terminal records."""

    def __init__(
        self,
        session_id: str,
        streaming: StreamingReceiver,
        opened_at: float,
        controller: Optional[LinkAdaptationController] = None,
    ) -> None:
        self.session_id = session_id
        self.streaming = streaming
        self.state = STATE_ACTIVE
        #: Per-session link-adaptation controller; ``None`` = fixed rate.
        self.controller = controller
        #: Window-boundary snapshotter feeding the controller (see
        #: :class:`repro.link.adapt.ReportWindowTracker`); the manager
        #: closes one window per packet boundary.
        self.window_tracker = ReportWindowTracker() if controller else None
        #: Controller decisions taken for this session, in order.
        self.adapt_decisions: List[AdaptationDecision] = []
        #: Pending ``(frame, cost_bytes)`` pairs, oldest first.
        self.queue: Deque[Tuple[object, int]] = deque()
        self.queued_bytes = 0
        self.opened_at = opened_at
        self.last_activity = opened_at
        self.frames_submitted = 0
        self.frames_processed = 0
        #: Frames shed: backpressure drops plus quarantine discards.
        self.frames_dropped = 0
        #: Contained per-frame failures in a row (resets on a clean frame).
        self.consecutive_failures = 0
        self.peak_queue_depth = 0
        #: Every packet event the session emitted, in stream order.
        self.events: List[PacketEvent] = []
        #: Set when (and only when) the session was quarantined.
        self.failure: Optional[SessionFailure] = None

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    @property
    def is_active(self) -> bool:
        return self.state == STATE_ACTIVE

    @property
    def report(self):
        """The session's :class:`~repro.rx.receiver.ReceiverReport`.

        Final for ``closed``/``evicted`` sessions (the flush ran); partial
        for ``quarantined`` ones.
        """
        return self.streaming.report

    def payloads(self) -> List[bytes]:
        return list(self.streaming.report.payloads)

    def enqueue(self, frame, cost: int) -> None:
        self.queue.append((frame, cost))
        self.queued_bytes += cost
        self.peak_queue_depth = max(self.peak_queue_depth, len(self.queue))
        self.frames_submitted += 1

    def dequeue(self):
        frame, cost = self.queue.popleft()
        self.queued_bytes -= cost
        return frame

    def drop_oldest(self) -> None:
        self.dequeue()
        self.frames_dropped += 1

    def discard_queue(self) -> int:
        """Drop every pending frame (quarantine path); returns the count."""
        dropped = len(self.queue)
        self.queue.clear()
        self.queued_bytes = 0
        self.frames_dropped += dropped
        return dropped
