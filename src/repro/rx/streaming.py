"""Incremental (frame-at-a-time) facade over the ColorBars receiver.

:class:`StreamingReceiver` turns the batch receiver into a long-lived
session: frames are fed one at a time, data packets are emitted as
:class:`PacketEvent` the moment their codeword window closes (the next
preamble is found), and ``finish()`` flushes the tail.  The contract — and
the reason this module exists as a facade instead of a rewrite — is **byte
identity with the batch pass**: for any frame sequence, feeding the frames
one by one and calling ``finish()`` leaves ``report`` equal to what
``ColorBarsReceiver.process_frames`` returns on the same sequence, with and
without injected faults.  Identity holds by construction, not by testing
alone (though ``tests/rx/test_streaming_equivalence.py`` gates it):

* segmentation and classification reuse the receiver's own per-frame
  methods, in feed order;
* stitching is the batch fold (:meth:`PacketAssembler.stitch_into`) with
  the previous band carried across feeds;
* preamble matching is the batch greedy scan with an explicit cursor
  (:class:`repro.rx.assembler.PreambleScanner`) that refuses to decide at a
  position until enough symbols have arrived to make the batch decision;
* packet windows close exactly where batch windows close (the next match,
  or end of stream at ``finish()``), through the shared
  :meth:`PacketAssembler.extract_window`;
* calibration events are *queued* and committed at ``finish()`` — the batch
  pass classifies every frame against a table frozen for the whole call and
  absorbs calibrations only afterwards, so absorbing mid-stream would make
  streaming classification diverge.  "Online" absorption therefore means
  per-session, not per-frame: each ``finish()`` folds the session's
  credible calibration packets into the table in arrival order.

A receiver that *starts uncalibrated* cannot stream: the batch bootstrap
pass is non-causal (it scans the entire recording for calibration packets
before classifying frame 0).  In that case each frame is segmented as it is
fed and only what the replay reads is buffered — the frame's bands and its
clock (index, start time, row period, exposure), never its pixels — and the
rest of the pipeline, via the same ``_process_segmented`` the batch path
runs, executes at ``finish()``, which then emits every packet event at once.
A buffering session therefore grows by a few hundred bytes per band (about
9 KB for a 1920-row frame of 25 bands, whose pixels take 184 KB at 32
columns), and the caller's frames are free to be collected once fed.

Between preambles the consumed prefix of the stitched stream is pruned, so
a calibrated session holds O(window) state no matter how long it runs —
the property the session service (:mod:`repro.serve`) builds its memory
caps on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.camera.frame import CapturedFrame
from repro.exceptions import StreamingStateError
from repro.obs.schema import M_FRAME_BANDS, M_PACKET_ERASURES, SPAN_SEGMENT
from repro.packet.framing import PacketKind
from repro.rx.assembler import CalibrationEvent, StreamItem
from repro.rx.receiver import ColorBarsReceiver, FecFailure, ReceiverReport


@dataclass(frozen=True)
class PacketEvent:
    """One data packet closing inside a streaming session.

    ``decoded`` tells which of ``payload`` (the k-byte packet payload) and
    ``failure`` (the :class:`~repro.rx.receiver.FecFailure` record) is set.
    ``erasures`` and ``complete`` summarize how much of the codeword the
    inter-frame gaps swallowed; ``codeword_symbols`` is the codeword length
    the packet's header advertised, making ``erasure_fraction`` the
    per-packet channel-quality signal the link-adaptation controller
    consumes at packet boundaries (:mod:`repro.link.adapt`).
    """

    first_frame: int
    decoded: bool
    payload: Optional[bytes]
    failure: Optional[FecFailure]
    erasures: int
    complete: bool
    codeword_symbols: int = 0

    @property
    def erasure_fraction(self) -> Optional[float]:
        """Erased share of this packet's codeword; ``None`` if unknown."""
        if self.codeword_symbols <= 0:
            return None
        return min(1.0, self.erasures / self.codeword_symbols)


def _event_from(packet, outcome) -> PacketEvent:
    decoded = isinstance(outcome, bytes)
    return PacketEvent(
        first_frame=packet.first_frame,
        decoded=decoded,
        payload=outcome if decoded else None,
        failure=None if decoded else outcome,
        erasures=len(packet.erasure_positions),
        complete=packet.complete,
        codeword_symbols=packet.header_bytes,
    )


class StreamingReceiver:
    """Feed frames one at a time; collect packet events as codewords close.

    Wraps (and mutates) a :class:`ColorBarsReceiver` — the wrapped
    receiver's calibration table, assembler stats, tracer and metrics are
    the session's.  ``report`` accumulates exactly the
    :class:`ReceiverReport` the batch pass would have produced; read it
    after ``finish()``.
    """

    def __init__(self, receiver: ColorBarsReceiver) -> None:
        self.receiver = receiver
        self.report = ReceiverReport()
        #: Frames accepted so far (including frames whose pipeline failed).
        self.frames_fed = 0
        #: Fed frames whose pipeline raised and was contained.  Maintained
        #: in both modes (the buffered bootstrap mode does not touch
        #: ``report.frame_failures`` until ``finish()``), so a supervisor
        #: can spot a poison stream while it is still being fed.
        self.failures_contained = 0
        self._assembler = receiver.assembler
        self._scanner = self._assembler.make_scanner()
        self._items: List[StreamItem] = []
        self._chars = ""
        self._previous_band = None
        #: The last matched, not-yet-closed preamble: ``(start, kind)``.
        self._pending: Optional[tuple] = None
        self._calibrations: List[CalibrationEvent] = []
        #: An uncalibrated receiver cannot classify causally (the batch
        #: bootstrap scans the whole recording first): buffer each frame's
        #: bands and clock and run the shared batch path at ``finish()``.
        self._buffering = not receiver.calibration.is_calibrated
        self._segmented: List = []
        self._finished = False

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def buffering(self) -> bool:
        """True while frames are buffered for a bootstrap ``finish()``."""
        return self._buffering

    @property
    def last_contained_failure(self):
        """The most recent contained :class:`FrameFailure`, or ``None``.

        Live sessions report through ``report.frame_failures``; buffering
        sessions have not run the reporting pass yet, so their failures are
        read off the buffered segments.  Supervisors use this to attribute
        a poison stream without waiting for ``finish()``.
        """
        if self.report.frame_failures:
            return self.report.frame_failures[-1]
        for seg in reversed(self._segmented):
            if seg.failure is not None:
                return seg.failure
        return None

    def feed(self, frame: CapturedFrame) -> List[PacketEvent]:
        """Absorb one frame; return the packet events it closed."""
        if self._finished:
            raise StreamingStateError(
                "feed() on a finished streaming session: create a new "
                "StreamingReceiver for a new recording"
            )
        self.frames_fed += 1
        receiver = self.receiver
        with receiver.tracer.span(SPAN_SEGMENT, frame=frame.index):
            seg = receiver._segment_frame(frame)
        if self._buffering:
            if seg.failure is not None:
                self.failures_contained += 1
            self._segmented.append(seg)
            return []
        report = self.report
        failures_before = len(report.frame_failures)
        bands = receiver._classify_frame(seg, report.frame_failures)
        if len(report.frame_failures) > failures_before:
            self.failures_contained += 1
        report.frames_processed += 1
        report.bands.extend(bands)
        report.symbols_detected += len(bands)
        receiver.metrics.histogram(M_FRAME_BANDS).observe(len(bands))
        grown_from = len(self._items)
        self._previous_band = self._assembler.stitch_into(
            self._items, bands, self._previous_band
        )
        self._chars += self._assembler._classify_chars(
            self._items[grown_from:]
        )
        return self._drain(final=False)

    def finish(self) -> List[PacketEvent]:
        """Flush the stream: close the last window, commit calibrations."""
        if self._finished:
            raise StreamingStateError(
                "finish() called twice on a streaming session"
            )
        self._finished = True
        receiver = self.receiver
        if self._buffering:
            collected: List[tuple] = []
            if self._segmented:
                receiver._process_segmented(
                    self._segmented, self.report, collect=collected
                )
            self._segmented = []
            return [_event_from(packet, outcome) for packet, outcome in collected]
        events = self._drain(final=True)
        self.report.symbols_lost_in_gaps = (
            self._assembler.stats.symbols_lost_in_gaps
        )
        receiver._absorb_calibrations(self._calibrations, self.report)
        self._calibrations = []
        receiver._record_report_metrics(self.report)
        return events

    # -- internals -------------------------------------------------------

    def _drain(self, final: bool) -> List[PacketEvent]:
        """Advance the preamble scan; close and emit every decided window."""
        events: List[PacketEvent] = []
        for start, kind in self._scanner.scan(self._chars, final):
            if self._pending is not None:
                events.extend(self._close(self._pending, limit=start))
            self._assembler.stats.preambles_seen += 1
            self._pending = (start, kind)
        if final:
            if self._pending is not None:
                events.extend(
                    self._close(self._pending, limit=len(self._items))
                )
                self._pending = None
            self._items = []
            self._chars = ""
            self._scanner.position = 0
            return events
        # Steady-state memory bound: everything before the open window (or,
        # with no window open, before the scan cursor) can never be read
        # again — extraction only looks inside [match start, next match).
        if self._pending is not None:
            cut, kind = self._pending
            self._pending = (0, kind)
        else:
            cut = self._scanner.position
        if cut > 0:
            del self._items[:cut]
            self._chars = self._chars[cut:]
            self._scanner.position -= cut
        return events

    def _close(self, match: tuple, limit: int) -> List[PacketEvent]:
        """Extract one closed window; queue calibrations, emit data events."""
        start, kind = match
        result = self._assembler.extract_window(self._items, start, kind, limit)
        if kind is PacketKind.CALIBRATION:
            if result is not None:
                self._calibrations.append(result)
            return []
        if result is None:
            return []
        report = self.report
        report.packets_seen += 1
        self.receiver.metrics.histogram(M_PACKET_ERASURES).observe(
            len(result.erasure_positions)
        )
        outcome = self.receiver._decode_packet(result, report)
        return [_event_from(result, outcome)]
