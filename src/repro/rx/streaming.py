"""Incremental (frame-at-a-time) facade over the ColorBars receiver.

:class:`StreamingReceiver` turns the receiver into a long-lived session:
frames are fed one at a time, data packets are emitted as
:class:`PacketEvent` the moment their codeword window closes (the next
preamble is found), and ``finish()`` flushes the tail.  For any frame
sequence, feeding the frames one by one and calling ``finish()`` leaves
``report`` equal to what ``ColorBarsReceiver.process_frames`` returns on the
same sequence, with and without injected faults
(``tests/rx/test_streaming_equivalence.py`` gates it).  That holds by
construction, because there is one back half:

* segmentation and classification are the receiver's own methods, run
  on each frame in feed order (a fed frame is a run of one); a frame's scanline Lab may arrive already
  converted (``feed(frame, scanlines=...)``, from a batched
  :func:`repro.rx.receiver.preprocess_frames` such as the session
  manager's lookahead), which is bitwise what ``feed`` would compute;
* each classified frame is pushed into a :class:`repro.rx.assembler.PacketFold`
  — the same fold ``process_frames`` pushes a whole recording's run through —
  which stitches it, advances the preamble scan, and closes every window
  the scan has decided; ``finish()`` closes the fold;
* calibration events stay on the fold and are absorbed at ``finish()`` —
  the batch pass classifies every frame against a table frozen for the
  whole call and absorbs calibrations only afterwards, so absorbing
  mid-stream would make streaming classification diverge.  "Online"
  absorption therefore means per-session, not per-frame.

A receiver that *starts uncalibrated* cannot stream: the bootstrap pass is
non-causal (it scans the entire recording for calibration packets before
classifying frame 0).  In that case each frame is segmented as it is fed
and only what the replay reads is buffered — the frame's bands and its
clock (index, start time, row period, exposure), never its pixels — and
``finish()`` runs the receiver's ``_process_segmented``, the very method
``process_frames`` runs, then emits every packet event at once.  The bands
are buffered as the segmenter's column arrays, so a buffering session grows
by about 100 bytes per band (about 2.6 KB for a 1920-row frame of 25 bands,
whose pixels take 184 KB at 32 columns), and the caller's frames are free
to be collected once fed.

The fold drops the consumed prefix of its columnar stream between
preambles, so a calibrated session's back half holds O(window) stream
entries no matter how long it runs — the property the session service
(:mod:`repro.serve`) builds its memory caps on.  The report still logs
every band, as one packed 72-byte record per band
(:class:`repro.rx.detector.BandLog`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.camera.frame import CapturedFrame
from repro.exceptions import StreamingStateError
from repro.obs.schema import SPAN_SEGMENT
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
    receiver's calibration table, tracer and metrics are the session's, and
    its ``assembler`` becomes the session fold's, whose ``stats`` count this
    session alone.  ``report`` accumulates exactly the
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
        #: An uncalibrated receiver cannot classify causally (the bootstrap
        #: scans the whole recording first): buffer each frame's bands and
        #: clock and run the receiver's recording pass at ``finish()``.
        self.buffering = not receiver.calibration.is_calibrated
        self._fold = None if self.buffering else receiver._new_fold()
        self._segmented: List = []
        self._finished = False

    @property
    def finished(self) -> bool:
        return self._finished

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

    def feed(
        self, frame: CapturedFrame, scanlines: Optional[np.ndarray] = None
    ) -> List[PacketEvent]:
        """Absorb one frame; return the packet events it closed.

        ``scanlines`` is the frame's scanline Lab, when a caller has
        already converted it in a batch (the session manager's lookahead,
        :func:`repro.rx.receiver.preprocess_frames`); ``None`` converts
        here.  Either way the frame's bytes and failures are the same.
        """
        if self._finished:
            raise StreamingStateError(
                "feed() on a finished streaming session: create a new "
                "StreamingReceiver for a new recording"
            )
        self.frames_fed += 1
        receiver = self.receiver
        with receiver.tracer.span(SPAN_SEGMENT, frame=frame.index):
            seg = receiver._segment_frame(frame, scanlines=scanlines)
        if self.buffering:
            if seg.failure is not None:
                self.failures_contained += 1
            self._segmented.append(seg)
            return []
        report = self.report
        failures_before = len(report.frame_failures)
        run = receiver._classify_run([seg], report.frame_failures)
        if len(report.frame_failures) > failures_before:
            self.failures_contained += 1
        report.frames_processed += 1
        receiver._log_run(run, 1, report)
        return self._decode(self._fold.push(run))

    def finish(self) -> List[PacketEvent]:
        """Flush the stream: close the last window, commit calibrations."""
        if self._finished:
            raise StreamingStateError(
                "finish() called twice on a streaming session"
            )
        self._finished = True
        receiver = self.receiver
        if self.buffering:
            collected = (
                receiver._process_segmented(self._segmented, self.report)
                if self._segmented
                else []
            )
            self._segmented = []
            return [_event_from(packet, outcome) for packet, outcome in collected]
        fold = self._fold
        events = self._decode(fold.close())
        self.report.symbols_lost_in_gaps = fold.stats.symbols_lost_in_gaps
        receiver._absorb_calibrations(fold.calibrations, self.report)
        receiver._record_report_metrics(self.report)
        return events

    def _decode(self, packets) -> List[PacketEvent]:
        """FEC-decode closed packets into the report, one event each."""
        decode = self.receiver._decode_packet
        return [
            _event_from(packet, decode(packet, self.report))
            for packet in packets
        ]
