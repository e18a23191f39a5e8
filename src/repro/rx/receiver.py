"""The complete ColorBars receiver: frames in, payload bytes out.

Composes the per-frame pipeline (preprocess -> segment -> detect) with the
cross-frame back half (:class:`repro.rx.assembler.PacketFold`: stitch ->
preamble scan -> window close), calibration handling, and Reed-Solomon
decoding, mirroring the paper's two-threaded phone app in a single
deterministic object.  Feed it the frames of a recording and it returns a
:class:`ReceiverReport` with the delivered payloads and every counter the
evaluation section needs.  A recording is detected and pushed through the
fold as one run per pass; :class:`repro.rx.streaming.StreamingReceiver`
pushes each live frame as a run of one through the same fold, so batch and
streaming decode share one back half.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.frame import CapturedFrame
from repro.color.cielab import JND_DELTA_E
from repro.csk.calibration import CalibrationTable
from repro.csk.demodulator import CskDemodulator
from repro.exceptions import ColorBarsError, FrameFailure, UncorrectableBlockError
from repro.fec.reed_solomon import ReedSolomonCodec
from repro.obs.metrics import NULL_METRICS
from repro.obs.schema import (
    M_CALIBRATION_REJECTED,
    M_CALIBRATION_UPDATES,
    M_FRAME_BANDS,
    M_FRAMES_FAILED,
    M_PACKET_ERASURES,
    M_PACKETS_DECODED,
    M_PACKETS_FAILED_FEC,
    M_PACKETS_SEEN,
    M_SYMBOLS_DETECTED,
    M_SYMBOLS_LOST,
    SPAN_ASSEMBLE,
    SPAN_CALIBRATE,
    SPAN_DEMOD,
    SPAN_FEC,
    SPAN_SEGMENT,
)
from repro.obs.trace import NULL_TRACER
from repro.packet.packetizer import Packetizer
from repro.rx.assembler import (
    CalibrationEvent,
    PacketAssembler,
    PacketFold,
    ReceivedPacket,
)
from repro.rx.detector import (
    BandLog,
    FrameRecord,
    ReceivedBand,
    SymbolDetector,
    band_column,
)
from repro.rx.preprocess import frame_to_scanline_lab, frames_to_scanline_lab
from repro.rx.segmentation import Band, BandColumns, BandSegmenter
from repro.util import lanes


#: Reasons a packet can fail FEC, as recorded in :class:`FecFailure`.
FEC_HEADER_MISMATCH = "header-mismatch"
FEC_ERASURE_BUDGET = "erasure-budget"
FEC_UNCORRECTABLE = "uncorrectable"

#: Calibration credibility gates (see ``_credible_calibration``).  A genuine
#: calibration body is all saturated constellation colors, so a symbol chroma
#: within this distance of the packet's own white reference marks a misframed
#: data packet (whose body is mostly illumination whites).
CALIBRATION_WHITE_GUARD_DELTA_E = 4.0 * JND_DELTA_E
#: Largest affine-fit RMS misfit a credible calibration event may have.
#: Measured genuine events fit within ~9 JND across devices and CSK orders,
#: while misframed data bodies land beyond ~25 JND.
CALIBRATION_RESIDUAL_LIMIT_DELTA_E = 15.0 * JND_DELTA_E


@dataclass(frozen=True)
class FecFailure:
    """Why one seen packet failed to decode.

    Retains the detail the aggregate ``packets_failed_fec`` counter loses:
    a resilience sweep needs to distinguish erasure-budget exhaustion (too
    much known loss — more parity or less damage would fix it) from
    miscorrection (``uncorrectable``: noise beyond the code's capability).
    """

    first_frame: int
    reason: str
    erasures: int
    parity_budget: int
    message: str = ""


def mean_margin(bands: Sequence[ReceivedBand], start: int = 0) -> Optional[float]:
    """Mean of the defined margins of ``bands[start:]`` (``None`` if none
    is), read from the ``margin`` column and summed in band order."""
    margins = band_column(bands, "margin", start)
    margins = margins[~np.isnan(margins)]
    return float(np.cumsum(margins)[-1]) / margins.size if margins.size else None


@dataclass
class ReceiverReport:
    """Everything a receiving session produced.

    ``payloads`` holds the k-byte payload of every successfully decoded
    packet, in arrival order.  The symbol/packet counters feed the SER,
    throughput and goodput metrics of §8.  ``frame_failures`` lists every
    frame whose pipeline raised and was contained (the session-never-dies
    contract); ``fec_failures`` retains why each failed packet failed.

    ``bands`` is every classified band in order.  A receive pass logs them
    as a :class:`~repro.rx.detector.BandLog` (one packed record per band,
    read back as :class:`ReceivedBand` objects); any sequence of bands
    works in its place.

    The ``calibration_symbol_*`` / ``*_symbols_seen`` counters are the raw
    material of the channel-quality estimates (``ser_estimate``,
    ``delta_e_margin``, ``erasure_fraction``) that the link-adaptation
    controller consumes (:mod:`repro.link.adapt`); they are filled by the
    same shared internals in batch and streaming execution, so the two
    shapes report identical channel quality.
    """

    payloads: List[bytes] = field(default_factory=list)
    packets_decoded: int = 0
    packets_failed_fec: int = 0
    packets_seen: int = 0
    calibration_updates: int = 0
    calibration_rejected: int = 0
    bands: Sequence[ReceivedBand] = field(default_factory=BandLog)
    frames_processed: int = 0
    symbols_detected: int = 0
    symbols_lost_in_gaps: int = 0
    frame_failures: List[FrameFailure] = field(default_factory=list)
    fec_failures: List[FecFailure] = field(default_factory=list)
    #: Calibration symbols matched against an already-calibrated table, and
    #: how many matched the wrong index — a ground-truth SER probe, since
    #: calibration packets carry the constellation in known index order.
    calibration_symbols_seen: int = 0
    calibration_symbol_errors: int = 0
    #: Codeword symbols (bytes) of packets passing the header check, and how
    #: many of those positions the gaps erased.
    codeword_symbols_seen: int = 0
    erasure_symbols_seen: int = 0

    @property
    def payload_bytes(self) -> int:
        return sum(len(p) for p in self.payloads)

    @property
    def frames_failed(self) -> int:
        return len(self.frame_failures)

    # -- channel-quality estimates (None = undefined, never 0) ------------

    @property
    def ser_estimate(self) -> Optional[float]:
        """Symbol-error-rate proxy from calibration symbols.

        Calibration packets transmit the constellation in index order, so
        each received calibration symbol has a known ground-truth index;
        the fraction whose nearest reference disagrees is a direct SER
        measurement on known data.  ``None`` until at least one calibration
        packet was matched against a calibrated table.
        """
        if self.calibration_symbols_seen == 0:
            return None
        return self.calibration_symbol_errors / self.calibration_symbols_seen

    @property
    def delta_e_margin(self) -> Optional[float]:
        """Mean ΔE margin to the runner-up reference over lit decisions.

        Aggregates :attr:`~repro.csk.demodulator.SymbolDecision.margin`
        across every decision that has one.  ``None`` when no lit band was
        ever matched — notably the all-dark short-circuit path (occlusion,
        gap-straddling frames), where the margin is *undefined*, not zero.
        """
        return mean_margin(self.bands)

    @property
    def erasure_fraction(self) -> Optional[float]:
        """Fraction of codeword symbol positions lost to gaps/erasures.

        ``None`` until at least one packet passed the header check.
        """
        if self.codeword_symbols_seen == 0:
            return None
        return self.erasure_symbols_seen / self.codeword_symbols_seen

    def fec_failures_by_reason(self) -> dict:
        """``{reason: count}`` over every recorded FEC failure."""
        counts: dict = {}
        for failure in self.fec_failures:
            counts[failure.reason] = counts.get(failure.reason, 0) + 1
        return counts


def preprocess_frames(
    frames: Sequence, meanwhile: Optional[Callable[[], object]] = None
) -> List[Optional[np.ndarray]]:
    """Batched sRGB -> scanline-Lab over same-shape groups of frames.

    Each group converts as one pass on the lanes, bitwise identical to
    per-frame conversion.  A recording shares one pixel shape, so it is
    one group; a serving window (:meth:`repro.serve.SessionManager.pump`)
    may mix shapes and sessions.  Frames in a group whose batched
    conversion raises, and frames whose pixels cannot be read at all, fall
    back to ``None`` entries, which ``ColorBarsReceiver._segment_frame``
    preprocesses individually under its per-frame containment: a frame that
    fails there fails with the error it would have raised alone.

    ``meanwhile``, if given, runs exactly once on the calling thread: while
    the lanes convert the first group that starts, or after the groups if
    none does.  It is not the conversion's to contain: an exception it
    raises re-raises here, after every lane has stopped.  Nothing else
    raises out of here.
    """
    results: List[Optional[np.ndarray]] = [None] * len(frames)
    pending = lanes.Deferred(meanwhile)
    groups: dict = {}
    for position, frame in enumerate(frames):
        try:
            groups.setdefault(frame.pixels.shape, []).append(position)
        except Exception:
            continue
    for positions in groups.values():
        try:
            labs = frames_to_scanline_lab(
                [frames[p] for p in positions], meanwhile=pending
            )
        except Exception:
            continue
        for position, lab in zip(positions, labs):
            results[position] = lab
    pending.result()
    return results


class _FrameClock(NamedTuple):
    """The part of a frame classification reads: its index and band clock.

    :meth:`SymbolDetector.detect` stamps each band with a time from these
    fields alone, so a segmented frame keeps this record, never its pixels.
    """

    index: int
    start_time: float
    row_period: float
    exposure: ExposureSettings


@dataclass
class _SegmentedFrame:
    """One frame's calibration-independent pipeline state, computed once.

    Either ``clock`` and ``bands`` (the pre-detect segmentation as column
    arrays, possibly empty) or ``failure`` (the contained pre-detect error) is set.  Both
    passes of :meth:`ColorBarsReceiver.process_frames` classify from this
    record instead of re-running preprocess/segment, and a buffering
    streaming session holds one per fed frame until ``finish()``.
    """

    clock: Optional[_FrameClock] = None
    bands: Sequence[Band] = ()
    failure: Optional[FrameFailure] = None


class ColorBarsReceiver:
    """Frames -> payloads, with calibration and erasure-aware FEC.

    Parameters mirror the system configuration both ends share: the
    packetizer (constellation, mapper, illumination ratio), the RS codec
    dimensions, the symbol rate, and the sensor timing (for the band width).
    """

    def __init__(
        self,
        packetizer: Packetizer,
        codec: ReedSolomonCodec,
        symbol_rate: float,
        rows_per_symbol: float,
        calibration: Optional[CalibrationTable] = None,
        off_lightness: float = 12.0,
        boundary_delta_e: float = 9.0,
        edge_trim_fraction: float = 0.2,
        coring: str = "central",
        equalize: bool = False,
        tracer=None,
        metrics=None,
    ) -> None:
        self.packetizer = packetizer
        self.codec = codec
        #: Injected observability (see :mod:`repro.obs`); the no-op
        #: defaults keep every span/counter call on the fast path.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.symbol_rate = float(symbol_rate)
        self.calibration = (
            calibration
            if calibration is not None
            else CalibrationTable(packetizer.mapper.constellation)
        )
        self.demodulator = CskDemodulator(
            self.calibration, off_lightness=off_lightness
        )
        self.segmenter = BandSegmenter(
            rows_per_symbol=rows_per_symbol,
            boundary_delta_e=boundary_delta_e,
            off_lightness=off_lightness,
            edge_trim_fraction=edge_trim_fraction,
            coring=coring,
            allow_no_plateau=equalize,
        )
        self.detector = SymbolDetector(self.demodulator)
        #: The assembler of the latest back-half pass (see ``_new_fold``);
        #: its ``stats`` count that pass alone.
        self.assembler = PacketAssembler(packetizer, symbol_rate)
        #: ISI equalization: re-estimate band colors by exposure
        #: deconvolution (repro.rx.equalizer) before classification.
        self.equalize = equalize

    # -- the full pipeline ---------------------------------------------------

    def process_frames(
        self, frames: Sequence[CapturedFrame]
    ) -> ReceiverReport:
        """Run the complete receive chain over a recording.

        The frame sequence is processed twice when the receiver starts
        uncalibrated: a first pass in bootstrap mode only to find calibration
        packets (as a just-joined phone would wait for one), then the full
        demodulation pass.  An already-calibrated receiver decodes in one
        pass while still absorbing any new calibration packets it sees.

        Only classification depends on the calibration state, so the
        calibration-independent front half of the pipeline (preprocess ->
        segment -> equalize) runs once per frame and is reused by both
        passes — it dominates decode time, and recomputing it cannot change
        any output.
        """
        report = ReceiverReport()
        if not frames:
            return report

        scanlines = preprocess_frames(frames)
        segmented = []
        for frame, lab in zip(frames, scanlines):
            with self.tracer.span(SPAN_SEGMENT, frame=frame.index):
                segmented.append(self._segment_frame(frame, scanlines=lab))
        self._process_segmented(segmented, report)
        return report

    def _process_segmented(
        self, segmented: Sequence["_SegmentedFrame"], report: ReceiverReport
    ) -> List[tuple]:
        """Everything after segmentation: bootstrap, classify, assemble, FEC.

        Each pass detects the whole recording as one run
        (:meth:`_classify_run`) and pushes it through a fresh
        :class:`PacketFold` in one push.  An uncalibrated receiver first
        runs a pass classified with the bootstrap table, to find
        calibration packets (the pass is non-causal: it reads the whole
        recording before classifying frame 0).  Then the decode pass
        classifies the run against the table, and the data packets whose
        windows closed are FEC-decoded.
        Shared by :meth:`process_frames` and the buffering path of
        :class:`repro.rx.streaming.StreamingReceiver`, which runs it at
        ``finish()``.  Returns one ``(packet, outcome)`` tuple per seen
        packet — ``outcome`` is the decoded payload bytes or the
        :class:`FecFailure` — for callers that emit per-packet events.
        """
        if not self.calibration.is_calibrated:
            with self.tracer.span(SPAN_CALIBRATE) as span:
                fold, _ = self._assemble(self._classify_run(segmented))
                self._absorb_calibrations(fold.calibrations, report)
                span.set("calibrated", self.calibration.is_calibrated)
                span.set("updates", report.calibration_updates)
            if not self.calibration.is_calibrated:
                # Never saw a usable calibration packet: nothing decodable.
                report.frames_processed = len(segmented)
                self._record_report_metrics(report)
                return []

        with self.tracer.span(SPAN_DEMOD) as span:
            run = self._classify_run(segmented, report.frame_failures)
            report.frames_processed = len(segmented)
            self._log_run(run, len(segmented), report)
            span.set("symbols", report.symbols_detected)
            span.set("frames_failed", report.frames_failed)

        with self.tracer.span(SPAN_ASSEMBLE) as span:
            fold, packets = self._assemble(run)
            report.symbols_lost_in_gaps = fold.stats.symbols_lost_in_gaps
            span.set("packets", len(packets))
            span.set("calibrations", len(fold.calibrations))
            span.set("symbols_lost_in_gaps", report.symbols_lost_in_gaps)

        self._absorb_calibrations(fold.calibrations, report)

        with self.tracer.span(SPAN_FEC) as span:
            outcomes = [
                (packet, self._decode_packet(packet, report))
                for packet in packets
            ]
            span.set("decoded", report.packets_decoded)
            span.set("failed", report.packets_failed_fec)
        self._record_report_metrics(report)
        return outcomes

    def _new_fold(self) -> PacketFold:
        """A fresh back-half pass; its assembler becomes ``self.assembler``."""
        fold = PacketFold(self.packetizer, self.symbol_rate)
        self.assembler = fold.assembler
        return fold

    def _assemble(
        self, run: FrameRecord
    ) -> Tuple[PacketFold, List[ReceivedPacket]]:
        """Push a whole recording's run through a fresh fold and close it."""
        fold = self._new_fold()
        packets = fold.push(run)
        packets.extend(fold.close())
        return fold, packets

    def _log_run(
        self, run: FrameRecord, frames: int, report: ReceiverReport
    ) -> None:
        """Log the run classified from ``frames`` frames into ``report``.

        The band-count histogram observes every frame: each of the run's,
        and no bands for each frame whose failure kept it out of the run.
        """
        report.bands.append_run(run)
        report.symbols_detected += len(run)
        bands_histogram = self.metrics.histogram(M_FRAME_BANDS)
        for count in run.counts + [0] * (frames - len(run.counts)):
            bands_histogram.observe(count)

    # -- internals -------------------------------------------------------

    def _record_report_metrics(self, report: ReceiverReport) -> None:
        """Fold one session's report into the injected metrics registry."""
        metrics = self.metrics
        metrics.counter(M_FRAMES_FAILED).inc(report.frames_failed)
        metrics.counter(M_SYMBOLS_DETECTED).inc(report.symbols_detected)
        metrics.counter(M_SYMBOLS_LOST).inc(report.symbols_lost_in_gaps)
        metrics.counter(M_PACKETS_SEEN).inc(report.packets_seen)
        metrics.counter(M_PACKETS_DECODED).inc(report.packets_decoded)
        metrics.counter(M_PACKETS_FAILED_FEC).inc(report.packets_failed_fec)
        metrics.counter(M_CALIBRATION_UPDATES).inc(report.calibration_updates)
        metrics.counter(M_CALIBRATION_REJECTED).inc(report.calibration_rejected)

    def _segment_frame(
        self,
        frame: CapturedFrame,
        scanlines: Optional[np.ndarray] = None,
    ) -> "_SegmentedFrame":
        """The calibration-independent front half: preprocess -> segment.

        Deterministic in the frame alone, so its result is computed once and
        shared by the bootstrap and decode passes.  A contained failure is
        carried in the returned record; it is reported when (and only when)
        a pass that records failures consumes it.

        ``scanlines`` accepts the frame's precomputed scanline Lab from the
        batched recording pass; ``None`` (the streaming receiver's per-frame
        path, or a batched-pass fallback) converts here.
        """
        stage = "preprocess"
        try:
            if scanlines is None:
                scanlines = frame_to_scanline_lab(frame)
            # Scanlines whose exposure window straddles a symbol boundary
            # carry mixed colors; the segmenter excludes that many rows per
            # band.
            smear_rows = frame.exposure.exposure_s / frame.row_period
            stage = "segment"
            self.assembler.check_frame_clock(frame)
            bands = self.segmenter.segment(scanlines, smear_rows=smear_rows)
            if self.equalize and bands:
                from repro.rx.equalizer import deconvolve_frame

                stage = "equalize"
                bands = BandColumns.from_bands(
                    deconvolve_frame(
                        frame,
                        bands.bands(),
                        smear_rows,
                        preserve_dark_below=self.demodulator.off_lightness,
                    )
                )
            clock = _FrameClock(
                frame.index, frame.start_time, frame.row_period, frame.exposure
            )
            return _SegmentedFrame(clock=clock, bands=bands)
        except ColorBarsError as exc:
            return _SegmentedFrame(
                failure=FrameFailure(
                    frame_index=frame.index,
                    stage=stage,
                    error_type=type(exc).__name__,
                    message=str(exc),
                ),
            )

    def _classify_run(
        self,
        segmented: Sequence["_SegmentedFrame"],
        failures: Optional[List[FrameFailure]] = None,
    ) -> FrameRecord:
        """The calibration-dependent back half: detect a run, with containment.

        The frames that segmented are detected as one run.  Containment
        stays per frame: if the run's detect raises, each frame is detected
        again as a run of its own, so the failing frame fails alone, with
        its own error, and is left out of the run.  Every contained failure
        is appended to ``failures`` (when given) in frame order.
        """
        detect = self.detector.detect
        contained = [seg.failure for seg in segmented]
        live = [seg for seg in segmented if seg.failure is None]
        try:
            run = detect([seg.clock for seg in live], [seg.bands for seg in live])
        except ColorBarsError:
            runs = []
            for position, seg in enumerate(segmented):
                if seg.failure is not None:
                    continue
                try:
                    runs.append(detect([seg.clock], [seg.bands]))
                except ColorBarsError as exc:
                    contained[position] = FrameFailure(
                        frame_index=seg.clock.index,
                        stage="detect",
                        error_type=type(exc).__name__,
                        message=str(exc),
                    )
            run = FrameRecord.join(runs)
        if failures is not None:
            failures.extend(failure for failure in contained if failure is not None)
        return run

    def _absorb_calibrations(
        self, events: Sequence[CalibrationEvent], report: ReceiverReport
    ) -> None:
        """Fold credible calibration events into the table, count the rest.

        Credible events are also scored *before* they update the table:
        their symbols carry known ground-truth indices, so matching them
        against the current references measures the symbol error rate the
        channel is actually producing (``report.ser_estimate``).
        """
        for event in events:
            if not self._credible_calibration(event):
                report.calibration_rejected += 1
                continue
            if self.calibration.is_calibrated and len(event.indices) > 0:
                matched, _ = self.calibration.match(event.symbol_chroma)
                expected = np.asarray(list(event.indices))
                report.calibration_symbols_seen += len(event.indices)
                report.calibration_symbol_errors += int(
                    np.count_nonzero(matched != expected)
                )
            self.calibration.update_partial(
                event.indices, event.symbol_chroma, event.white_chroma
            )
            report.calibration_updates += 1

    def _credible_calibration(self, event: CalibrationEvent) -> bool:
        """Gate a calibration event before it can poison the table.

        Localized damage (occlusion, torn scanlines) can darken one band of
        a data preamble, mutating its OFF skeleton into the calibration
        skeleton — the data body then arrives here disguised as calibration
        colors, and absorbing it would corrupt every reference for the rest
        of the session.  Two physical checks expose the disguise: a genuine
        body never contains white-like chroma, and its colors must fit the
        affine chromaticity model the table itself extrapolates with.
        """
        if event.white_chroma is not None and len(event.indices) > 0:
            white_gap = np.sqrt(
                np.sum(
                    (event.symbol_chroma - event.white_chroma) ** 2, axis=1
                )
            )
            if bool(np.any(white_gap < CALIBRATION_WHITE_GUARD_DELTA_E)):
                return False
        residual = self.calibration.affine_residual(
            event.indices, event.symbol_chroma
        )
        return residual is None or residual <= CALIBRATION_RESIDUAL_LIMIT_DELTA_E

    def _decode_packet(self, packet: ReceivedPacket, report: ReceiverReport):
        """Count and decode one packet into ``report``; return its outcome.

        The outcome — the decoded payload ``bytes`` on success, the recorded
        :class:`FecFailure` otherwise — lets the streaming facade emit a
        packet event without re-deriving what happened from counter deltas.
        """
        report.packets_seen += 1
        self.metrics.histogram(M_PACKET_ERASURES).observe(
            len(packet.erasure_positions)
        )
        expected_n = self.codec.n
        parity = self.codec.num_parity

        def fail(reason: str, erasure_count: int, message: str = "") -> FecFailure:
            failure = FecFailure(
                first_frame=packet.first_frame,
                reason=reason,
                erasures=erasure_count,
                parity_budget=parity,
                message=message,
            )
            report.packets_failed_fec += 1
            report.fec_failures.append(failure)
            return failure

        if packet.header_bytes != expected_n:
            # Header advertises a codeword the shared config does not use:
            # treat as a corrupt header (paper: discard the packet).
            return fail(
                FEC_HEADER_MISMATCH,
                len(packet.erasure_positions),
                f"header advertises n={packet.header_bytes}, codec n={expected_n}",
            )
        erasures = [p for p in packet.erasure_positions if p < expected_n]
        report.codeword_symbols_seen += expected_n
        report.erasure_symbols_seen += len(erasures)
        if len(erasures) > parity:
            return fail(
                FEC_ERASURE_BUDGET,
                len(erasures),
                f"{len(erasures)} erasures exceed parity budget {parity}",
            )
        try:
            payload = self.codec.decode(packet.codeword, erasures)
        except UncorrectableBlockError as exc:
            return fail(FEC_UNCORRECTABLE, len(erasures), str(exc))
        report.payloads.append(payload)
        report.packets_decoded += 1
        return payload
