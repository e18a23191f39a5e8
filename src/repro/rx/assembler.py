"""Cross-frame packet assembly with inter-frame-gap erasure accounting.

A ColorBars packet is sized to one frame period plus one gap (paper §5), so
most packets straddle a frame boundary: a prefix arrives in frame *i*, a
burst of symbols vanishes in the gap, and the suffix arrives in frame
*i + 1*.  Because the receiver knows the frame timing, it knows *where* in
the packet the burst sits and *how many* symbols it swallowed — which turns
the loss into byte erasures at known positions for the Reed-Solomon decoder
(far stronger than treating them as unknown-position errors).

The assembler consumes band records a run of frames at a time
(:class:`~repro.rx.detector.FrameRecord`), stitches them into one columnar
:class:`SymbolStream`, and emits :class:`ReceivedPacket` objects carrying
the reconstructed codeword bytes and their erasure positions, plus
calibration events.  :class:`PacketFold` is the receiver's one back half:
it takes a run at a time and returns the packets whose windows closed — a
live stream pushes runs of one frame, a buffered recording one run per
pass.  No per-band object is built on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.csk.demodulator import (
    DECISION_KINDS,
    KIND_DATA,
    KIND_OFF,
    KIND_WHITE,
    NO_INDEX,
)
from repro.exceptions import DemodulationError, FramingError
from repro.packet.framing import (
    CALIBRATION_FLAG,
    DATA_FLAG,
    DELIMITER,
    PacketKind,
)
from repro.packet.packetizer import Packetizer
from repro.rx.detector import FrameRecord
from repro.util.validation import require_positive

#: The stream's ``kind`` code for a gap marker, after the decision codes.
KIND_GAP = len(DECISION_KINDS)

#: One position of the stitched stream: the band fields a packet window
#: reads, or a gap marker (``kind`` :data:`KIND_GAP`, NaN time and color).
STREAM_ENTRY = np.dtype(
    [
        ("lab", np.float64, (3,)),
        ("mid_time", np.float64),
        ("frame_index", np.int64),
        ("index", np.int16),
        ("kind", np.uint8),
    ]
)

_GAP_ENTRY = np.array(((np.nan,) * 3, np.nan, -1, NO_INDEX, KIND_GAP), STREAM_ENTRY)

#: Skeleton character by ``kind`` code: 'x' per lit band, 'o' per dark
#: band, '_' per gap marker.  Preambles are matched on the OFF-symbol
#: skeleton only: the dark symbol is the one band class that is trivially
#: reliable ("easily identified", §5), whereas the white bands between them
#: can drift toward data colors under exposure/white-balance wander.  Since
#: OFF appears nowhere outside preambles, the skeleton alone identifies
#: them with negligible false-positive probability.
_SKELETON = np.full(KIND_GAP + 1, ord("x"), dtype=np.uint8)
_SKELETON[[KIND_OFF, KIND_GAP]] = ord("o"), ord("_")


class SymbolStream:
    """The stitched symbol stream, one position per band or gap marker.

    ``chars`` is the stream's o/x/_ skeleton and ``entries`` its
    :data:`STREAM_ENTRY` columns, position for position.  ``last_time`` is
    the ``mid_time`` of the last band stitched on; :meth:`drop` keeps it,
    so the next run's gap still counts from that band.

    The entries live in a buffer with spare capacity: :meth:`extend` writes
    new positions in place and :meth:`drop` advances a head offset, so a
    fold that stitches a run at a time copies its open window only when
    the buffer fills, never on every push.
    """

    __slots__ = ("chars", "last_time", "_buffer", "_head", "_tail")

    def __init__(self) -> None:
        self.chars = ""
        self.last_time: Optional[float] = None
        self._buffer = np.empty(0, dtype=STREAM_ENTRY)
        self._head = 0
        self._tail = 0

    def __len__(self) -> int:
        return len(self.chars)

    @property
    def entries(self) -> np.ndarray:
        """The stream's entries: a view of the buffer's live positions."""
        return self._buffer[self._head : self._tail]

    def extend(self, count: int) -> np.ndarray:
        """Append ``count`` positions; return them, uninitialised, to fill.

        When the buffer is full, the live positions move to the front of a
        new one with room for as many again, so appending costs amortized
        O(1) per position.
        """
        live = self._tail - self._head
        if self._tail + count > len(self._buffer):
            buffer = np.empty(2 * (live + count), dtype=STREAM_ENTRY)
            buffer[:live] = self.entries
            self._buffer, self._head, self._tail = buffer, 0, live
        start = self._tail
        self._tail += count
        return self._buffer[start : self._tail]

    def drop(self, count: int) -> None:
        """Forget the first ``count`` positions."""
        self.chars = self.chars[count:]
        self._head += count


@dataclass
class ReceivedPacket:
    """A reassembled data packet ready for FEC decoding."""

    codeword: bytes
    erasure_positions: List[int]
    header_bytes: int
    symbols_received: int
    symbols_erased: int
    complete: bool
    first_frame: int
    symbol_errors_vs_layout: int = 0


@dataclass
class CalibrationEvent:
    """A received calibration packet's measured colors.

    ``indices`` lists which constellation symbols were actually received —
    calibration symbols go out in index order, so surviving bands map to
    indices by position even when the inter-frame gap cut the packet.
    """

    indices: List[int]
    symbol_chroma: np.ndarray
    white_chroma: Optional[np.ndarray]
    frame_index: int

    @property
    def complete(self) -> bool:
        return len(self.indices) == self.symbol_chroma.shape[0]


@dataclass
class AssemblerStats:
    """One pass's packet-accounting counters (§8).

    Each :class:`PacketFold` starts its own from zero.
    """

    preambles_seen: int = 0
    data_packets_ok: int = 0
    data_packets_dropped_header: int = 0
    data_packets_dropped_size: int = 0
    calibration_packets_ok: int = 0
    calibration_packets_dropped: int = 0
    symbols_consumed: int = 0
    symbols_lost_in_gaps: int = 0
    gaps_inserted: int = 0
    max_gap_symbols: int = 0


#: Symbol periods from ``t = 0`` within which float64 band times still
#: resolve one symbol (the float64 significand has 52 fraction bits).
_MAX_CLOCK_SYMBOLS = 2.0**52


class PreambleScanner:
    """Greedy left-to-right preamble matcher, resumable across feeds.

    One scan of the stitched character stream with an explicit cursor, so
    a :class:`PacketFold` can resume it as new symbols arrive.
    ``scan(chars, final=False)`` *waits* (stops without deciding) at any
    position where the available suffix is still a proper prefix of a
    preamble skeleton — deciding there could contradict what a scan of the
    whole stream would conclude once the rest of the pattern arrived.  A
    ``final=True`` scan decides everything (a partial prefix at
    end-of-stream is not a match), so the concatenated match list over any
    feed split equals the whole-stream match list by construction.
    Calibration is tried before data at every position: its skeleton
    extends the data skeleton, so trying data first would read every
    calibration packet as a data packet with a corrupt body.  Positions
    whose symbol starts neither skeleton are skipped with ``str.find``: at
    those positions the scan could only step past, so skipping them decides
    exactly the same.
    """

    def __init__(self, calibration: str, data: str) -> None:
        self.calibration = calibration
        self.data = data
        #: Symbols a skeleton starts with.  A position holding any other
        #: symbol can neither match nor be a proper prefix of a skeleton,
        #: so the scan skips straight past it.
        self._leads = tuple(sorted({calibration[:1], data[:1]}))
        #: Cursor: every position before it has been decided.
        self.position = 0

    @staticmethod
    def _could_complete(chars: str, position: int, pattern: str) -> bool:
        """True if ``chars[position:]`` is a proper prefix of ``pattern``."""
        remaining = len(chars) - position
        return remaining < len(pattern) and pattern.startswith(chars[position:])

    def _next_lead(self, chars: str, position: int) -> int:
        """First position at or after ``position`` holding a lead symbol.

        Past the last lead symbol this is the end of ``chars`` (or
        ``position`` itself, if that already lies beyond it).
        """
        found = [
            index
            for index in (chars.find(lead, position) for lead in self._leads)
            if index >= 0
        ]
        return min(found, default=max(position, len(chars)))

    def scan(self, chars: str, final: bool) -> List[tuple]:
        """Advance the cursor, returning newly decided ``(start, kind)``."""
        matches: List[tuple] = []
        position = self._next_lead(chars, self.position)
        while position < len(chars):
            if not final and (
                self._could_complete(chars, position, self.calibration)
                or (
                    not chars.startswith(self.calibration, position)
                    and self._could_complete(chars, position, self.data)
                )
            ):
                break
            if chars.startswith(self.calibration, position):
                matches.append((position, PacketKind.CALIBRATION))
                position += len(self.calibration)
            elif chars.startswith(self.data, position):
                matches.append((position, PacketKind.DATA))
                position += len(self.data)
            else:
                position += 1
            position = self._next_lead(chars, position)
        self.position = position
        return matches


class PacketAssembler:
    """Stitches frames, locates packets, reconstructs codewords + erasures."""

    def __init__(self, packetizer: Packetizer, symbol_rate: float) -> None:
        require_positive(symbol_rate, "symbol_rate")
        self.packetizer = packetizer
        self.symbol_rate = float(symbol_rate)
        self.stats = AssemblerStats()

    # -- stream stitching ------------------------------------------------

    def check_frame_clock(self, frame) -> None:
        """Reject a frame whose band times the symbol clock cannot resolve.

        Stitching counts lost symbols as ``round(dt / T)``.  Beyond
        ``2**52`` symbol periods from ``t = 0`` a float64 time no longer
        resolves one period, so such a count would be meaningless (or, for
        an infinite ``dt``, undefined).  Every band of the frame lies between
        its first row's exposure start and its last row's exposure end.
        """
        limit = _MAX_CLOCK_SYMBOLS / self.symbol_rate
        end = (
            frame.start_time
            + frame.rows * frame.row_period
            + frame.exposure.exposure_s
        )
        if not (abs(frame.start_time) <= limit and abs(end) <= limit):
            raise DemodulationError(
                f"frame {frame.index} spans t = {frame.start_time:g} .. "
                f"{end:g} s, beyond the {limit:g} s the "
                f"{self.symbol_rate:g} Hz symbol clock resolves"
            )

    def stitch(self, runs: Iterable[FrameRecord]) -> SymbolStream:
        """Merge runs of band records, inserting gap markers between bands.

        The number of symbols lost between two bands comes from band
        timing: consecutive received bands are one symbol period apart on
        air, so a larger time difference (across a frame boundary, or where
        the segmenter discarded a band) means ``round(dt / T) - 1`` symbols
        vanished.
        """
        stream = SymbolStream()
        for run in runs:
            self.stitch_into(stream, run)
        return stream

    def stitch_into(self, stream: SymbolStream, run: FrameRecord) -> None:
        """Fold a run of frames' bands onto a stitched stream, in place.

        The incremental form of :meth:`stitch` that :class:`PacketFold`
        pushes each run through.  Gap counts come from one ``diff`` of the
        run's ``mid_time`` column, prepended with the stream's last band
        time; ``rint`` rounds half to even on float64, as ``round`` does,
        so each is exactly ``int(round(dt / period)) - 1``.  Any split of a
        recording into runs therefore stitches the same stream.
        """
        record = run.record
        stats = self.stats
        stats.symbols_consumed += len(record)
        if not len(record):
            return
        times = record["mid_time"]
        previous = times[0] if stream.last_time is None else stream.last_time
        period = 1.0 / self.symbol_rate
        missing = (
            np.rint(np.diff(times, prepend=previous) / period).astype(np.int64) - 1
        )
        gaps = np.flatnonzero(missing > 0)
        entries = stream.extend(len(record) + gaps.size)
        if gaps.size:
            lost = missing[gaps]
            stats.symbols_lost_in_gaps += int(lost.sum())
            stats.gaps_inserted += int(gaps.size)
            stats.max_gap_symbols = max(stats.max_gap_symbols, int(lost.max()))
            # The marker before band ``gaps[k]`` lands at ``gaps[k] + k``.
            markers = gaps + np.arange(gaps.size)
            entries[markers] = _GAP_ENTRY
            bands = np.ones(len(entries), dtype=bool)
            bands[markers] = False
        else:
            bands = slice(None)
        for name in ("lab", "mid_time", "index", "kind"):
            entries[name][bands] = record[name]
        entries["frame_index"][bands] = np.repeat(run.frame_indices, run.counts)
        stream.chars += _SKELETON[entries["kind"]].tobytes().decode("ascii")
        stream.last_time = float(times[-1])

    # -- preamble matching -------------------------------------------------

    @staticmethod
    def _skeleton(pattern: str) -> str:
        """Map an o/w preamble string to its dark/lit skeleton."""
        return "".join("o" if c == "o" else "x" for c in pattern)

    def make_scanner(self) -> "PreambleScanner":
        """A fresh incremental scanner over this packetizer's skeletons."""
        return PreambleScanner(
            calibration=self._skeleton(DELIMITER + CALIBRATION_FLAG),
            data=self._skeleton(DELIMITER + DATA_FLAG),
        )

    # -- packet extraction -------------------------------------------------

    def extract(self, stream: SymbolStream) -> tuple:
        """Locate packets in a whole stitched stream.

        Returns ``(packets, calibration_events)``.  Data packets whose
        header (size field) was damaged or whose advertised size is
        impossible are dropped, as the paper specifies.  The receiver
        decodes through :class:`PacketFold`, which closes the same windows
        a run at a time.
        """
        matches = self.make_scanner().scan(stream.chars, final=True)
        self.stats.preambles_seen += len(matches)

        packets: List[ReceivedPacket] = []
        calibrations: List[CalibrationEvent] = []
        for match_index, (start, kind) in enumerate(matches):
            limit = (
                matches[match_index + 1][0]
                if match_index + 1 < len(matches)
                else len(stream)
            )
            result = self.extract_window(stream, start, kind, limit)
            if result is None:
                continue
            if kind is PacketKind.CALIBRATION:
                calibrations.append(result)
            else:
                packets.append(result)
        return packets, calibrations

    def extract_window(
        self, stream: SymbolStream, start: int, kind: PacketKind, limit: int
    ):
        """Extract the one packet whose preamble matched at ``start``.

        The window runs from the preamble to ``limit`` (the next preamble's
        start, or the end of the stream).  Both :meth:`extract` and
        :class:`PacketFold` close windows through this, so per-window
        extraction cannot diverge between them.  Returns a
        :class:`ReceivedPacket`, a :class:`CalibrationEvent`, or ``None``
        for a dropped packet; stats are updated either way.
        """
        flag = DATA_FLAG if kind is PacketKind.DATA else CALIBRATION_FLAG
        body_start = start + len(DELIMITER) + len(flag)
        if kind is PacketKind.CALIBRATION:
            event = self._extract_calibration(stream, body_start, limit)
            if event is None:
                self.stats.calibration_packets_dropped += 1
            else:
                self.stats.calibration_packets_ok += 1
            return event
        return self._extract_data(stream, body_start, limit)

    def _anchor_time(self, stream: SymbolStream, body_start: int) -> float:
        """On-air time of the last preamble symbol before ``body_start``.

        Slot indices within a packet are derived from band timing relative
        to this anchor: cumulative gap *counts* can drift by a symbol across
        frame boundaries, but each band's own exposure-core time is accurate
        to a fraction of a symbol, so ``round(dt / T)`` indexes slots exactly.
        """
        if stream.chars[body_start - 1] == "_":  # cannot happen for a match
            raise FramingError("preamble ended in a gap marker")
        return float(stream.entries["mid_time"][body_start - 1])

    def _timed_slot(self, anchor_time: float, band_time: float) -> int:
        """Slot index (0-based after the anchor symbol) from band timing."""
        period = 1.0 / self.symbol_rate
        return int(round((band_time - anchor_time) / period)) - 1

    def _extract_calibration(
        self, stream: SymbolStream, body_start: int, limit: int
    ) -> Optional[CalibrationEvent]:
        """Collect calibration colors, tolerating a gap mid-packet.

        Calibration symbols go out in index order; each surviving band maps
        to its constellation index by its timing offset from the preamble.
        """
        order = self.packetizer.mapper.constellation.order
        anchor_time = self._anchor_time(stream, body_start)
        window = stream.entries[body_start:limit]
        times = window["mid_time"].tolist()
        indices: List[int] = []
        rows: List[int] = []
        for row, char in enumerate(stream.chars[body_start:limit]):
            if char != "x":
                # A gap, or a dark band: calibration symbols are all lit, so
                # a dark band is a corrupted slot (occlusion, torn rows) whose
                # chroma would poison the table for the whole session.
                continue
            slot = self._timed_slot(anchor_time, times[row])
            if slot >= order:
                break
            if slot < 0 or (indices and slot <= indices[-1]):
                continue
            indices.append(slot)
            rows.append(row)
        if not indices:
            return None
        # White reference: mean chroma of the flag's lit bands (the flag's
        # bright symbols are white by construction, whatever they decoded as).
        flag = range(max(body_start - len(CALIBRATION_FLAG), 0), body_start)
        whites = [position for position in flag if stream.chars[position] == "x"]
        white = np.mean(stream.entries["lab"][whites, 1:], axis=0) if whites else None
        return CalibrationEvent(
            indices=indices,
            symbol_chroma=window["lab"][rows, 1:],
            white_chroma=white,
            frame_index=int(window["frame_index"][rows[0]]),
        )

    def _extract_data(
        self, stream: SymbolStream, body_start: int, limit: int
    ) -> Optional[ReceivedPacket]:
        size_symbols = self.packetizer.config.size_field_symbols
        anchor_time = self._anchor_time(stream, body_start)

        # Size field: the first `size_symbols` timed slots must all be
        # present, contiguous DATA bands — a header touched by the gap (or
        # demodulated as anything but data) drops the packet, per §5.
        size_field = stream.entries[body_start : body_start + size_symbols]
        labels = size_field["index"].tolist()
        if (
            len(size_field) < size_symbols
            or any(kind != KIND_DATA for kind in size_field["kind"].tolist())
            or NO_INDEX in labels
            or any(
                self._timed_slot(anchor_time, time) != i
                for i, time in enumerate(size_field["mid_time"].tolist())
            )
        ):
            self.stats.data_packets_dropped_header += 1
            return None

        # The size field's labels, MSB-first, packed into one int.
        bits_per_symbol = self.packetizer.bits_per_symbol
        codeword_bytes = 0
        for index in labels:
            codeword_bytes = (
                codeword_bytes << bits_per_symbol
            ) | self.packetizer.mapper.label_of_index(index)
        if codeword_bytes == 0 or codeword_bytes > self.packetizer.max_codeword_bytes:
            self.stats.data_packets_dropped_size += 1
            return None

        layout = self.packetizer.body_layout(codeword_bytes)
        slots_needed = len(layout)
        slot_decisions, symbols_received, symbols_erased, layout_errors = (
            self._collect_body_slots(
                stream.entries[body_start + size_symbols : limit],
                slots_needed,
                layout,
                anchor_time,
                size_symbols,
            )
        )
        codeword, erasures = self._slots_to_codeword(
            slot_decisions, layout, codeword_bytes
        )
        packet = ReceivedPacket(
            codeword=codeword,
            erasure_positions=erasures,
            header_bytes=codeword_bytes,
            symbols_received=symbols_received,
            symbols_erased=symbols_erased,
            complete=symbols_erased == 0,
            first_frame=int(size_field["frame_index"][0]),
            symbol_errors_vs_layout=layout_errors,
        )
        self.stats.data_packets_ok += 1
        return packet

    def _collect_body_slots(
        self,
        window: np.ndarray,
        slots_needed: int,
        layout: List[bool],
        anchor_time: float,
        slot_offset: int,
    ) -> tuple:
        """Place a window's received bands into body slots by their timing.

        Each band's timed offset from the preamble anchor names its slot
        exactly (gap *counts* can drift by a symbol across frame boundaries;
        band core times cannot).  Slots no band landed on — the inter-frame
        burst — become erasures.  Returns ``(slot_values, received, erased,
        layout_errors)`` where a slot value is a data index (int), 'w' for a
        white, or ``None`` for an erasure; ``layout_errors`` counts received
        slots whose class contradicts the white/data layout.
        """
        slot_values: List[object] = [None] * slots_needed
        received = 0
        layout_errors = 0
        for kind, index, time in zip(
            window["kind"].tolist(),
            window["index"].tolist(),
            window["mid_time"].tolist(),
        ):
            if kind == KIND_GAP:
                continue
            slot = self._timed_slot(anchor_time, time) - slot_offset
            if slot < 0:
                continue
            if slot >= slots_needed:
                break
            if slot_values[slot] is not None:
                layout_errors += 1
                continue
            expected_white = layout[slot]
            if kind == KIND_WHITE:
                if not expected_white:
                    layout_errors += 1
                slot_values[slot] = "w"
            elif kind == KIND_DATA and index != NO_INDEX:
                if expected_white:
                    layout_errors += 1
                slot_values[slot] = index
            else:
                # OFF inside a body: a corrupted slot, left as an erasure.
                continue
            received += 1
        erased = sum(1 for v in slot_values if v is None)
        return slot_values, received, erased, layout_errors

    def _slots_to_codeword(
        self,
        slot_values: List[object],
        layout: List[bool],
        codeword_bytes: int,
    ) -> tuple:
        """Strip whites by layout; map data slots to bytes with erasures.

        The data slots' labels are packed MSB-first into one int and their
        erased bits into a second, so ``to_bytes`` yields both the codeword
        and a per-byte erasure mask.  Data bits beyond ``codeword_bytes``
        are dropped; missing ones are zero bits, erased.
        """
        bits_per_symbol = self.packetizer.bits_per_symbol
        label_of_index = self.packetizer.mapper.label_of_index
        all_erased = (1 << bits_per_symbol) - 1
        value = 0
        erased = 0
        data_bits = 0
        for is_white, slot in zip(layout, slot_values):
            if is_white:
                # Illumination slot: discard whatever arrived here.
                continue
            value <<= bits_per_symbol
            erased <<= bits_per_symbol
            data_bits += bits_per_symbol
            if slot is None or slot == "w":
                # Lost, corrupted, or misclassified-as-white data slot.
                erased |= all_erased
            else:
                value |= label_of_index(slot)

        spare_bits = codeword_bytes * 8 - data_bits
        if spare_bits < 0:
            value >>= -spare_bits
            erased >>= -spare_bits
        else:
            value <<= spare_bits
            erased = (erased << spare_bits) | ((1 << spare_bits) - 1)
        codeword = value.to_bytes(codeword_bytes, "big")
        erasures = [
            position
            for position, mask in enumerate(erased.to_bytes(codeword_bytes, "big"))
            if mask
        ]
        return codeword, erasures


class PacketFold:
    """The receive back half as a fold: a run of frames' bands in, packets out.

    :meth:`push` stitches a run's record onto a columnar
    :class:`SymbolStream` (:meth:`PacketAssembler.stitch_into`), advances a
    :class:`PreambleScanner` over the stream's skeleton and closes every
    window the scan has decided through
    :meth:`PacketAssembler.extract_window`.  A window closes when the next
    preamble matches, or at :meth:`close`, which flushes the tail.  Both
    return the data packets whose windows closed; calibration events are
    kept on :attr:`calibrations` for the caller to absorb once the pass is
    over.  Because the scanner decides a position only once a whole-stream
    scan would decide it the same way, any split of a recording into
    pushes closes the same windows.

    Between preambles the consumed prefix of the stream is dropped, so a
    fold holds O(window) state however long it runs.  Each fold owns a
    fresh :class:`PacketAssembler`, so :attr:`stats` count this pass alone.
    """

    def __init__(self, packetizer: Packetizer, symbol_rate: float) -> None:
        self.assembler = PacketAssembler(packetizer, symbol_rate)
        self.stats = self.assembler.stats
        self.calibrations: List[CalibrationEvent] = []
        self._scanner = self.assembler.make_scanner()
        self._stream = SymbolStream()
        #: The last matched, not-yet-closed preamble: ``(start, kind)``.
        self._pending: Optional[tuple] = None

    def push(self, run: FrameRecord) -> List[ReceivedPacket]:
        """Fold a run's bands in; return the packets that closed."""
        self.assembler.stitch_into(self._stream, run)
        return self._drain(final=False)

    def close(self) -> List[ReceivedPacket]:
        """End the stream: decide the scan's tail and close the last window."""
        return self._drain(final=True)

    def _drain(self, final: bool) -> List[ReceivedPacket]:
        """Advance the preamble scan; close every decided window."""
        stream = self._stream
        packets: List[ReceivedPacket] = []
        for start, kind in self._scanner.scan(stream.chars, final):
            if self._pending is not None:
                self._close_window(self._pending, start, packets)
            self.stats.preambles_seen += 1
            self._pending = (start, kind)
        if final:
            if self._pending is not None:
                self._close_window(self._pending, len(stream), packets)
                self._pending = None
            stream.drop(len(stream))
            self._scanner.position = 0
            return packets
        # Everything before the open window (or, with no window open,
        # before the scan cursor) can never be read again: extraction only
        # looks inside [match start, next match).
        if self._pending is not None:
            cut, kind = self._pending
            self._pending = (0, kind)
        else:
            cut = self._scanner.position
        if cut > 0:
            stream.drop(cut)
            self._scanner.position -= cut
        return packets

    def _close_window(
        self, match: tuple, limit: int, packets: List[ReceivedPacket]
    ) -> None:
        start, kind = match
        result = self.assembler.extract_window(self._stream, start, kind, limit)
        if result is None:
            return
        if kind is PacketKind.CALIBRATION:
            self.calibrations.append(result)
        else:
            packets.append(result)
