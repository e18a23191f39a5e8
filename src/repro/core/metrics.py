"""Evaluation metrics: symbol error rate, throughput, goodput (paper §8).

* **SER** — fraction of received bands demodulated to the wrong symbol,
  judged against the transmitted ground truth aligned by on-air time.
* **Throughput** — raw received data bits per second: data-class symbols
  received per second times bits per symbol, illumination symbols excluded,
  no error correction applied (paper's Fig 10 definition).
* **Goodput** — successfully delivered payload bits per second after packet
  reassembly and Reed-Solomon decoding (Fig 11 definition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.csk.demodulator import DecisionKind
from repro.phy.symbols import LogicalSymbol, SymbolKind
from repro.phy.waveform import OpticalWaveform
from repro.rx.detector import ReceivedBand
from repro.rx.receiver import ReceiverReport
from repro.util.validation import require_positive


@dataclass(frozen=True)
class GroundTruthMatch:
    """One received band paired with the symbol actually on air."""

    band: ReceivedBand
    truth: LogicalSymbol

    @property
    def correct(self) -> bool:
        decision = self.band.decision
        if self.truth.kind is SymbolKind.OFF:
            return decision.kind is DecisionKind.OFF
        if self.truth.kind is SymbolKind.WHITE:
            return decision.kind is DecisionKind.WHITE
        return (
            decision.kind is DecisionKind.DATA
            and decision.index == self.truth.index
        )


def align_ground_truth(
    bands: Sequence[ReceivedBand],
    symbols: Sequence[LogicalSymbol],
    waveform: OpticalWaveform,
    *,
    start_offsets: Optional[Mapping[int, float]] = None,
) -> List[GroundTruthMatch]:
    """Pair each received band with the transmitted symbol at its mid-time.

    The link simulator knows the cyclic transmitted stream; a band's
    exposure midpoint indexes into it.  Bands whose midpoint falls outside a
    non-cyclic waveform are skipped.

    A band's ``mid_time`` comes from its frame's *claimed* start time.
    ``start_offsets`` maps a frame index to how far that claim sits from the
    frame's true start (claimed minus true), as a timing fault leaves it;
    each band is scored at its true on-air time.  Frames not in the map
    have no offset.
    """
    # One pass over ``bands``: a report's band log builds the band objects
    # anew on every iteration.
    bands = list(bands)
    if not bands:
        return []
    mid_times = np.array([band.mid_time for band in bands])
    if start_offsets:
        mid_times -= np.array(
            [start_offsets.get(band.frame_index, 0.0) for band in bands]
        )
    indices = waveform.symbol_index_at(mid_times)
    return [
        GroundTruthMatch(band=band, truth=symbols[index])
        for band, index in zip(bands, indices.tolist())
        if index >= 0
    ]


def symbol_error_rate(matches: Sequence[GroundTruthMatch]) -> float:
    """Fraction of aligned bands demodulated incorrectly."""
    if not matches:
        return 0.0
    wrong = sum(1 for m in matches if not m.correct)
    return wrong / len(matches)


def data_symbol_error_rate(matches: Sequence[GroundTruthMatch]) -> float:
    """SER restricted to bands whose transmitted symbol carried data.

    This is the quantity Fig 9 reports: inter-symbol-interference errors on
    the color constellation, with the trivially-detectable OFF/white symbols
    excluded.
    """
    data_matches = [m for m in matches if m.truth.kind is SymbolKind.DATA]
    if not data_matches:
        return 0.0
    wrong = sum(1 for m in data_matches if not m.correct)
    return wrong / len(data_matches)


@dataclass(frozen=True)
class LinkMetrics:
    """The §8 metric triple plus the counters behind it."""

    symbol_error_rate: float
    data_symbol_error_rate: float
    throughput_bps: float
    goodput_bps: float
    duration_s: float
    symbols_compared: int
    data_symbols_received: int
    packets_decoded: int
    packets_seen: int
    inter_frame_loss_ratio: float

    def summary(self) -> str:
        return (
            f"SER={self.data_symbol_error_rate:.4f} "
            f"throughput={self.throughput_bps / 1000:.2f} kbps "
            f"goodput={self.goodput_bps / 1000:.2f} kbps "
            f"(packets {self.packets_decoded}/{self.packets_seen}, "
            f"loss={self.inter_frame_loss_ratio:.3f})"
        )


def compute_link_metrics(
    report: ReceiverReport,
    matches: Sequence[GroundTruthMatch],
    bits_per_symbol: int,
    payload_bytes_per_packet: int,
    duration_s: float,
    bands: Optional[Sequence[ReceivedBand]] = None,
) -> LinkMetrics:
    """Assemble the metric triple from a receive session.

    Throughput counts received *data-class* bands (the paper excludes
    illumination whites and, implicitly, the o/w framing symbols);
    goodput counts k payload bytes per successfully decoded packet.
    ``bands`` are ``report.bands`` already materialized by the caller
    (``None`` reads the report's).
    """
    require_positive(duration_s, "duration_s")
    require_positive(bits_per_symbol, "bits_per_symbol")
    require_positive(payload_bytes_per_packet, "payload_bytes_per_packet")

    data_received = sum(
        1
        for band in (report.bands if bands is None else bands)
        if band.decision.kind is DecisionKind.DATA
    )
    throughput = data_received * bits_per_symbol / duration_s
    goodput = report.packets_decoded * payload_bytes_per_packet * 8 / duration_s

    total_opportunities = report.symbols_detected + report.symbols_lost_in_gaps
    loss_ratio = (
        report.symbols_lost_in_gaps / total_opportunities
        if total_opportunities
        else 0.0
    )
    return LinkMetrics(
        symbol_error_rate=symbol_error_rate(matches),
        data_symbol_error_rate=data_symbol_error_rate(matches),
        throughput_bps=throughput,
        goodput_bps=goodput,
        duration_s=duration_s,
        symbols_compared=len(matches),
        data_symbols_received=data_received,
        packets_decoded=report.packets_decoded,
        packets_seen=report.packets_seen,
        inter_frame_loss_ratio=loss_ratio,
    )
