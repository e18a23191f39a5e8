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
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.csk.demodulator import KIND_DATA, KIND_OFF, KIND_WHITE, NO_INDEX
from repro.phy.symbols import LogicalSymbol, SymbolKind
from repro.phy.waveform import OpticalWaveform
from repro.rx.detector import ReceivedBand, band_column
from repro.rx.receiver import ReceiverReport
from repro.util.validation import require_positive

#: Each on-air symbol kind as the code of the decision kind that receives it.
_TRUTH_KIND = {
    SymbolKind.DATA: KIND_DATA,
    SymbolKind.WHITE: KIND_WHITE,
    SymbolKind.OFF: KIND_OFF,
}


@dataclass(frozen=True, eq=False)
class GroundTruthAlignment:
    """Received bands paired with the symbols actually on air, as columns.

    One entry per aligned band, in band order: the band's position in the
    sequence aligned, the decision's kind code and index
    (:data:`~repro.csk.demodulator.DECISION_KINDS` codes,
    :data:`~repro.csk.demodulator.NO_INDEX` for none) and the on-air
    symbol's, in the same encoding.
    """

    position: np.ndarray
    kind: np.ndarray
    index: np.ndarray
    truth_kind: np.ndarray
    truth_index: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def correct(self) -> np.ndarray:
        """Per aligned band: the decision names the on-air symbol (a DATA
        decision only with the on-air index)."""
        return (self.kind == self.truth_kind) & (
            (self.truth_kind != KIND_DATA) | (self.index == self.truth_index)
        )


def align_ground_truth(
    bands: Sequence[ReceivedBand],
    symbols: Sequence[LogicalSymbol],
    waveform: OpticalWaveform,
    *,
    start_offsets: Optional[Mapping[int, float]] = None,
) -> GroundTruthAlignment:
    """Pair each received band with the transmitted symbol at its mid-time.

    The link simulator knows the cyclic transmitted stream; a band's
    exposure midpoint indexes into it.  Bands whose midpoint falls outside a
    non-cyclic waveform are skipped.

    A band's ``mid_time`` comes from its frame's *claimed* start time.
    ``start_offsets`` maps a frame index to how far that claim sits from the
    frame's true start (claimed minus true), as a timing fault leaves it;
    each band is scored at its true on-air time.  Frames not in the map
    have no offset.

    ``bands`` is read as columns (:func:`~repro.rx.detector.band_column`);
    no band object is built.
    """
    mid_times = band_column(bands, "mid_time")
    if start_offsets:
        mid_times = mid_times - np.array(
            [
                start_offsets.get(frame, 0.0)
                for frame in band_column(bands, "frame_index").tolist()
            ]
        )
    positions = waveform.symbol_index_at(mid_times)
    aligned = positions >= 0
    truths = [symbols[position] for position in positions[aligned].tolist()]
    return GroundTruthAlignment(
        position=np.flatnonzero(aligned),
        kind=band_column(bands, "kind")[aligned],
        index=band_column(bands, "index")[aligned],
        truth_kind=np.array(
            [_TRUTH_KIND[truth.kind] for truth in truths], dtype=np.uint8
        ),
        truth_index=np.array(
            [NO_INDEX if truth.index is None else truth.index for truth in truths],
            dtype=np.int64,
        ),
    )


def _error_rate(correct: np.ndarray) -> float:
    return int(np.count_nonzero(~correct)) / correct.size if correct.size else 0.0


def symbol_error_rate(alignment: GroundTruthAlignment) -> float:
    """Fraction of aligned bands demodulated incorrectly."""
    return _error_rate(alignment.correct)


def data_symbol_error_rate(alignment: GroundTruthAlignment) -> float:
    """SER restricted to bands whose transmitted symbol carried data.

    This is the quantity Fig 9 reports: inter-symbol-interference errors on
    the color constellation, with the trivially-detectable OFF/white symbols
    excluded.
    """
    return _error_rate(alignment.correct[alignment.truth_kind == KIND_DATA])


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
    alignment: GroundTruthAlignment,
    bits_per_symbol: int,
    payload_bytes_per_packet: int,
    duration_s: float,
) -> LinkMetrics:
    """Assemble the metric triple from a receive session.

    Throughput counts received *data-class* bands (the paper excludes
    illumination whites and, implicitly, the o/w framing symbols), read
    from the report's ``kind`` column; goodput counts k payload bytes per
    successfully decoded packet.  ``alignment`` is the session's
    :func:`align_ground_truth`.
    """
    require_positive(duration_s, "duration_s")
    require_positive(bits_per_symbol, "bits_per_symbol")
    require_positive(payload_bytes_per_packet, "payload_bytes_per_packet")

    data_received = int(
        np.count_nonzero(band_column(report.bands, "kind") == KIND_DATA)
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
        symbol_error_rate=symbol_error_rate(alignment),
        data_symbol_error_rate=data_symbol_error_rate(alignment),
        throughput_bps=throughput,
        goodput_bps=goodput,
        duration_s=duration_s,
        symbols_compared=len(alignment),
        data_symbols_received=data_received,
        packets_decoded=report.packets_decoded,
        packets_seen=report.packets_seen,
        inter_frame_loss_ratio=loss_ratio,
    )
