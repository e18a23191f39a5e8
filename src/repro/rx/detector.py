"""Symbol detection: bands -> classified received symbols.

Bridges segmentation and packet assembly.  Before the first calibration
packet arrives the detector runs in *bootstrap* mode — OFF by lightness,
WHITE by low chroma magnitude, everything else an unknown DATA color — which
is all preamble matching needs (the calibration flag is built from OFF and
WHITE precisely so an uncalibrated receiver can latch onto it, paper §6.2).
Once calibrated, full constellation matching takes over.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from typing import Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.csk.demodulator import (
    DECISION_KINDS,
    KIND_DATA,
    KIND_OFF,
    KIND_WHITE,
    NO_INDEX,
    CskDemodulator,
    DecisionColumns,
    SymbolDecision,
)
from repro.exceptions import DemodulationError
from repro.rx.segmentation import Band, BandColumns


class ReceivedBand(NamedTuple):
    """A logged band read back as one object: frame, timing and decision.

    Only :class:`BandLog`'s read-back builds these (and old pickled reports
    hold lists of them): an immutable :class:`~typing.NamedTuple`.
    """

    frame_index: int
    band: Band
    mid_time: float
    decision: SymbolDecision

    @property
    def lab(self) -> np.ndarray:
        return self.band.lab

    @property
    def chroma(self) -> np.ndarray:
        return self.band.lab[1:]

    def to_char(self) -> str:
        return self.decision.to_char()


#: One classified band as a packed record: the :class:`Band` bounds and
#: color, the band's mid-exposure time, and its :class:`SymbolDecision` in
#: :class:`~repro.csk.demodulator.DecisionColumns` encoding (index -1 and
#: margin NaN stand for ``None``).  72 bytes, against ~570 for the
#: :class:`ReceivedBand` object graph it stands for.  Float fields come
#: first so every field of the aligned layout sits on its natural boundary.
BAND_RECORD = np.dtype(
    [
        ("lab", np.float64, (3,)),
        ("mid_time", np.float64),
        ("distance", np.float64),
        ("margin", np.float64),
        ("row_start", np.int32),
        ("row_stop", np.int32),
        ("core_start", np.int32),
        ("core_stop", np.int32),
        ("index", np.int16),
        ("kind", np.uint8),
        ("confident", np.bool_),
    ],
    align=True,
)


def received_bands(frame_index: int, record: np.ndarray) -> List[ReceivedBand]:
    """The :class:`ReceivedBand` objects one frame's record stands for.

    Built a column at a time from the record's fields, never row by row:
    each band's ``lab`` is a row view into the record.
    """
    bands = BandColumns(*(record[name] for name in Band._fields))
    decisions = DecisionColumns(
        *(record[name] for name in DecisionColumns._fields)
    )
    return list(
        map(
            ReceivedBand,
            repeat(frame_index),
            bands.bands(),
            record["mid_time"].tolist(),
            decisions.decisions(),
        )
    )


#: A zero-length record: each of its columns is an empty array of the
#: column's dtype and shape.
NO_BANDS = np.zeros(0, dtype=BAND_RECORD)


class FrameRecord:
    """A run of frames' classified bands, packed as one record.

    ``frame_indices`` and ``counts`` give each frame of the run, in order,
    with its band count, and ``record`` holds all their bands as one
    :data:`BAND_RECORD` array, frame after frame.
    :meth:`SymbolDetector.detect` returns this, and it is the only form a
    band takes from there to FEC: the packet fold reads its columns and the
    report's :class:`BandLog` keeps a view of each frame's rows.
    ``FrameRecord(index, record)`` is a run of one frame (an empty frame
    is ``FrameRecord(index)`` over the shared zero-length
    :data:`NO_BANDS`); :meth:`join` concatenates runs.  ``len`` is the
    band count.
    """

    __slots__ = ("frame_indices", "counts", "record")

    def __init__(self, frame_index: int, record: np.ndarray = NO_BANDS) -> None:
        self.frame_indices = [frame_index]
        self.counts = [len(record)]
        self.record = record

    @classmethod
    def run(
        cls, frame_indices: List[int], counts: List[int], record: np.ndarray
    ) -> "FrameRecord":
        """The run of ``frame_indices`` with ``counts`` bands each."""
        joined = cls.__new__(cls)
        joined.frame_indices = frame_indices
        joined.counts = counts
        joined.record = record
        return joined

    @classmethod
    def join(cls, runs: Sequence["FrameRecord"]) -> "FrameRecord":
        """One run of ``runs``' frames, in order."""
        return cls.run(
            [index for run in runs for index in run.frame_indices],
            [count for run in runs for count in run.counts],
            np.concatenate([NO_BANDS] + [run.record for run in runs]),
        )

    @property
    def frame_index(self) -> int:
        """The index of the run's first frame (a one-frame run's frame)."""
        return self.frame_indices[0]

    def frames(self) -> Iterator[Tuple[int, np.ndarray]]:
        """``(frame index, its rows of record)`` per frame: a view of the
        rows, or the record itself for a run of one frame."""
        if len(self.counts) == 1:
            yield self.frame_indices[0], self.record
            return
        start = 0
        for frame_index, count in zip(self.frame_indices, self.counts):
            yield frame_index, self.record[start : start + count]
            start += count

    def __len__(self) -> int:
        return len(self.record)


class BandLog(Sequence):
    """Every band a receive pass classified, kept as per-frame records.

    A read-only :class:`~collections.abc.Sequence` of :class:`ReceivedBand`:
    ``len``, iteration and indexing build the band objects on demand from
    the records the detector handed the packet fold.  What it holds is one
    :data:`BAND_RECORD` array per frame, so a live session's report grows
    by ~72 bytes per band instead of a ~570-byte object graph.  Scoring
    reads it by column (:func:`band_column`).
    """

    def __init__(self) -> None:
        self._frame_indices: List[int] = []
        self._records: List[np.ndarray] = []
        #: Band count up to and including each frame.
        self._ends: List[int] = []

    def append_run(self, run: FrameRecord) -> None:
        """Log a run's bands, a frame at a time (an empty frame logs
        nothing); each frame's record is a view into the run's."""
        for frame_index, record in run.frames():
            if len(record):
                self._frame_indices.append(frame_index)
                self._records.append(record)
                self._ends.append(len(self) + len(record))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[ReceivedBand]:
        for frame_index, record in zip(self._frame_indices, self._records):
            yield from received_bands(frame_index, record)

    def __getitem__(self, key):
        return list(self)[key]


#: How a band object reads as each column :func:`band_column` serves for
#: a plain list, in the log's encoding.
_OBJECT_COLUMNS = {
    "frame_index": lambda band: band.frame_index,
    "mid_time": lambda band: band.mid_time,
    "kind": lambda band: DECISION_KINDS.index(band.decision.kind),
    "index": lambda band: _or(band.decision.index, NO_INDEX),
    "margin": lambda band: _or(band.decision.margin, np.nan),
}


def _or(value, none_as):
    return none_as if value is None else value


def band_column(
    bands: Sequence[ReceivedBand], name: str, start: int = 0
) -> np.ndarray:
    """One :data:`BAND_RECORD` field, or ``"frame_index"``, of
    ``bands[start:]`` as an array, with no band object built.

    A :class:`BandLog` concatenates the field from the frames holding those
    bands.  A plain list of band objects, as reports pickled before the
    log existed, is read band by band into the same dtype.
    """
    if not isinstance(bands, BandLog):
        return np.array(
            [_OBJECT_COLUMNS[name](band) for band in bands[start:]],
            dtype=np.int64 if name == "frame_index" else BAND_RECORD[name],
        )
    frame = bisect_right(bands._ends, start)
    records = bands._records[frame:]
    if name == "frame_index":
        column = np.repeat(
            np.array(bands._frame_indices[frame:], dtype=np.int64),
            [len(record) for record in records],
        )
    else:
        column = np.concatenate([NO_BANDS[name]] + [r[name] for r in records])
    return column[start - (bands._ends[frame - 1] if frame else 0):]


class SymbolDetector:
    """Classifies segmented bands, in bootstrap or calibrated mode."""

    def __init__(
        self,
        demodulator: CskDemodulator,
        bootstrap_white_chroma: float = 14.0,
    ) -> None:
        if bootstrap_white_chroma <= 0:
            raise DemodulationError(
                "bootstrap_white_chroma must be positive, "
                f"got {bootstrap_white_chroma}"
            )
        self.demodulator = demodulator
        self.bootstrap_white_chroma = bootstrap_white_chroma

    @property
    def calibrated(self) -> bool:
        return self.demodulator.calibration.is_calibrated

    def _bootstrap_columns(self, labs: np.ndarray) -> DecisionColumns:
        """Bootstrap decisions for ``(N, 3)`` Lab rows.

        OFF by lightness, WHITE by low chroma magnitude, and any other
        color an unconfident DATA decision with no index: the assembler
        ignores data payloads until calibration anyway.
        """
        lightness = labs[:, 0]
        chroma_mag = np.hypot(labs[:, 1], labs[:, 2])
        off = lightness < self.demodulator.off_lightness
        white = ~off & (chroma_mag < self.bootstrap_white_chroma)
        columns = DecisionColumns.off(labs.shape[0])
        columns.kind[:] = np.where(
            off, KIND_OFF, np.where(white, KIND_WHITE, KIND_DATA)
        )
        columns.distance[:] = np.where(off, 0.0, chroma_mag)
        columns.confident[:] = off | white
        return columns

    def detect(self, clocks, bands) -> FrameRecord:
        """Attach timing and symbol decisions to a run of frames' bands.

        ``clocks`` is a list of frame clocks (anything with a
        :class:`~repro.camera.frame.CapturedFrame`'s ``index``,
        ``start_time``, ``row_period`` and ``exposure``) and ``bands`` the
        list of their bands, each the segmenter's :class:`BandColumns`.
        One frame and its bands, passed as they are, make a run of one.
        The run's bands are classified in one decision call and packed
        straight from the band and decision columns into one record; no
        band object is built.
        """
        if not isinstance(clocks, list):
            clocks, bands = [clocks], [bands]
        counts = [len(frame) for frame in bands]
        # Zeroed, so the layout's padding bytes pickle the same every time.
        record = np.zeros(sum(counts), dtype=BAND_RECORD)
        run = FrameRecord.run([clock.index for clock in clocks], counts, record)
        if not len(record):
            return run
        live = [frame for frame in bands if len(frame)]
        joined = live[0] if len(live) == 1 else BandColumns(
            *(
                np.concatenate([getattr(frame, name) for frame in live])
                for name in Band._fields
            )
        )
        for name in Band._fields:
            record[name] = getattr(joined, name)
        if self.calibrated:
            decisions = self.demodulator.decide_columns(joined.lab)
        else:
            decisions = self._bootstrap_columns(joined.lab)
        for name, column in zip(DecisionColumns._fields, decisions):
            record[name] = column
        # The band centre's timing as float64, each frame's clock repeated
        # over its bands: the same operations in the same order as
        # ``start_time + (core_start + core_stop - 1) / 2.0 * row_period +
        # half_exposure`` in Python floats, so every ``mid_time`` is bitwise
        # what a per-band loop would compute.
        clock_scalars = np.array(
            [
                (
                    float(clock.start_time),
                    float(clock.row_period),
                    float(clock.exposure.exposure_s / 2.0),
                )
                for clock in clocks
            ]
        )
        start_time, row_period, half_exposure = np.repeat(
            clock_scalars, counts, axis=0
        ).T
        record["mid_time"] = (
            start_time
            + ((joined.core_start + joined.core_stop - 1) / 2.0) * row_period
            + half_exposure
        )
        return run
