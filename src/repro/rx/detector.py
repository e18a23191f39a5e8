"""Symbol detection: bands -> classified received symbols.

Bridges segmentation and packet assembly.  Before the first calibration
packet arrives the detector runs in *bootstrap* mode — OFF by lightness,
WHITE by low chroma magnitude, everything else an unknown DATA color — which
is all preamble matching needs (the calibration flag is built from OFF and
WHITE precisely so an uncalibrated receiver can latch onto it, paper §6.2).
Once calibrated, full constellation matching takes over.
"""

from __future__ import annotations

from typing import List, NamedTuple

import numpy as np

from repro.camera.frame import CapturedFrame
from repro.csk.demodulator import (
    CskDemodulator,
    DecisionKind,
    SymbolDecision,
)
from repro.exceptions import DemodulationError
from repro.rx.segmentation import Band


class ReceivedBand(NamedTuple):
    """A detected band tagged with its frame, timing and decision.

    One per received band, so an immutable :class:`~typing.NamedTuple`
    rather than a frozen dataclass.
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

    def _bootstrap_stream(self, labs: np.ndarray) -> List[SymbolDecision]:
        """Bootstrap decisions for ``(N, 3)`` Lab rows.

        OFF by lightness, WHITE by low chroma magnitude, and any other
        color an unconfident DATA decision with no index: the assembler
        ignores data payloads until calibration anyway.
        """
        lightness = labs[:, 0]
        chroma_mag = np.hypot(labs[:, 1], labs[:, 2])
        off = lightness < self.demodulator.off_lightness
        white = ~off & (chroma_mag < self.bootstrap_white_chroma)
        return [
            SymbolDecision(DecisionKind.OFF, None, 0.0, True)
            if is_off
            else SymbolDecision(
                DecisionKind.WHITE if is_white else DecisionKind.DATA,
                None,
                mag,
                is_white,
            )
            for is_off, is_white, mag in zip(
                off.tolist(), white.tolist(), chroma_mag.tolist()
            )
        ]

    def detect(
        self,
        frame: CapturedFrame,
        bands: List[Band],
    ) -> List[ReceivedBand]:
        """Attach timing and symbol decisions to a frame's bands."""
        if not bands:
            return []
        labs = np.array([band.lab for band in bands])
        if self.calibrated:
            decisions = self.demodulator.decide_stream(labs)
        else:
            decisions = self._bootstrap_stream(labs)
        # Per-band timing in Python floats: the same operations, in the same
        # order, as one float64 array expression over the band centres.
        start_time = float(frame.start_time)
        row_period = float(frame.row_period)
        half_exposure = float(frame.exposure.exposure_s / 2.0)
        frame_index = frame.index
        return [
            ReceivedBand(
                frame_index,
                band,
                start_time + band.center_row * row_period + half_exposure,
                decision,
            )
            for band, decision in zip(bands, decisions)
        ]
