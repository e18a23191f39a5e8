"""On-off-keying baseline for rolling-shutter cameras.

OOK transmits one bit per symbol period by switching the LED fully on or
off (paper §2.1, Fig 1b).  It is the simplest rolling-shutter modulation
and the paper's first point of comparison: less robust to ambient light,
flicker-prone under long runs of equal bits, and limited to one bit per
band — the data-rate ceiling ColorBars breaks with color.

The modem uses Manchester-style run-length limiting (each data bit becomes
an on-off or off-on pair) so the LED never idles in one state long enough
to flicker, matching how practical OOK VLC links are run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.camera.frame import CapturedFrame
from repro.exceptions import ModulationError
from repro.phy.led import TriLedEmitter
from repro.phy.waveform import EXTEND_CYCLE, OpticalWaveform
from repro.rx.preprocess import frame_to_scanline_lab
from repro.util.bitstream import bits_to_bytes, bytes_to_bits
from repro.util.validation import require_positive


@dataclass
class OokResult:
    """Decoded bits of one OOK recording plus accounting."""

    bits: List[int]
    symbols_observed: int
    duration_s: float

    @property
    def throughput_bps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return len(self.bits) / self.duration_s

    def payload(self) -> bytes:
        usable = len(self.bits) - len(self.bits) % 8
        return bits_to_bytes(self.bits[:usable])


class OokModem:
    """Manchester-coded on-off keying over the tri-LED."""

    def __init__(
        self,
        emitter: TriLedEmitter,
        symbol_rate: float,
        off_lightness: float = 12.0,
    ) -> None:
        require_positive(symbol_rate, "symbol_rate")
        emitter.pwm.check_symbol_rate(symbol_rate)
        self.emitter = emitter
        self.symbol_rate = float(symbol_rate)
        self.off_lightness = off_lightness
        self._on_xyz = emitter.emit_chromaticity(emitter.white_point)
        self._off_xyz = emitter.off_xyz()

    # -- TX ------------------------------------------------------------------

    def modulate(self, payload: bytes, extend: str = EXTEND_CYCLE) -> OpticalWaveform:
        """Manchester-encode payload bits into an on/off waveform."""
        if not payload:
            raise ModulationError("payload must not be empty")
        levels: List[np.ndarray] = []
        for bit in bytes_to_bits(payload):
            if bit:
                levels.extend([self._on_xyz, self._off_xyz])
            else:
                levels.extend([self._off_xyz, self._on_xyz])
        return OpticalWaveform(np.stack(levels), self.symbol_rate, extend=extend)

    # -- RX ------------------------------------------------------------------

    def demodulate_frames(
        self,
        frames: Sequence[CapturedFrame],
        rows_per_symbol: float,
        duration_s: float,
    ) -> OokResult:
        """Threshold scanlines into on/off runs and undo the Manchester code.

        Bits interrupted by the inter-frame gap are dropped: plain OOK has no
        erasure protection, which is part of why its net rate is low.
        """
        require_positive(rows_per_symbol, "rows_per_symbol")
        bits: List[int] = []
        symbols = 0
        for frame in frames:
            states = self._frame_states(frame, rows_per_symbol)
            symbols += len(states)
            # Manchester pairs: (1,0) -> 1, (0,1) -> 0; resynchronize on
            # violations ((0,0)/(1,1) cannot be a code pair).
            index = 0
            while index + 1 < len(states):
                pair = (states[index], states[index + 1])
                if pair == (1, 0):
                    bits.append(1)
                    index += 2
                elif pair == (0, 1):
                    bits.append(0)
                    index += 2
                else:
                    index += 1
        return OokResult(bits=bits, symbols_observed=symbols, duration_s=duration_s)

    def _frame_states(
        self, frame: CapturedFrame, rows_per_symbol: float
    ) -> List[int]:
        scanlines = frame_to_scanline_lab(frame)
        lit = scanlines[:, 0] >= self.off_lightness
        states: List[int] = []
        run_start = 0
        for row in range(1, len(lit) + 1):
            if row == len(lit) or lit[row] != lit[run_start]:
                run_width = row - run_start
                count = max(int(round(run_width / rows_per_symbol)), 0)
                states.extend([int(lit[run_start])] * count)
                run_start = row
        return states
