"""Frequency-shift-keying baseline (RollingLight-style).

The FSK schemes the paper compares against ([1] RollingLight, [2] Visual
Light Landmarks) encode each symbol as a *burst of on-off cycles at one of
several frequencies*; the camera measures the band-stripe frequency inside
the burst to recover the symbol (paper §2.1, Fig 1b).  Long symbols (many
cycles each) are what make FSK robust — and slow: the paper quotes 11.32
and 1.25 bytes per second.

This modem reproduces that design point: M frequencies = log2(M) bits per
burst, a fixed burst duration long enough to contain several cycles of the
slowest tone, and a dark guard interval between bursts for burst
synchronization.
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
from repro.util.bitstream import bits_to_bytes, bytes_to_bits, chunk_bits, int_to_bits
from repro.util.validation import require, require_positive


@dataclass
class FskResult:
    """Decoded symbols of one FSK recording plus accounting."""

    bits: List[int]
    bursts_observed: int
    duration_s: float

    @property
    def throughput_bps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return len(self.bits) / self.duration_s

    def payload(self) -> bytes:
        usable = len(self.bits) - len(self.bits) % 8
        return bits_to_bytes(self.bits[:usable])


class FskModem:
    """Multi-tone on-off FSK over the tri-LED (white light only).

    Parameters
    ----------
    tones_hz:
        The symbol alphabet: one on-off switching frequency per symbol.
        Must have a power-of-two length.  Defaults to four tones between
        1 and 2.2 kHz, within what rolling-shutter cameras resolve.
    burst_s:
        Symbol (burst) duration.  RollingLight uses bursts spanning a good
        fraction of a frame so at least one full burst is captured per
        frame; the default 10 ms gives >= 10 cycles of the slowest tone.
    guard_s:
        Dark gap separating bursts, used for burst segmentation.
    """

    #: Waveform sampling rate for building the on-off chip sequence.
    CHIP_RATE_HZ = 20000.0

    def __init__(
        self,
        emitter: TriLedEmitter,
        tones_hz: Sequence[float] = (1000.0, 1400.0, 1800.0, 2200.0),
        burst_s: float = 0.010,
        guard_s: float = 0.002,
    ) -> None:
        tones = [float(t) for t in tones_hz]
        require(len(tones) >= 2, "need at least two tones")
        if len(tones) & (len(tones) - 1):
            raise ModulationError(
                f"tone count must be a power of two, got {len(tones)}"
            )
        for tone in tones:
            require_positive(tone, "tone frequency")
            require(
                tone < self.CHIP_RATE_HZ / 4,
                f"tone {tone} Hz too fast for the chip rate",
            )
        require_positive(burst_s, "burst_s")
        require_positive(guard_s, "guard_s")
        self.emitter = emitter
        self.tones_hz = tones
        self.burst_s = float(burst_s)
        self.guard_s = float(guard_s)
        self._on_xyz = emitter.emit_chromaticity(emitter.white_point)
        self._off_xyz = emitter.off_xyz()

    @property
    def bits_per_burst(self) -> int:
        return len(self.tones_hz).bit_length() - 1

    # -- TX ------------------------------------------------------------------

    def modulate(self, payload: bytes, extend: str = EXTEND_CYCLE) -> OpticalWaveform:
        """Encode payload bits as tone bursts separated by dark guards."""
        if not payload:
            raise ModulationError("payload must not be empty")
        chips: List[np.ndarray] = []
        chips_per_burst = int(round(self.burst_s * self.CHIP_RATE_HZ))
        chips_per_guard = int(round(self.guard_s * self.CHIP_RATE_HZ))
        times = np.arange(chips_per_burst) / self.CHIP_RATE_HZ
        for group in chunk_bits(bytes_to_bits(payload), self.bits_per_burst):
            tone_index = 0
            for bit in group:
                tone_index = (tone_index << 1) | bit
            tone = self.tones_hz[tone_index]
            on = (np.sin(2 * np.pi * tone * times) >= 0).astype(float)
            for state in on:
                chips.append(self._on_xyz if state else self._off_xyz)
            chips.extend([self._off_xyz] * chips_per_guard)
        return OpticalWaveform(
            np.stack(chips), self.CHIP_RATE_HZ, extend=extend
        )

    # -- RX ------------------------------------------------------------------

    def demodulate_frames(
        self,
        frames: Sequence[CapturedFrame],
        duration_s: float,
    ) -> FskResult:
        """Recover tone bursts from the scanline lightness signal.

        Each frame's scanline lightness is segmented into lit bursts
        (separated by guard gaps); the stripe frequency inside a burst is
        estimated by zero-crossing counting and matched to the nearest tone.
        Bursts cut by the frame edge or the inter-frame gap are dropped —
        the synchronization loss the original systems also pay.
        """
        bits: List[int] = []
        bursts = 0
        for frame in frames:
            # Smooth enough to suppress scanline pipeline noise (which would
            # inject spurious zero crossings) while staying well under the
            # fastest tone's half-period in rows.
            half_period_rows = 1.0 / (
                2.0 * max(self.tones_hz) * frame.row_period
            )
            smooth = max(3, min(int(half_period_rows / 4), 9))
            scanlines = frame_to_scanline_lab(frame, smooth_rows=smooth)
            lightness = scanlines[:, 0]
            rows_per_second = 1.0 / frame.row_period
            for start, stop in self._bursts(lightness, frame):
                bursts += 1
                tone_index = self._classify_burst(
                    lightness[start:stop], rows_per_second
                )
                if tone_index is None:
                    continue
                bits.extend(int_to_bits(tone_index, self.bits_per_burst))
        return FskResult(bits=bits, bursts_observed=bursts, duration_s=duration_s)

    def _bursts(self, lightness: np.ndarray, frame: CapturedFrame) -> List[tuple]:
        """Locate complete bursts: lit spans bounded by guard-length gaps."""
        threshold = max(np.percentile(lightness, 80) * 0.3, 8.0)
        lit = lightness > threshold
        guard_rows = int(self.guard_s / frame.row_period * 0.6)
        burst_rows = int(self.burst_s / frame.row_period)
        spans: List[tuple] = []
        run_start = None
        gap = guard_rows  # treat the frame start as a gap
        for row, is_lit in enumerate(lit):
            if is_lit:
                if run_start is None and gap >= guard_rows:
                    run_start = row
                gap = 0
            else:
                gap += 1
                if run_start is not None and gap >= guard_rows:
                    spans.append((run_start, row - gap + 1))
                    run_start = None
        # A burst still open at the frame edge is incomplete: drop it.
        return [
            (start, stop)
            for start, stop in spans
            if (stop - start) >= 0.7 * burst_rows
        ]

    def _classify_burst(
        self, lightness: np.ndarray, rows_per_second: float
    ):
        """Zero-crossing frequency estimate -> nearest tone index."""
        if lightness.size < 8:
            return None
        centered = lightness - lightness.mean()
        crossings = np.count_nonzero(np.diff(np.signbit(centered)))
        duration = lightness.size / rows_per_second
        if duration <= 0 or crossings == 0:
            return None
        frequency = crossings / (2.0 * duration)
        distances = [abs(frequency - tone) for tone in self.tones_hz]
        best = int(np.argmin(distances))
        # Reject estimates far from every tone (noise bursts).
        spacing = min(
            abs(a - b)
            for i, a in enumerate(self.tones_hz)
            for b in self.tones_hz[i + 1 :]
        )
        if distances[best] > spacing:
            return None
        return best
