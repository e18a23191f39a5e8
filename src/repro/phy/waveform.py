"""The piecewise-constant optical waveform emitted by the transmitter.

Each symbol holds the LED at one color for one symbol period, so the emitted
light is a step function of time in XYZ space.  The camera simulator needs
the *integral* of that function over each scanline's exposure window; with a
cumulative-sum representation those integrals are O(1) per window and fully
vectorized, which is what makes frame-rate simulation of megapixel sensors
tractable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.util.validation import require, require_positive

#: How the waveform continues past its last symbol.
EXTEND_OFF = "off"      #: darkness after the stream ends
EXTEND_CYCLE = "cycle"  #: the stream repeats (continuous broadcast)


class OpticalWaveform:
    """A symbol-clocked XYZ step function with fast window integration.

    Parameters
    ----------
    symbol_xyz:
        ``(N, 3)`` array — the CIE XYZ emitted during each symbol period.
    symbol_rate:
        Symbols per second; each symbol lasts ``1 / symbol_rate``.
    extend:
        :data:`EXTEND_OFF` (default) or :data:`EXTEND_CYCLE` — behaviour for
        times beyond the stream.  ColorBars broadcasts continuously, so link
        simulations use the cyclic mode; single-burst analyses use OFF.
    """

    def __init__(
        self,
        symbol_xyz: np.ndarray,
        symbol_rate: float,
        extend: str = EXTEND_OFF,
    ) -> None:
        symbol_xyz = np.asarray(symbol_xyz, dtype=float)
        require(
            symbol_xyz.ndim == 2 and symbol_xyz.shape[1] == 3,
            f"symbol_xyz must be (N, 3), got {symbol_xyz.shape}",
        )
        require(symbol_xyz.shape[0] >= 1, "waveform needs at least one symbol")
        require_positive(symbol_rate, "symbol_rate")
        if extend not in (EXTEND_OFF, EXTEND_CYCLE):
            raise ConfigurationError(
                f"extend must be '{EXTEND_OFF}' or '{EXTEND_CYCLE}', got {extend!r}"
            )
        self._xyz = symbol_xyz
        self.symbol_rate = float(symbol_rate)
        self.symbol_period = 1.0 / self.symbol_rate
        self.extend = extend
        # Cumulative integral at symbol boundaries: C[j] = integral 0..j*T.
        self._cumulative = np.vstack(
            [np.zeros(3), np.cumsum(symbol_xyz * self.symbol_period, axis=0)]
        )

    @property
    def num_symbols(self) -> int:
        return self._xyz.shape[0]

    @property
    def duration(self) -> float:
        """Length of one pass of the stream, in seconds."""
        return self.num_symbols * self.symbol_period

    @property
    def symbol_xyz(self) -> np.ndarray:
        """Per-symbol emission, ``(N, 3)`` (read-only copy)."""
        return self._xyz.copy()

    # -- sampling ------------------------------------------------------------

    def symbol_index_at(self, times: np.ndarray) -> np.ndarray:
        """Index of the symbol on air at each time (cyclic or clamped to OFF=-1)."""
        times = np.asarray(times, dtype=float)
        if self.extend == EXTEND_CYCLE:
            wrapped = np.mod(times, self.duration)
            return np.minimum(
                (wrapped / self.symbol_period).astype(int), self.num_symbols - 1
            )
        indices = np.floor(times / self.symbol_period).astype(int)
        outside = (times < 0) | (indices >= self.num_symbols)
        return np.where(outside, -1, np.clip(indices, 0, self.num_symbols - 1))

    # -- integration ---------------------------------------------------------

    def _cumulative_at(self, times: np.ndarray) -> np.ndarray:
        """The running integral of XYZ from t=0 to each time (single pass)."""
        clamped = np.clip(times, 0.0, self.duration)
        indices = np.minimum(
            (clamped / self.symbol_period).astype(int), self.num_symbols - 1
        )
        base = self._cumulative[indices]
        partial = (clamped - indices * self.symbol_period)[..., np.newaxis]
        return base + self._xyz[indices] * partial

    def integrate(self, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """Integral of emitted XYZ over each [start, stop) window.

        ``start`` and ``stop`` broadcast together; the result has their
        broadcast shape plus a trailing 3.  For cyclic waveforms the integral
        accounts for whole-stream wraps analytically.
        """
        start = np.asarray(start, dtype=float)
        stop = np.asarray(stop, dtype=float)
        start, stop = np.broadcast_arrays(start, stop)
        if np.any(stop < start):
            raise ConfigurationError("integration windows must have stop >= start")

        if self.extend == EXTEND_CYCLE:
            total = self._cumulative[-1]
            laps_start, rem_start = np.divmod(start, self.duration)
            laps_stop, rem_stop = np.divmod(stop, self.duration)
            integral = (
                (laps_stop - laps_start)[..., np.newaxis] * total
                + self._cumulative_at(rem_stop)
                - self._cumulative_at(rem_start)
            )
            return integral

        return self._cumulative_at(stop) - self._cumulative_at(start)

    def mean_xyz(self, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """Time-averaged XYZ over each window — the camera's exposure view."""
        start = np.asarray(start, dtype=float)
        stop = np.asarray(stop, dtype=float)
        start, stop = np.broadcast_arrays(start, stop)
        width = stop - start
        if np.any(width <= 0):
            raise ConfigurationError("mean_xyz windows must have positive width")
        return self.integrate(start, stop) / width[..., np.newaxis]

    # -- composition ---------------------------------------------------------

    @classmethod
    def concatenate(
        cls, waveforms: Sequence["OpticalWaveform"], extend: str = EXTEND_OFF
    ) -> "OpticalWaveform":
        """Join waveforms that share a symbol rate into one stream."""
        require(len(waveforms) >= 1, "need at least one waveform")
        rate = waveforms[0].symbol_rate
        for wf in waveforms[1:]:
            if abs(wf.symbol_rate - rate) > 1e-9:
                raise ConfigurationError(
                    "cannot concatenate waveforms with different symbol rates"
                )
        stacked = np.vstack([wf.symbol_xyz for wf in waveforms])
        return cls(stacked, rate, extend=extend)
