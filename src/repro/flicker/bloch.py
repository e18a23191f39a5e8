"""Bloch's-law temporal summation of an optical waveform.

Within the eye's critical duration the perceived stimulus is the time
integral of intensity (paper Eq. 1); the perceived *color* is the
chromaticity of the time-averaged tristimulus over that window (paper
Eq. 2).  These functions evaluate that average over sliding windows of a
transmitted waveform so flicker analyses can find the worst-case excursion
from white.
"""

from __future__ import annotations

import numpy as np

from repro.color.ciexyz import XYZ_to_xy
from repro.exceptions import ConfigurationError
from repro.phy.waveform import OpticalWaveform
from repro.util.validation import require_positive

#: Critical duration of human temporal summation for photopic color vision.
#: The literature places it at roughly 40-100 ms; 50 ms also matches the
#: ~20 Hz flicker-fusion regime the paper's §4 operates in.
BLOCH_CRITICAL_DURATION_S = 0.05


def perceived_chromaticity_series(
    waveform: OpticalWaveform,
    critical_duration: float = BLOCH_CRITICAL_DURATION_S,
    step: float | None = None,
) -> np.ndarray:
    """Perceived chromaticity for every sliding window across a waveform.

    Windows advance by ``step`` (default: one symbol period) and must fit
    inside the waveform for non-cyclic streams.  Returns ``(W, 2)`` xy
    points — the stimulus trajectory the eye actually sees.
    """
    require_positive(critical_duration, "critical_duration")
    if step is None:
        step = waveform.symbol_period
    require_positive(step, "step")
    last_start = waveform.duration - critical_duration
    if last_start < 0:
        raise ConfigurationError(
            f"waveform of {waveform.duration:.4f}s is shorter than the "
            f"critical duration {critical_duration:.4f}s"
        )
    starts = np.arange(0.0, last_start + step / 2, step)
    stops = starts + critical_duration
    mean_xyz = waveform.mean_xyz(starts, stops)
    return XYZ_to_xy(mean_xyz)


def worst_case_excursion(
    waveform: OpticalWaveform,
    white_xy: np.ndarray,
    critical_duration: float = BLOCH_CRITICAL_DURATION_S,
    step: float | None = None,
) -> float:
    """Largest chromaticity distance from white over all perception windows."""
    series = perceived_chromaticity_series(waveform, critical_duration, step)
    white_xy = np.asarray(white_xy, dtype=float)
    distances = np.hypot(series[:, 0] - white_xy[0], series[:, 1] - white_xy[1])
    return float(distances.max())
