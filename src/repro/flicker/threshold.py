"""The white-symbol requirement model behind Fig 3(b).

Random data symbols averaged over a critical duration drift away from white;
the drift shrinks as more symbols fit into the window (central-limit
averaging), so higher symbol frequencies need fewer dedicated white symbols.
The paper measured the minimum white percentage with 10 volunteers; here the
same curve is *derived* from the Bloch model:

with ``n = f * t_c`` random symbols per critical window, the chromaticity of
the window mean deviates from white with standard deviation
``sigma_c / sqrt(n)`` where ``sigma_c`` is the constellation's own xy spread.
A fraction ``w`` of dedicated whites scales the deviation by ``(1 - w)``.
The perception limit requires the high-quantile excursion to stay below the
chromaticity JND, giving::

    w(f) = max(0, 1 - threshold * sqrt(f * t_c) / (z * sigma_c))

— a monotone-decreasing curve matching the shape and operating points of the
paper's empirical Fig 3(b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.csk.constellation import Constellation
from repro.flicker.bloch import BLOCH_CRITICAL_DURATION_S
from repro.util.validation import require_positive

#: Chromaticity-plane distance (CIE xy) at which a color cast on a white
#: luminaire becomes noticeable.  Comparable to a several-step MacAdam
#: ellipse; calibrated so the model lands on the paper's operating points:
#: ~20% white symbols suffice at 4 kHz (the §5 example's illumination ratio
#: of 4/5) while ~70-80% are needed at 500 Hz, matching Fig 3(b)'s shape.
XY_FLICKER_THRESHOLD = 0.0294

#: High quantile of the excursion distribution that must stay sub-threshold
#: (the paper's "minimum percentage observed by 10 volunteers" is a
#: worst-observer criterion, i.e. a high quantile, not the mean).
EXCURSION_QUANTILE_Z = 2.6

#: RMS xy spread of "a randomly chosen color from the constellation
#: triangle" — the stimulus of the paper's Fig 3(b) experiment.  The paper
#: derives ONE white-ratio curve from that experiment and applies it to
#: every modulation, so the system default uses this reference spread
#: rather than a per-constellation value.
REFERENCE_CHROMA_SPREAD = 0.22


def constellation_chroma_spread(constellation: Constellation) -> float:
    """RMS xy distance of constellation symbols from their white mean."""
    points = constellation.as_array()
    mean = points.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum((points - mean) ** 2, axis=1))))


def required_white_fraction(
    symbol_rate: float,
    chroma_spread: float,
    critical_duration: float = BLOCH_CRITICAL_DURATION_S,
    threshold: float = XY_FLICKER_THRESHOLD,
    quantile_z: float = EXCURSION_QUANTILE_Z,
) -> float:
    """Minimum white-symbol fraction for flicker-free operation at a rate."""
    require_positive(symbol_rate, "symbol_rate")
    require_positive(chroma_spread, "chroma_spread")
    require_positive(critical_duration, "critical_duration")
    symbols_per_window = symbol_rate * critical_duration
    if symbols_per_window < 1:
        # Individual symbols are directly visible: communication at this rate
        # cannot be made flicker-free with white insertion alone.
        return 1.0
    deviation = quantile_z * chroma_spread / np.sqrt(symbols_per_window)
    if deviation <= threshold:
        return 0.0
    return float(min(1.0, 1.0 - threshold / deviation))


@dataclass
class FlickerModel:
    """Bundles the perceptual constants with a constellation's spread.

    The transmitter asks this model how many illumination symbols it must
    mix in at its operating symbol rate; the benches sweep it across rates to
    regenerate Fig 3(b).
    """

    chroma_spread: float
    critical_duration: float = BLOCH_CRITICAL_DURATION_S
    threshold: float = XY_FLICKER_THRESHOLD
    quantile_z: float = EXCURSION_QUANTILE_Z

    @classmethod
    def for_constellation(cls, constellation: Constellation) -> "FlickerModel":
        """Model tailored to one constellation's own chroma spread."""
        return cls(chroma_spread=constellation_chroma_spread(constellation))

    @classmethod
    def reference(cls) -> "FlickerModel":
        """The paper's single Fig 3(b) curve: random colors in the triangle.

        Used for the system's illumination-ratio choice so every modulation
        shares one eta(rate), as the paper's evaluation does.
        """
        return cls(chroma_spread=REFERENCE_CHROMA_SPREAD)

    def required_white_fraction(self, symbol_rate: float) -> float:
        return required_white_fraction(
            symbol_rate,
            self.chroma_spread,
            self.critical_duration,
            self.threshold,
            self.quantile_z,
        )

    def illumination_ratio(self, symbol_rate: float, margin: float = 0.0) -> float:
        """The packetizer's eta: the data share after reserving whites.

        ``margin`` adds extra whites beyond the perceptual minimum.  The
        result is clamped to [0.05, 1] so a pathological configuration still
        yields a usable (if slow) link rather than a zero-data packet.
        """
        white = min(1.0, self.required_white_fraction(symbol_rate) + margin)
        return float(np.clip(1.0 - white, 0.05, 1.0))
