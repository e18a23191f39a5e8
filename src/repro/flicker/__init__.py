"""Color-flicker modelling (paper §4).

The human visual system averages incoming light over a *critical duration*
(Bloch's law of temporal summation); below the flicker-fusion threshold,
chromaticity excursions of the averaged stimulus are perceived as color
flicker.  This package models the perceived color of a symbol stream and
derives the minimum white-symbol percentage that keeps perception at white —
the simulation substitute for the paper's 10-volunteer study behind Fig 3(b).
"""

from repro.flicker.bloch import (
    BLOCH_CRITICAL_DURATION_S,
    perceived_chromaticity_series,
)
from repro.flicker.threshold import (
    FlickerModel,
    required_white_fraction,
)

__all__ = [
    "BLOCH_CRITICAL_DURATION_S",
    "perceived_chromaticity_series",
    "FlickerModel",
    "required_white_fraction",
]
