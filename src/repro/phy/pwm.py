"""Pulse-width-modulation model of the transmitter's LED driver.

The paper drives each LED of the tri-LED with a BeagleBone PWM channel; the
average optical power of a primary is proportional to its duty cycle (§2.2).
This module models the two artifacts that matter at symbol rates:

* **duty-cycle quantization** — the PWM compare register has finite
  resolution, so the commanded duty is rounded to 1/2^bits steps,
* **a maximum color-update rate** — the paper measured the BeagleBone able to
  change colors at < 4500 Hz; pushing symbols faster than the controller can
  reprogram the channels is a configuration error, not a channel impairment.

The PWM carrier itself (tens of kHz) is far above any camera exposure window,
so its average — not its switching waveform — is what the optics integrate:
the quantized duty cycle itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.util.validation import require, require_in_range, require_positive

#: The color-change rate limit the paper measured on the BeagleBone Black.
BEAGLEBONE_MAX_UPDATE_HZ = 4500.0


@dataclass
class PwmChannel:
    """One PWM output driving a single LED primary.

    ``resolution_bits`` controls quantization; the BeagleBone's eHRPWM
    modules offer 16-bit compare registers, but 12 bits is a realistic
    effective resolution once period granularity is accounted for.
    """

    resolution_bits: int = 12

    def __post_init__(self) -> None:
        require(
            1 <= self.resolution_bits <= 24,
            f"resolution_bits must be in [1, 24], got {self.resolution_bits}",
        )
        self._levels = 1 << self.resolution_bits

    def quantize(self, duty: float) -> float:
        """The duty cycle the compare register actually applies."""
        require_in_range(duty, "duty", 0.0, 1.0)
        steps = round(duty * (self._levels - 1))
        return steps / (self._levels - 1)


class PwmController:
    """Three PWM channels plus the update-rate constraint of the controller.

    Mirrors the transmitter's PWM module in Fig. 2(b): one channel per LED
    primary, reprogrammed once per symbol.
    """

    def __init__(
        self,
        resolution_bits: int = 12,
        max_update_hz: float = BEAGLEBONE_MAX_UPDATE_HZ,
    ) -> None:
        require_positive(max_update_hz, "max_update_hz")
        self.max_update_hz = max_update_hz
        self.channels: Tuple[PwmChannel, PwmChannel, PwmChannel] = (
            PwmChannel(resolution_bits),
            PwmChannel(resolution_bits),
            PwmChannel(resolution_bits),
        )

    def check_symbol_rate(self, symbol_rate: float) -> None:
        """Reject symbol rates the controller cannot reprogram in time."""
        require_positive(symbol_rate, "symbol_rate")
        if symbol_rate > self.max_update_hz:
            raise ConfigurationError(
                f"symbol rate {symbol_rate} Hz exceeds the controller's "
                f"maximum color-update rate {self.max_update_hz} Hz"
            )

    def quantize_duties(self, duties: Sequence[float]) -> List[float]:
        """Quantize a duty triple, one channel per primary."""
        require(len(duties) == 3, f"need 3 duty cycles, got {len(duties)}")
        return [ch.quantize(d) for ch, d in zip(self.channels, duties)]
