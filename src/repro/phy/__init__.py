"""Transmitter physical layer: logical symbols, PWM, tri-LED, optical waveform.

This is the simulation substitute for the paper's BeagleBone Black + RGB
tri-LED transmitter.  The modulation stack produces a stream of
:class:`~repro.phy.symbols.LogicalSymbol`; the tri-LED model turns each into
emitted CIE XYZ light via PWM duty cycles; the resulting piecewise-constant
:class:`~repro.phy.waveform.OpticalWaveform` is what the camera simulator
integrates per scanline.
"""

from repro.phy.led import LedPrimary, TriLedEmitter, typical_tri_led
from repro.phy.pwm import PwmChannel, PwmController
from repro.phy.symbols import (
    LogicalSymbol,
    SymbolKind,
    data_symbol,
    off_symbol,
    white_symbol,
)
from repro.phy.waveform import OpticalWaveform

__all__ = [
    "LedPrimary",
    "TriLedEmitter",
    "typical_tri_led",
    "PwmChannel",
    "PwmController",
    "LogicalSymbol",
    "SymbolKind",
    "data_symbol",
    "off_symbol",
    "white_symbol",
    "OpticalWaveform",
]
