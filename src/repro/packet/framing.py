"""Preamble sequences: the delimiter and the data and calibration flags.

The delimiter and flags are built from OFF ('o') and WHITE ('w') symbols
only, so a receiver can spot packet boundaries before it has any color
calibration (paper §6.2: the calibration flag's o/w alternation lets a new
receiver latch onto the very first calibration packet).

This module only defines the sequences.  Detection lives in the receiver:
:class:`repro.rx.assembler.PreambleScanner` matches them on the dark/lit
skeleton of the received bands (a lit band matches a preamble's 'w'
whatever color it decoded as), trying the calibration flag before the data
flag it extends, and :class:`repro.rx.assembler.PacketFold` runs that scan
as frames arrive.
"""

from __future__ import annotations

from enum import Enum
from typing import List

from repro.phy.symbols import LogicalSymbol, symbols_from_string

#: Inter-packet delimiter (paper §5: "owo" with OFF and WHITE symbols).
DELIMITER = "owo"

#: Data-packet flag (paper §5: five symbols "owowo").
DATA_FLAG = "owowo"

#: Calibration-packet flag (paper §6.2: "owowowo").
CALIBRATION_FLAG = "owowowo"


class PacketKind(Enum):
    """Kinds of on-air packets."""

    DATA = "data"
    CALIBRATION = "calibration"


_FLAG_OF_KIND = {
    PacketKind.DATA: DATA_FLAG,
    PacketKind.CALIBRATION: CALIBRATION_FLAG,
}


def flag_for(kind: PacketKind) -> str:
    """The o/w flag string for a packet kind."""
    return _FLAG_OF_KIND[kind]


def preamble_symbols(kind: PacketKind) -> List[LogicalSymbol]:
    """Delimiter + flag as logical symbols, ready for transmission."""
    return symbols_from_string(DELIMITER + flag_for(kind))
