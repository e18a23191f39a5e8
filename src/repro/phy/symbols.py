"""Logical transmission symbols.

ColorBars transmits three kinds of symbols (paper §4-§5):

* **DATA** — a constellation point carrying ``log2(M)`` bits,
* **WHITE** ("w") — an illumination symbol at the white point; also used in
  the packet flag and delimiter sequences,
* **OFF** ("o") — the LED dark symbol used in delimiters and flags, trivially
  distinguishable from every data color.

The packet layer works entirely in these logical symbols; the constellation
and LED model translate them into light.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from repro.exceptions import ModulationError


class SymbolKind(Enum):
    """The three on-air symbol classes."""

    DATA = "data"
    WHITE = "white"
    OFF = "off"

    def __repr__(self) -> str:
        return f"SymbolKind.{self.name}"


@dataclass(frozen=True)
class LogicalSymbol:
    """One on-air symbol: a kind plus, for DATA, its constellation index."""

    kind: SymbolKind
    index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is SymbolKind.DATA:
            if self.index is None or self.index < 0:
                raise ModulationError(
                    f"DATA symbols need a non-negative index, got {self.index!r}"
                )
        elif self.index is not None:
            raise ModulationError(
                f"{self.kind.name} symbols must not carry an index"
            )

    @property
    def is_white(self) -> bool:
        return self.kind is SymbolKind.WHITE

    @property
    def is_off(self) -> bool:
        return self.kind is SymbolKind.OFF

    def to_char(self) -> str:
        """Compact notation: 'o', 'w', or the decimal index for data."""
        if self.is_off:
            return "o"
        if self.is_white:
            return "w"
        return str(self.index)

    def __repr__(self) -> str:
        return f"LogicalSymbol({self.to_char()!r})"


def data_symbol(index: int) -> LogicalSymbol:
    """A DATA symbol pointing at constellation entry ``index``."""
    return LogicalSymbol(SymbolKind.DATA, index)


def white_symbol() -> LogicalSymbol:
    """The illumination / flag symbol 'w'."""
    return LogicalSymbol(SymbolKind.WHITE)


def off_symbol() -> LogicalSymbol:
    """The dark delimiter symbol 'o'."""
    return LogicalSymbol(SymbolKind.OFF)


def symbols_from_string(spec: str) -> List[LogicalSymbol]:
    """Parse compact notation: 'o' / 'w' characters only (flags, delimiters).

    >>> [s.to_char() for s in symbols_from_string("owo")]
    ['o', 'w', 'o']
    """
    out: List[LogicalSymbol] = []
    for char in spec:
        if char == "o":
            out.append(off_symbol())
        elif char == "w":
            out.append(white_symbol())
        else:
            raise ModulationError(
                f"symbol string may contain only 'o' and 'w', got {char!r}"
            )
    return out
