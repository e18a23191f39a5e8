"""Unit tests for logical symbols."""

import pytest

from repro.exceptions import ModulationError
from repro.phy.symbols import (
    LogicalSymbol,
    SymbolKind,
    data_symbol,
    off_symbol,
    symbols_from_string,
    white_symbol,
)


class TestConstruction:
    def test_data_symbol(self):
        s = data_symbol(3)
        assert s.kind is SymbolKind.DATA and s.index == 3

    def test_white_symbol(self):
        s = white_symbol()
        assert s.is_white and s.index is None

    def test_off_symbol(self):
        s = off_symbol()
        assert s.is_off

    def test_data_requires_index(self):
        with pytest.raises(ModulationError):
            LogicalSymbol(SymbolKind.DATA)

    def test_data_rejects_negative_index(self):
        with pytest.raises(ModulationError):
            LogicalSymbol(SymbolKind.DATA, -1)

    def test_white_rejects_index(self):
        with pytest.raises(ModulationError):
            LogicalSymbol(SymbolKind.WHITE, 0)

    def test_frozen_and_hashable(self):
        assert data_symbol(2) == data_symbol(2)
        assert len({data_symbol(2), data_symbol(2), off_symbol()}) == 2


class TestNotation:
    def test_to_char(self):
        assert off_symbol().to_char() == "o"
        assert white_symbol().to_char() == "w"
        assert data_symbol(12).to_char() == "12"

    def test_symbols_from_string(self):
        symbols = symbols_from_string("owo")
        assert [s.to_char() for s in symbols] == ["o", "w", "o"]

    def test_symbols_from_string_rejects_data(self):
        with pytest.raises(ModulationError):
            symbols_from_string("ow3")

