"""Unit and property tests for bit <-> symbol mapping."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.csk.constellation import design_constellation
from repro.csk.mapping import SymbolMapper, neighbor_aware_assignment
from repro.exceptions import ModulationError
from repro.util.bitstream import int_to_bits


def _bits_of(mapper, symbols):
    """The receiver's inverse: each symbol's bit label, MSB-first."""
    bits = []
    for symbol in symbols:
        bits += int_to_bits(mapper.label_of_index(symbol.index), mapper.bits_per_symbol)
    return bits


class TestRoundTrip:
    def test_exact_roundtrip(self, mapper8):
        bits = [1, 0, 1, 0, 0, 1, 1, 1, 0]
        symbols = mapper8.bits_to_symbols(bits)
        assert _bits_of(mapper8, symbols) == bits

    def test_padding_on_partial_group(self, mapper8):
        symbols = mapper8.bits_to_symbols([1, 0])  # 2 bits -> one 3-bit group
        assert len(symbols) == 1
        assert _bits_of(mapper8, symbols) == [1, 0, 0]

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=60))
    def test_roundtrip_property(self, bits):
        gamut = design_constellation(8, _gamut()).gamut
        mapper = SymbolMapper(design_constellation(8, gamut))
        usable = bits[: len(bits) - len(bits) % 3]
        if not usable:
            return
        assert _bits_of(mapper, mapper.bits_to_symbols(usable)) == usable

    def test_all_orders_roundtrip(self, gamut):
        rng = np.random.default_rng(5)
        for order in (4, 8, 16, 32):
            mapper = SymbolMapper(design_constellation(order, gamut))
            width = mapper.bits_per_symbol
            bits = rng.integers(0, 2, width * 20).tolist()
            assert _bits_of(mapper, mapper.bits_to_symbols(bits)) == bits


class TestValidation:
    def test_label_lookup_bounds(self, mapper8):
        with pytest.raises(ModulationError):
            mapper8.label_of_index(8)

    def test_symbols_for_payload(self, mapper8):
        assert mapper8.symbols_for_payload(9) == 3
        assert mapper8.symbols_for_payload(10) == 4
        assert mapper8.symbols_for_payload(0) == 0

    def test_symbols_for_payload_negative(self, mapper8):
        with pytest.raises(ModulationError):
            mapper8.symbols_for_payload(-1)


class TestLabeling:
    def test_assignment_is_permutation(self, gamut):
        for order in (4, 8, 16, 32):
            constellation = design_constellation(order, gamut)
            labels = neighbor_aware_assignment(constellation)
            assert sorted(labels) == list(range(order))

    def test_label_index_inverse(self, mapper8):
        for index in range(8):
            label = mapper8.label_of_index(index)
            assert mapper8.bits_to_symbols(int_to_bits(label, 3))[0].index == index

    def test_gray_reduces_neighbor_hamming(self, gamut):
        """Neighbor-aware labels beat identity on nearest-neighbor bit flips."""
        constellation = design_constellation(16, gamut)
        points = constellation.as_array()

        def neighbor_cost(labels):
            cost = 0
            for i in range(len(points)):
                distances = np.hypot(
                    points[:, 0] - points[i, 0], points[:, 1] - points[i, 1]
                )
                distances[i] = np.inf
                nearest = int(np.argmin(distances))
                cost += bin(labels[i] ^ labels[nearest]).count("1")
            return cost

        gray = neighbor_cost(neighbor_aware_assignment(constellation))
        identity = neighbor_cost(list(range(16)))
        assert gray <= identity

    def test_identity_mapping_option(self, constellation8):
        mapper = SymbolMapper(constellation8, gray=False)
        for index in range(8):
            assert mapper.label_of_index(index) == index


def _gamut():
    from repro.phy.led import typical_tri_led

    return typical_tri_led().gamut
