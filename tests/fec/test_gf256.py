"""Unit and property tests for GF(2^8) arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import GaloisFieldError
from repro.fec.gf256 import GF256

element = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestFieldAxioms:
    @given(element, element)
    def test_addition_commutative(self, a, b):
        assert GF256.add(a, b) == GF256.add(b, a)

    @given(element)
    def test_addition_self_inverse(self, a):
        assert GF256.add(a, a) == 0

    @given(element, element)
    def test_multiplication_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(element, element, element)
    def test_multiplication_associative(self, a, b, c):
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))

    @given(element, element, element)
    def test_distributive(self, a, b, c):
        left = GF256.mul(a, GF256.add(b, c))
        right = GF256.add(GF256.mul(a, b), GF256.mul(a, c))
        assert left == right

    @given(element)
    def test_multiplicative_identity(self, a):
        assert GF256.mul(a, 1) == a

    @given(element)
    def test_zero_annihilates(self, a):
        assert GF256.mul(a, 0) == 0


class TestInverseDivision:
    def test_every_nonzero_has_inverse(self):
        # Division subtracts logs: alpha^(-log a) is a's inverse.
        for a in range(1, 256):
            assert GF256.mul(a, GF256.exp(-GF256.log(a))) == 1


class TestPowLog:
    def test_generator_order(self):
        # alpha = 2 generates the multiplicative group: 255 distinct powers.
        powers = {GF256.exp(i) for i in range(255)}
        assert len(powers) == 255
        assert 0 not in powers

    @given(nonzero)
    def test_log_exp_roundtrip(self, a):
        assert GF256.exp(GF256.log(a)) == a

    def test_log_zero_raises(self):
        with pytest.raises(GaloisFieldError):
            GF256.log(0)


class TestDotAndValidation:
    @pytest.mark.parametrize("bad", [-1, 256, 1.5, "a"])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(GaloisFieldError):
            GF256.mul(bad, 1)
