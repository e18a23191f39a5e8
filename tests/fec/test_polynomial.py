"""Unit and property tests for polynomials over GF(2^8)."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import GaloisFieldError
from repro.fec.gf256 import GF256
from repro.fec.polynomial import GFPolynomial

coeff_lists = st.lists(
    st.integers(min_value=0, max_value=255), min_size=1, max_size=12
)


class TestConstruction:
    def test_leading_zeros_stripped(self):
        assert GFPolynomial([0, 0, 3, 1]).coeffs == (3, 1)

    def test_zero_polynomial(self):
        assert GFPolynomial([0, 0]).is_zero()
        assert GFPolynomial.zero().degree == 0

    def test_bad_coefficient_rejected(self):
        with pytest.raises(GaloisFieldError):
            GFPolynomial([256])


class TestArithmetic:
    @given(coeff_lists, coeff_lists)
    def test_addition_commutative(self, a, b):
        pa, pb = GFPolynomial(a), GFPolynomial(b)
        assert pa + pb == pb + pa

    @given(coeff_lists)
    def test_addition_self_cancels(self, a):
        pa = GFPolynomial(a)
        assert (pa + pa).is_zero()

    @given(coeff_lists, coeff_lists)
    def test_multiplication_commutative(self, a, b):
        pa, pb = GFPolynomial(a), GFPolynomial(b)
        assert pa * pb == pb * pa

    @given(coeff_lists)
    def test_multiply_by_one(self, a):
        pa = GFPolynomial(a)
        assert pa * GFPolynomial.one() == pa

    @given(coeff_lists)
    def test_multiply_by_zero(self, a):
        assert (GFPolynomial(a) * GFPolynomial.zero()).is_zero()

    def test_degree_of_product(self):
        pa = GFPolynomial([1, 0, 0])  # x^2
        pb = GFPolynomial([1, 0])  # x
        assert (pa * pb).degree == 3

    def test_scale(self):
        poly = GFPolynomial([2, 4]).scale(3)
        assert poly.coeffs == (GF256.mul(2, 3), GF256.mul(4, 3))

    def test_shift(self):
        assert GFPolynomial([1]).shift(2) == GFPolynomial([1, 0, 0])

    def test_shift_zero_stays_zero(self):
        assert GFPolynomial.zero().shift(5).is_zero()


class TestDivision:
    @given(coeff_lists, coeff_lists)
    def test_divmod_identity(self, a, b):
        pa, pb = GFPolynomial(a), GFPolynomial(b)
        if pb.is_zero():
            return
        quotient, remainder = pa.divmod(pb)
        assert quotient * pb + remainder == pa
        assert remainder.is_zero() or remainder.degree < pb.degree

    def test_division_by_zero_raises(self):
        with pytest.raises(GaloisFieldError):
            GFPolynomial([1, 2]).divmod(GFPolynomial.zero())

    def test_mod_and_floordiv(self):
        pa = GFPolynomial([1, 0, 0, 0])  # x^3
        pb = GFPolynomial([1, 1])  # x + 1
        assert (pa // pb) * pb + (pa % pb) == pa


class TestEvaluation:
    def test_evaluate_constant(self):
        assert GFPolynomial([7]).evaluate(99) == 7

    def test_evaluate_at_zero_gives_constant_term(self):
        poly = GFPolynomial([3, 2, 1])
        assert poly.evaluate(0) == 1

    @given(coeff_lists, st.integers(min_value=0, max_value=255))
    def test_evaluation_is_ring_homomorphism(self, a, point):
        pa = GFPolynomial(a)
        pb = GFPolynomial([1, 5])
        product = pa * pb
        assert product.evaluate(point) == GF256.mul(
            pa.evaluate(point), pb.evaluate(point)
        )

    def test_derivative_char2(self):
        # d/dx (x^3 + x^2 + x + 1) = 3x^2 + 2x + 1 = x^2 + 1 in char 2.
        poly = GFPolynomial([1, 1, 1, 1])
        assert poly.derivative() == GFPolynomial([1, 0, 1])

    def test_derivative_of_constant(self):
        assert GFPolynomial([9]).derivative().is_zero()


class TestDunder:
    def test_equality_and_hash(self):
        assert GFPolynomial([0, 1, 2]) == GFPolynomial([1, 2])
        assert hash(GFPolynomial([1, 2])) == hash(GFPolynomial([0, 1, 2]))

    def test_inequality_with_other_types(self):
        assert GFPolynomial([1]) != "poly"
