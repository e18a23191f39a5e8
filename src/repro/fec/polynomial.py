"""Dense polynomials over GF(2^8).

Coefficients are stored highest-degree first (``coeffs[0]`` multiplies the
highest power), matching the conventional presentation of Reed-Solomon
generator polynomials.  The class is immutable: every operation returns a new
polynomial, which keeps the decoder logic easy to reason about.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.exceptions import GaloisFieldError
from repro.fec.gf256 import _EXP, _LOG, GF256


class GFPolynomial:
    """An immutable polynomial with coefficients in GF(2^8)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[int]) -> None:
        normalized = list(coeffs)
        for c in normalized:
            GF256._check(c, "coefficient")
        self._coeffs: Tuple[int, ...] = _strip(normalized)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of_field_elements(cls, coeffs: List[int]) -> "GFPolynomial":
        """Build from coefficients that are field elements by construction.

        The results of field operations on valid polynomials need no
        per-coefficient re-check; only the public constructor validates.
        """
        poly = cls.__new__(cls)
        poly._coeffs = _strip(coeffs)
        return poly

    @classmethod
    def zero(cls) -> "GFPolynomial":
        return cls([0])

    @classmethod
    def one(cls) -> "GFPolynomial":
        return cls([1])

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[int, ...]:
        """Coefficients, highest degree first."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree 0."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return self._coeffs == (0,)

    def coefficient(self, degree: int) -> int:
        """Coefficient of ``x^degree`` (0 beyond the stored degree)."""
        if degree < 0:
            raise GaloisFieldError(f"degree must be non-negative, got {degree}")
        if degree > self.degree:
            return 0
        return self._coeffs[self.degree - degree]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "GFPolynomial") -> "GFPolynomial":
        longer, shorter = self._coeffs, other._coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        result = list(longer)
        offset = len(longer) - len(shorter)
        for i, c in enumerate(shorter):
            result[offset + i] ^= c
        return GFPolynomial._of_field_elements(result)

    #: Subtraction equals addition in characteristic 2.
    __sub__ = __add__

    def __mul__(self, other: "GFPolynomial") -> "GFPolynomial":
        if self.is_zero() or other.is_zero():
            return GFPolynomial.zero()
        result = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            log_a = _LOG[a]
            for j, b in enumerate(other._coeffs):
                if b:
                    result[i + j] ^= _EXP[log_a + _LOG[b]]
        return GFPolynomial._of_field_elements(result)

    def scale(self, scalar: int) -> "GFPolynomial":
        """Multiply every coefficient by a field scalar."""
        GF256._check(scalar, "scalar")
        if scalar == 0:
            return GFPolynomial.zero()
        log_s = _LOG[scalar]
        return GFPolynomial._of_field_elements(
            [_EXP[_LOG[c] + log_s] if c else 0 for c in self._coeffs]
        )

    def shift(self, degree: int) -> "GFPolynomial":
        """Multiply by ``x^degree``."""
        if degree < 0:
            raise GaloisFieldError(f"shift degree must be non-negative, got {degree}")
        if self.is_zero():
            return GFPolynomial.zero()
        return GFPolynomial._of_field_elements(list(self._coeffs) + [0] * degree)

    def divmod(self, divisor: "GFPolynomial") -> Tuple["GFPolynomial", "GFPolynomial"]:
        """Quotient and remainder of polynomial long division."""
        if divisor.is_zero():
            raise GaloisFieldError("polynomial division by zero")
        if self.degree < divisor.degree:
            return GFPolynomial.zero(), self
        remainder = list(self._coeffs)
        quotient = [0] * (self.degree - divisor.degree + 1)
        log_lead = _LOG[divisor._coeffs[0]]
        divisor_logs = [(j, _LOG[d]) for j, d in enumerate(divisor._coeffs) if d]
        for i in range(len(quotient)):
            coef = remainder[i]
            if coef == 0:
                continue
            log_factor = (_LOG[coef] - log_lead) % GF256.order
            quotient[i] = _EXP[log_factor]
            for j, log_d in divisor_logs:
                remainder[i + j] ^= _EXP[log_factor + log_d]
        tail = remainder[len(quotient):]
        return (
            GFPolynomial._of_field_elements(quotient),
            GFPolynomial._of_field_elements(tail or [0]),
        )

    def __mod__(self, divisor: "GFPolynomial") -> "GFPolynomial":
        return self.divmod(divisor)[1]

    def __floordiv__(self, divisor: "GFPolynomial") -> "GFPolynomial":
        return self.divmod(divisor)[0]

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: int) -> int:
        """Evaluate at a field element using Horner's rule."""
        GF256._check(point, "evaluation point")
        if point == 0:
            return self._coeffs[-1]
        log_point = _LOG[point]
        acc = 0
        for c in self._coeffs:
            acc = (_EXP[_LOG[acc] + log_point] if acc else 0) ^ c
        return acc

    def derivative(self) -> "GFPolynomial":
        """Formal derivative: odd-power terms survive in characteristic 2."""
        if self.degree == 0:
            return GFPolynomial.zero()
        out: List[int] = []
        for power in range(self.degree, 0, -1):
            c = self.coefficient(power)
            out.append(c if power % 2 == 1 else 0)
        return GFPolynomial._of_field_elements(out or [0])

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GFPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GFPolynomial({list(self._coeffs)})"


def _strip(coeffs: List[int]) -> Tuple[int, ...]:
    """Coefficients without leading zeros, keeping at least one."""
    index = 0
    while index < len(coeffs) - 1 and coeffs[index] == 0:
        index += 1
    return tuple(coeffs[index:]) or (0,)
