"""The Galois field GF(2^8).

Elements are integers 0..255.  Multiplication is carried out with log/antilog
tables built over the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D),
generated by alpha = 2.  The tables are module-level singletons: building them
once keeps symbol-rate encoding fast without any third-party dependency.
"""

from __future__ import annotations

from repro.exceptions import GaloisFieldError

#: The primitive polynomial for table generation (x^8+x^4+x^3+x^2+1).
PRIMITIVE_POLY = 0x11D

#: Field size and multiplicative-group order.
FIELD_SIZE = 256
GROUP_ORDER = 255


def _build_tables() -> tuple:
    exp = [0] * (GROUP_ORDER * 2)
    log = [0] * FIELD_SIZE
    value = 1
    for power in range(GROUP_ORDER):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    # Duplicate so exp[(a+b)] never needs a modulo for a, b < 255.
    for power in range(GROUP_ORDER, GROUP_ORDER * 2):
        exp[power] = exp[power - GROUP_ORDER]
    return exp, log


#: Antilog and log tables.  The polynomial and decoder inner loops in this
#: package index them directly, on operands that are field elements by
#: construction; everything else goes through :class:`GF256`'s checks.
_EXP, _LOG = _build_tables()


class GF256:
    """Namespace of GF(2^8) field operations on plain ints.

    All methods are static; the class exists so call sites read as
    ``GF256.mul(a, b)`` and so the field parameters travel together.
    """

    primitive_poly = PRIMITIVE_POLY
    size = FIELD_SIZE
    order = GROUP_ORDER

    @staticmethod
    def _check(value: int, name: str = "operand") -> int:
        if not isinstance(value, int) or not 0 <= value < FIELD_SIZE:
            raise GaloisFieldError(f"{name} must be an int in [0, 255], got {value!r}")
        return value

    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition — XOR in characteristic 2."""
        GF256._check(a)
        GF256._check(b)
        return a ^ b

    #: Subtraction is identical to addition in GF(2^8).
    sub = add

    @staticmethod
    def mul(a: int, b: int) -> int:
        """Field multiplication via log/antilog tables."""
        GF256._check(a)
        GF256._check(b)
        if a == 0 or b == 0:
            return 0
        return _EXP[_LOG[a] + _LOG[b]]

    @staticmethod
    def exp(power: int) -> int:
        """alpha^power for the generator alpha = 2."""
        return _EXP[power % GROUP_ORDER]

    @staticmethod
    def log(value: int) -> int:
        """Discrete log base alpha; raises for zero."""
        GF256._check(value)
        if value == 0:
            raise GaloisFieldError("log(0) is undefined in GF(2^8)")
        return _LOG[value]
