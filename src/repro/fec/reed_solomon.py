"""Systematic Reed-Solomon codec over GF(2^8) with errors-and-erasures decoding.

The codec operates on byte symbols.  ``ReedSolomonCodec(n, k)`` produces
codewords of ``n`` bytes carrying ``k`` data bytes and ``2t = n - k`` parity
bytes; it corrects up to ``t`` symbol errors, or any mix of ``e`` errors and
``f`` erasures with ``2e + f <= n - k``.  Shortened codes (n < 255) are
supported by the standard zero-prefix construction.

The decode path is the classical chain: syndromes -> erasure locator ->
Forney syndromes -> Berlekamp-Massey -> Chien search -> Forney magnitudes
-> residual-syndrome check.

ColorBars dimensions the code from the inter-frame loss ratio (paper §5);
:func:`rs_params_for_loss` implements that sizing rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ReedSolomonError, UncorrectableBlockError
from repro.fec.gf256 import _EXP, _LOG, GF256
from repro.fec.polynomial import GFPolynomial

#: Log/antilog tables as numpy arrays for the vectorized syndrome pass.
_EXP_TABLE = np.array([GF256.exp(p) for p in range(GF256.order)], dtype=np.uint8)
_EXP_TABLE.flags.writeable = False
_LOG_TABLE = np.array([0] + [GF256.log(v) for v in range(1, GF256.size)], dtype=np.int64)
_LOG_TABLE.flags.writeable = False


@dataclass(frozen=True)
class RSParams:
    """Reed-Solomon code dimensions and the channel assumptions behind them.

    Produced by :func:`rs_params_for_loss`; consumed by the transmitter to
    build a :class:`ReedSolomonCodec` matched to the receiver's inter-frame
    gap.
    """

    n: int
    k: int
    symbols_per_frame: int
    symbols_lost_per_gap: int

    @property
    def parity(self) -> int:
        return self.n - self.k

    @property
    def correctable_errors(self) -> int:
        return (self.n - self.k) // 2

    @property
    def code_rate(self) -> float:
        return self.k / self.n


def rs_params_for_loss(
    symbol_rate: float,
    frame_rate: float,
    loss_ratio: float,
    bits_per_symbol: int,
    illumination_ratio: float,
) -> RSParams:
    """Dimension an RS code per ColorBars §5.

    With symbol rate ``S``, frame rate ``F`` and inter-frame loss ratio ``l``:

    * symbols received per frame  ``FS = (1 - l) * S / F``
    * symbols lost per gap        ``LS = l * S / F``
    * codeword bits  ``n = eta * C * (FS + LS)``
    * data bits      ``k = eta * C * (FS - LS)``

    where ``eta`` is the illumination ratio (useful-data share of symbols) and
    ``C`` the bits per CSK symbol.  Bits are converted to whole bytes, with
    parity rounded up so the byte-level code still covers the gap.

    The paper's worked example (FS = 150, loss 1/6, 8-CSK, eta = 4/5) yields a
    36-byte message, which this function reproduces.
    """
    if symbol_rate <= 0 or frame_rate <= 0:
        raise ReedSolomonError("symbol_rate and frame_rate must be positive")
    if not 0 <= loss_ratio < 0.5:
        raise ReedSolomonError(
            f"loss_ratio must be in [0, 0.5) for a decodable RS sizing, "
            f"got {loss_ratio}"
        )
    if bits_per_symbol <= 0:
        raise ReedSolomonError("bits_per_symbol must be positive")
    if not 0 < illumination_ratio <= 1:
        raise ReedSolomonError("illumination_ratio must be in (0, 1]")

    symbols_per_period = symbol_rate / frame_rate
    fs = (1.0 - loss_ratio) * symbols_per_period
    ls = loss_ratio * symbols_per_period

    n_bits = illumination_ratio * bits_per_symbol * (fs + ls)
    k_bits = illumination_ratio * bits_per_symbol * (fs - ls)

    n_bytes = max(int(n_bits // 8), 3)
    k_bytes = max(int(k_bits // 8), 1)
    # Keep parity even (2t) and at least 2.
    parity = n_bytes - k_bytes
    if parity < 2:
        parity = 2
    if parity % 2:
        parity += 1
    n_bytes = k_bytes + parity
    if n_bytes > 255:
        # Shorten by scaling k down; the symbol alphabet caps n at 255.
        overshoot = n_bytes - 255
        k_bytes = max(k_bytes - overshoot, 1)
        n_bytes = k_bytes + parity
        if n_bytes > 255:
            raise ReedSolomonError(
                f"loss ratio {loss_ratio} at rate {symbol_rate} needs parity "
                f"{parity} > field limit"
            )
    return RSParams(
        n=n_bytes,
        k=k_bytes,
        symbols_per_frame=int(round(fs)),
        symbols_lost_per_gap=int(round(ls)),
    )


class ReedSolomonCodec:
    """Systematic RS(n, k) encoder/decoder over GF(2^8).

    >>> codec = ReedSolomonCodec(255, 223)
    >>> word = codec.encode(bytes(range(223)))
    >>> codec.decode(word) == bytes(range(223))
    True
    """

    #: First consecutive root exponent of the generator polynomial.
    FIRST_ROOT = 0

    def __init__(self, n: int, k: int) -> None:
        if not 0 < k < n <= 255:
            raise ReedSolomonError(
                f"invalid RS dimensions: need 0 < k < n <= 255, got n={n}, k={k}"
            )
        self.n = n
        self.k = k
        self.num_parity = n - k
        self.t = self.num_parity // 2
        self._generator = self._build_generator(self.num_parity)
        #: log X_p = n-1-p of each codeword position's error location.
        self._location_logs = np.arange(n - 1, -1, -1, dtype=np.int64)
        self._location_logs.flags.writeable = False
        #: (FIRST_ROOT + i) * log X_p: the syndrome exponent of a unit symbol.
        roots = np.arange(self.FIRST_ROOT, self.FIRST_ROOT + self.num_parity)
        self._syndrome_exponents = np.multiply.outer(roots, self._location_logs)
        self._syndrome_exponents.flags.writeable = False

    @staticmethod
    def _build_generator(num_parity: int) -> GFPolynomial:
        gen = GFPolynomial.one()
        for i in range(num_parity):
            root = GF256.exp(ReedSolomonCodec.FIRST_ROOT + i)
            gen = gen * GFPolynomial([1, root])
        return gen

    # -- encoding ----------------------------------------------------------

    def encode(self, data: bytes) -> bytes:
        """Append ``n - k`` parity bytes to exactly ``k`` data bytes."""
        if len(data) != self.k:
            raise ReedSolomonError(
                f"encode expects exactly k={self.k} bytes, got {len(data)}"
            )
        message = GFPolynomial(list(data) or [0])
        shifted = message.shift(self.num_parity)
        remainder = shifted % self._generator
        parity = list(remainder.coeffs)
        parity = [0] * (self.num_parity - len(parity)) + parity
        return bytes(data) + bytes(parity)

    def encode_blocks(self, data: bytes, pad: int = 0) -> List[bytes]:
        """Split arbitrary-length data into k-byte blocks and encode each.

        The final block is padded with ``pad`` bytes; callers carry the true
        length out of band (ColorBars puts it in the packet header).
        """
        blocks: List[bytes] = []
        for offset in range(0, max(len(data), 1), self.k):
            chunk = data[offset : offset + self.k]
            if len(chunk) < self.k:
                chunk = chunk + bytes([pad]) * (self.k - len(chunk))
            blocks.append(self.encode(chunk))
        return blocks

    # -- decoding ----------------------------------------------------------

    def decode(
        self,
        received: bytes,
        erasure_positions: Optional[Sequence[int]] = None,
    ) -> bytes:
        """Decode one codeword, correcting errors and the given erasures.

        ``erasure_positions`` are indices into ``received`` whose values are
        known to be unreliable (e.g. symbols lost in the inter-frame gap and
        filled with zeros).  Raises :class:`UncorrectableBlockError` when the
        errata exceed the code's capability.
        """
        if len(received) != self.n:
            raise ReedSolomonError(
                f"decode expects exactly n={self.n} bytes, got {len(received)}"
            )
        if not isinstance(received, (bytes, bytearray)):
            for symbol in received:
                if not isinstance(symbol, int) or not 0 <= symbol < GF256.size:
                    raise ReedSolomonError(
                        f"received symbols must be ints in [0, 255], got {symbol!r}"
                    )
        erasures = sorted(set(erasure_positions or ()))
        for pos in erasures:
            if not 0 <= pos < self.n:
                raise ReedSolomonError(
                    f"erasure position {pos} outside codeword of length {self.n}"
                )
        if len(erasures) > self.num_parity:
            raise UncorrectableBlockError(
                f"{len(erasures)} erasures exceed parity budget {self.num_parity}"
            )

        codeword = list(received)
        syndromes = self._syndromes(codeword)
        if all(s == 0 for s in syndromes):
            return bytes(codeword[: self.k])

        corrected = self._correct(codeword, syndromes, erasures)
        return bytes(corrected[: self.k])

    # -- decoder internals ---------------------------------------------------
    #
    # Inside the decoder, polynomials are plain lists indexed by power
    # (lowest degree first) and field products are log/antilog lookups on
    # module-level tables: every operand is a field element by construction,
    # so no step re-validates one.  Evaluations at many points (syndromes,
    # Chien search, Forney magnitudes) are one numpy table gather each.

    def _syndromes(self, codeword: Sequence[int]) -> List[int]:
        # S_i = C(alpha^(FIRST_ROOT+i)).  Expanding Horner's rule, the term
        # for coefficient c_j of degree d_j contributes
        # exp(log c_j + d_j * (FIRST_ROOT + i)), and field addition is XOR —
        # one (num_parity, nonzero-terms) table gather per codeword instead
        # of num_parity Python Horner loops.
        coeffs = np.asarray(codeword, dtype=np.int64)
        nonzero = np.flatnonzero(coeffs)
        if nonzero.size == 0:
            return [0] * self.num_parity
        exponents = self._syndrome_exponents[:, nonzero] + _LOG_TABLE[coeffs[nonzero]]
        exponents %= GF256.order
        return np.bitwise_xor.reduce(_EXP_TABLE[exponents], axis=1).tolist()

    def _erasure_locator(self, erasures: Sequence[int]) -> List[int]:
        """Gamma(x) = prod (1 + X_p x) over the erasure locations X_p.

        Positions are indexed from the start of the codeword; the location
        exponent counts from the end (degree n-1 term is position 0).
        """
        locator = [1]
        for pos in erasures:
            factor = [1, _EXP[self.n - 1 - pos]]
            locator = _mul_mod_xn(locator, factor, len(locator) + 1)
        return locator

    def _forney_syndromes(
        self, syndromes: List[int], erasure_locator: List[int], num_erasures: int
    ) -> List[int]:
        """Modified syndromes that see only the *errors*, not the erasures.

        With erasure locator Gamma and syndrome polynomial S, the product
        ``Xi = Gamma * S mod x^2t`` has coefficients ``Xi_f .. Xi_{2t-1}``
        forming a syndrome sequence for the unknown error positions alone.
        """
        return _mul_mod_xn(erasure_locator, syndromes, self.num_parity)[num_erasures:]

    @staticmethod
    def _berlekamp_massey(sequence: List[int]) -> Tuple[List[int], int]:
        """Textbook Berlekamp-Massey: shortest LFSR generating ``sequence``.

        Returns the connection polynomial C(x) = 1 + C_1 x + ... (lowest
        degree first, high zeros trimmed) and its LFSR length L.
        """
        exp, log = _EXP, _LOG
        # deg C never exceeds the LFSR length, itself at most len(sequence),
        # so fixed lists of this size never drop an x^m * B(x) term.
        size = len(sequence) + 1
        c = [1] + [0] * size
        b_poly = [1] + [0] * size
        length = 0
        m = 1
        b = 1
        for n, s_n in enumerate(sequence):
            discrepancy = s_n
            for i in range(1, length + 1):
                c_i = c[i]
                s_i = sequence[n - i]
                if c_i and s_i:
                    discrepancy ^= exp[log[c_i] + log[s_i]]
            if discrepancy == 0:
                m += 1
                continue
            # c += (discrepancy / b) * x^m * b_poly
            log_factor = (log[discrepancy] - log[b]) % GF256.order
            previous_c = c[:] if 2 * length <= n else None
            for j in range(size + 1 - m):
                b_j = b_poly[j]
                if b_j:
                    c[j + m] ^= exp[log[b_j] + log_factor]
            if previous_c is not None:
                length = n + 1 - length
                b_poly = previous_c
                b = discrepancy
                m = 1
            else:
                m += 1
        return _trim(c), length

    def _chien_search(self, locator: List[int]) -> List[int]:
        """Return errata positions (indices into the codeword)."""
        # X_p = alpha^(n-1-p); roots of the locator are X_p^{-1}.
        values = self._evaluate_at_inverse_locations(locator)
        positions = np.flatnonzero(values == 0).tolist()
        degree = len(locator) - 1
        if len(positions) != degree:
            raise UncorrectableBlockError(
                f"Chien search found {len(positions)} roots for a locator of "
                f"degree {degree}; block is uncorrectable"
            )
        return positions

    def _evaluate_at_inverse_locations(
        self, poly: List[int], positions: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """``poly(X_p^{-1})`` for each codeword position ``p`` (all by default).

        Term ``c_j x^j`` at ``x = alpha^-(n-1-p)`` is
        ``exp(log c_j - j (n-1-p))``: one table gather over
        (positions, nonzero terms), XOR-reduced along the terms.
        """
        log_x = self._location_logs
        if positions is not None:
            log_x = log_x[np.asarray(positions, dtype=np.int64)]
        coeffs = np.asarray(poly, dtype=np.int64)
        powers = np.flatnonzero(coeffs)
        exponents = _LOG_TABLE[coeffs[powers]] - np.multiply.outer(log_x, powers)
        exponents %= GF256.order
        return np.bitwise_xor.reduce(_EXP_TABLE[exponents], axis=1)

    def _correct(
        self,
        codeword: List[int],
        syndromes: List[int],
        erasures: Sequence[int],
    ) -> List[int]:
        erasure_locator = self._erasure_locator(erasures)
        error_syndromes = self._forney_syndromes(
            syndromes, erasure_locator, len(erasures)
        )
        error_locator, lfsr_length = self._berlekamp_massey(error_syndromes)
        if lfsr_length > (self.num_parity - len(erasures)) // 2:
            raise UncorrectableBlockError(
                f"{lfsr_length} errors plus {len(erasures)} erasures exceed the "
                f"capability of parity {self.num_parity}"
            )
        degree = len(error_locator) + len(erasure_locator) - 2
        locator = _mul_mod_xn(error_locator, erasure_locator, degree + 1)
        positions = self._chien_search(locator)

        # Forney with first root b = 0: the error magnitude at location X_i is
        # X_i^(1-b) * Omega(X_i^-1) / Lambda'(X_i^-1) = X_i * Omega / Lambda'.
        # The formal derivative keeps the odd-power terms (characteristic 2).
        omega = _mul_mod_xn(syndromes, locator, self.num_parity)
        derivative = [c if j % 2 == 1 else 0 for j, c in enumerate(locator)][1:]
        denominators = self._evaluate_at_inverse_locations(derivative, positions)
        if not denominators.all():
            raise UncorrectableBlockError(
                "Forney denominator vanished; block is uncorrectable"
            )
        numerators = self._evaluate_at_inverse_locations(omega, positions)
        log_x = self._location_logs[positions]
        exponents = log_x + _LOG_TABLE[numerators] - _LOG_TABLE[denominators]
        exponents %= GF256.order
        magnitudes = np.where(numerators != 0, _EXP_TABLE[exponents], 0)
        for position, magnitude in zip(positions, magnitudes.tolist()):
            codeword[position] ^= magnitude

        if any(s != 0 for s in self._syndromes(codeword)):
            raise UncorrectableBlockError(
                "residual syndromes after correction; block is uncorrectable"
            )
        return codeword


def _trim(poly: List[int]) -> List[int]:
    """Drop zero high-degree coefficients, keeping at least one."""
    end = len(poly)
    while end > 1 and poly[end - 1] == 0:
        end -= 1
    return poly[:end]


def _mul_mod_xn(a: Sequence[int], b: Sequence[int], n: int) -> List[int]:
    """``a * b mod x^n`` for lowest-degree-first coefficient lists."""
    exp, log = _EXP, _LOG
    out = [0] * n
    for i, a_i in enumerate(a[:n]):
        if a_i:
            log_a = log[a_i]
            for j, b_j in enumerate(b[: n - i]):
                if b_j:
                    out[i + j] ^= exp[log_a + log[b_j]]
    return out
