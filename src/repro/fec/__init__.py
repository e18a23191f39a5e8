"""Forward error correction: GF(2^8) arithmetic and Reed-Solomon codes.

ColorBars protects payloads against inter-frame loss with Reed-Solomon block
codes (paper §5).  This package is a from-scratch implementation:

* :mod:`repro.fec.gf256` — the Galois field GF(2^8) with the 0x11D primitive
  polynomial (the same field used by the 802.15.7 / CCSDS RS codes),
* :mod:`repro.fec.polynomial` — dense polynomials over that field,
* :mod:`repro.fec.reed_solomon` — systematic RS encoder and a
  Berlekamp-Massey + Forney decoder handling both errors and erasures.
"""

from repro.fec.gf256 import GF256
from repro.fec.polynomial import GFPolynomial
from repro.fec.reed_solomon import ReedSolomonCodec, rs_params_for_loss

__all__ = [
    "GF256",
    "GFPolynomial",
    "ReedSolomonCodec",
    "rs_params_for_loss",
]
