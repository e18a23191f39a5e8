"""Golden decode outcomes: the RS decoder's every result and error, pinned.

A seeded corpus of received words per code shape, with 0 to ``n - k + 2``
errata (errors plus erasures, so some words lie past the code's
capability), is decoded and each outcome — the payload, or the exception
type and message — is folded into one sha256 per shape.  Any change to
what the decoder returns or raises, or to the order of its checks (which
decides the message a failing word reports), changes a digest.
"""

import hashlib

import numpy as np
import pytest

from repro.exceptions import ReedSolomonError
from repro.fec.reed_solomon import ReedSolomonCodec

WORDS_PER_SHAPE = 400

GOLDEN = {
    (32, 8): "4372899bcadd21f246c88f782ac9a4c20b7b529f78270866f08eb3ad62b93ca0",
    (48, 26): "9798bbd03398889460129639ec75c7230d5e017f202a1f076b5a26da86cca6cb",
    (60, 32): "491136807183f9b4ae737d1a1bc545411a7d31133c1ad5d420e7ff98339faf03",
    (3, 1): "27e6d36a8d4193d5a114bfb1846bc600c748047371010d80a94e4790c5313e5f",
    (25, 13): "31a9afb037c65fab0810a0948fc6b785f1a63c24bba61567a35833f22d6362c8",
    (255, 223): "a55aa3285dbbb77132c87d9a044a6357a07754a9f224f2447d31225815b02d02",
}


def _corpus(n: int, k: int):
    """Yield ``(received, erasures)`` words for RS(n, k), seeded by the shape."""
    codec = ReedSolomonCodec(n, k)
    rng = np.random.default_rng(n * 1000 + k)
    for _ in range(WORDS_PER_SHAPE):
        data = bytes(rng.integers(0, 256, k, dtype=np.uint8))
        word = bytearray(codec.encode(data))
        errata = int(rng.integers(0, min(n - k + 2, n) + 1))
        num_erasures = int(rng.integers(0, errata + 1))
        positions = [int(p) for p in rng.choice(n, size=errata, replace=False)]
        erasures = positions[:num_erasures]
        for pos in erasures:
            # Gap-lost symbols arrive zero-filled; some erasures are flagged
            # on symbols that happen to be intact or carry garbage.
            mode = int(rng.integers(0, 3))
            if mode == 0:
                word[pos] = 0
            elif mode == 1:
                word[pos] = int(rng.integers(0, 256))
        for pos in positions[num_erasures:]:
            word[pos] ^= int(rng.integers(1, 256))
        yield bytes(word), erasures


def _outcome_digest(n: int, k: int) -> str:
    codec = ReedSolomonCodec(n, k)
    digest = hashlib.sha256()
    for received, erasures in _corpus(n, k):
        try:
            outcome = b"ok:" + codec.decode(received, erasures)
        except ReedSolomonError as exc:
            outcome = f"{type(exc).__name__}:{exc}".encode()
        digest.update(len(outcome).to_bytes(4, "big") + outcome)
    return digest.hexdigest()


@pytest.mark.parametrize("shape", sorted(GOLDEN), ids=lambda s: f"rs{s[0]}_{s[1]}")
def test_decode_outcomes_match_golden(shape):
    assert _outcome_digest(*shape) == GOLDEN[shape]
