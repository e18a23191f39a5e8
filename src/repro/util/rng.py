"""Deterministic random-number plumbing.

Every stochastic component (camera noise, auto-exposure drift, workload
generation) takes a ``numpy.random.Generator``.  These helpers create root
generators from integer seeds and derive independent child generators for
subsystems, so a single seed reproduces an entire end-to-end run while the
subsystems stay statistically independent.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a ``Generator`` from a seed, an existing generator, or fresh entropy."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(parent: np.random.Generator, label: str) -> np.random.Generator:
    """Derive an independent child generator keyed by a stable string label.

    Two calls with the same parent state and label yield identically seeded
    children, so subsystem randomness does not depend on call order elsewhere.
    """
    # Hash the label into a 64-bit integer without Python's randomized hash().
    digest = 1469598103934665603  # FNV-1a offset basis
    for char in label.encode("utf-8"):
        digest ^= char
        digest = (digest * 1099511628211) % (1 << 64)
    seed_seq = np.random.SeedSequence(
        entropy=[int(parent.integers(0, 2**63)), digest]
    )
    return np.random.default_rng(seed_seq)
