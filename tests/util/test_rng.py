"""Unit tests for deterministic RNG plumbing."""

import numpy as np

from repro.util.rng import derive_rng, make_rng


class TestMakeRng:
    def test_seed_reproducible(self):
        a = make_rng(7).integers(0, 1000, 10)
        b = make_rng(7).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestDeriveRng:
    def test_same_label_same_stream(self):
        a = derive_rng(make_rng(3), "camera")
        b = derive_rng(make_rng(3), "camera")
        assert np.array_equal(a.integers(0, 1000, 5), b.integers(0, 1000, 5))

    def test_different_labels_differ(self):
        parent = make_rng(3)
        a = derive_rng(parent, "camera")
        parent2 = make_rng(3)
        b = derive_rng(parent2, "workload")
        assert not np.array_equal(a.integers(0, 10**9, 8), b.integers(0, 10**9, 8))
