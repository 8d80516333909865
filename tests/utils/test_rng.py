"""Tests for RNG normalization."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, 10)
        b = ensure_rng(42).integers(0, 1000, 10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 2**30)
        b = ensure_rng(2).integers(0, 2**30)
        assert a != b

    def test_generator_passes_through(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_numpy_integer_accepted(self):
        assert isinstance(ensure_rng(np.int64(7)), np.random.Generator)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")
