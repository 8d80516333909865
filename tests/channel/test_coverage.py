"""Tests for coverage models."""

import numpy as np
import pytest

from repro.channel import FixedCoverage, GammaCoverage


class TestFixedCoverage:
    def test_exact_counts(self):
        counts = FixedCoverage(7).sample(10, rng=0)
        assert (counts == 7).all()

    def test_rounding(self):
        counts = FixedCoverage(6.6).sample(3, rng=0)
        assert (counts == 7).all()

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            FixedCoverage(0)


class TestGammaCoverage:
    def test_mean_close_to_target(self):
        counts = GammaCoverage(10, shape=6).sample(5000, rng=1)
        assert 9.0 < counts.mean() < 11.0

    def test_dispersion_increases_with_smaller_shape(self):
        tight = GammaCoverage(10, shape=50).sample(3000, rng=2)
        loose = GammaCoverage(10, shape=2).sample(3000, rng=2)
        assert loose.std() > tight.std()

    def test_dropouts_possible_at_low_coverage(self):
        counts = GammaCoverage(1.5, shape=1.0).sample(2000, rng=3)
        assert (counts == 0).sum() > 0  # strand loss -> erasures

    def test_counts_are_non_negative_integers(self):
        counts = GammaCoverage(4, shape=3).sample(1000, rng=4)
        assert counts.dtype == np.int64
        assert counts.min() >= 0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GammaCoverage(0)
        with pytest.raises(ValueError):
            GammaCoverage(5, shape=0)

    def test_deterministic(self):
        a = GammaCoverage(8).sample(50, rng=9)
        b = GammaCoverage(8).sample(50, rng=9)
        np.testing.assert_array_equal(a, b)
