"""Tests for positional error profiling."""

import numpy as np
import pytest

from repro.analysis import (
    positional_confidence_profile,
    positional_error_profile,
    positional_error_profile_binary,
)
from repro.channel import ErrorModel
from repro.consensus import (
    OneWayReconstructor,
    OptimalMedianReconstructor,
    PosteriorReconstructor,
    TwoWayReconstructor,
)
from repro.observability import Tracer, use_tracer


class TestPositionalErrorProfile:
    def test_shape_and_range(self):
        profile = positional_error_profile(
            TwoWayReconstructor(), length=40,
            error_model=ErrorModel.uniform(0.1), coverage=4, trials=10, rng=0,
        )
        assert profile.shape == (40,)
        assert (profile >= 0).all() and (profile <= 1).all()

    def test_noiseless_profile_is_zero(self):
        profile = positional_error_profile(
            TwoWayReconstructor(), length=30,
            error_model=ErrorModel.uniform(0.0), coverage=3, trials=5, rng=1,
        )
        assert not profile.any()

    def test_deterministic(self):
        kwargs = dict(length=30, error_model=ErrorModel.uniform(0.1),
                      coverage=4, trials=8, rng=7)
        a = positional_error_profile(OneWayReconstructor(), **kwargs)
        b = positional_error_profile(OneWayReconstructor(), **kwargs)
        np.testing.assert_array_equal(a, b)

    def test_one_way_skew_shape(self):
        """Fig 3: error probability rises with position."""
        profile = positional_error_profile(
            OneWayReconstructor(), length=100,
            error_model=ErrorModel.uniform(0.05), coverage=5, trials=60, rng=2,
        )
        assert profile[-25:].mean() > 3 * profile[:25].mean()

    def test_two_way_peak_in_middle(self):
        """Fig 4: two-way reconstruction peaks mid-strand."""
        profile = positional_error_profile(
            TwoWayReconstructor(), length=100,
            error_model=ErrorModel.uniform(0.06), coverage=5, trials=80, rng=3,
        )
        edges = np.concatenate([profile[:12], profile[-12:]]).mean()
        middle = profile[38:62].mean()
        assert middle > 2 * edges

    def test_validation(self):
        with pytest.raises(ValueError):
            positional_error_profile(
                TwoWayReconstructor(), 10, ErrorModel.uniform(0.1),
                coverage=0, trials=1,
            )
        with pytest.raises(ValueError):
            positional_error_profile(
                TwoWayReconstructor(), 10, ErrorModel.uniform(0.1),
                coverage=1, trials=0,
            )


class TestBinaryProfile:
    def test_adversarial_median_profile(self):
        """Fig 6 machinery: the optimal median with adversarial ties still
        produces a valid profile (the skew assertion lives in the bench)."""
        profile = positional_error_profile_binary(
            OptimalMedianReconstructor(n_alphabet=2, max_candidates=256),
            length=10, error_model=ErrorModel.uniform(0.2),
            coverage=3, trials=6, rng=4, adversarial=True,
        )
        assert profile.shape == (10,)
        assert (profile >= 0).all() and (profile <= 1).all()

    def test_non_adversarial_binary(self):
        profile = positional_error_profile_binary(
            TwoWayReconstructor(n_alphabet=2), length=24,
            error_model=ErrorModel.uniform(0.15), coverage=4, trials=10, rng=5,
        )
        assert profile.shape == (24,)


class TestConsensusSpan:
    """The profiles report their consensus call like the pipeline's
    decode does: a ``consensus.reconstruct`` span plus the
    ``consensus.clusters`` and ``consensus.reads`` counters."""

    def assert_one_consensus_span(self, tracer, trials, coverage):
        spans = [root for root in tracer.roots
                 if root.name == "consensus.reconstruct"]
        assert len(spans) == 1
        assert spans[0].attributes == {"n_clusters": trials,
                                       "n_reads": trials * coverage}
        assert spans[0].seconds > 0
        metrics = tracer.metrics
        assert metrics.counter("consensus.clusters").value == trials
        assert metrics.counter("consensus.reads").value == trials * coverage

    def test_positional_error_profile(self):
        tracer = Tracer()
        with use_tracer(tracer):
            positional_error_profile(
                TwoWayReconstructor(), length=30,
                error_model=ErrorModel.uniform(0.05), coverage=4, trials=12,
                rng=3,
            )
        self.assert_one_consensus_span(tracer, trials=12, coverage=4)

    def test_confidence_and_binary_profiles(self):
        tracer = Tracer()
        with use_tracer(tracer):
            positional_confidence_profile(
                PosteriorReconstructor(), length=20,
                error_model=ErrorModel.uniform(0.05), coverage=3, trials=5,
                rng=4,
            )
        self.assert_one_consensus_span(tracer, trials=5, coverage=3)
        tracer = Tracer()
        with use_tracer(tracer):
            positional_error_profile_binary(
                OneWayReconstructor(n_alphabet=2), length=20,
                error_model=ErrorModel.uniform(0.05), coverage=3, trials=6,
                rng=5,
            )
        self.assert_one_consensus_span(tracer, trials=6, coverage=3)
