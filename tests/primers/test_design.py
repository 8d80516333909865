"""Tests for primer design."""

import pytest

from repro.cluster.distance import edit_distance
from repro.codec.constraints import gc_content, max_homopolymer_run
from repro.primers import PrimerDesigner


class TestPrimerDesigner:
    @pytest.fixture(scope="class")
    def designed(self):
        designer = PrimerDesigner(length=16, min_distance=6)
        return designer.design_set(3, rng=7)

    def test_count_and_length(self, designed):
        assert len(designed) == 3
        for pair in designed:
            assert len(pair.forward) == 16
            assert len(pair.reverse) == 16

    def test_constraints_hold(self, designed):
        for pair in designed:
            for primer in (pair.forward, pair.reverse):
                assert max_homopolymer_run(primer) <= 3
                assert 0.4 <= gc_content(primer) <= 0.6

    def test_mutual_distance(self, designed):
        primers = [p for pair in designed for p in (pair.forward, pair.reverse)]
        for i in range(len(primers)):
            for j in range(i + 1, len(primers)):
                assert edit_distance(primers[i], primers[j]) >= 6

    def test_deterministic(self):
        designer = PrimerDesigner(length=12, min_distance=4)
        assert designer.design_set(2, rng=1) == designer.design_set(2, rng=1)

    def test_impossible_constraints_raise(self):
        designer = PrimerDesigner(length=4, min_distance=4, max_attempts=50)
        with pytest.raises(RuntimeError):
            designer.design_set(40, rng=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrimerDesigner(length=2)
        with pytest.raises(ValueError):
            PrimerDesigner(min_distance=0)
