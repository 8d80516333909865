"""The consensus interface: one batch method and its one-cluster adapter."""

import numpy as np
import pytest

from repro.channel import ReadBatch
from repro.consensus import Reconstructor


class CountingEngine(Reconstructor):
    """Estimates ``0, 1, 2, 3, 0, ...`` for every cluster and keeps the
    batches it was given."""

    def __init__(self):
        self.batches = []

    def reconstruct_batch(self, batch, length):
        self.batches.append(batch)
        return np.tile(np.arange(length) % 4, (batch.n_clusters, 1))


class TestReconstructor:
    def test_reconstruct_batch_must_be_implemented(self):
        with pytest.raises(NotImplementedError):
            Reconstructor().reconstruct_batch(ReadBatch.from_strings([]), 3)

    def test_reconstruct_is_row_zero_of_a_one_cluster_batch(self):
        engine = CountingEngine()
        assert engine.reconstruct(["ACG", "", "TT"], 5) == "ACGTA"
        (batch,) = engine.batches
        assert batch.n_clusters == 1
        assert [batch.read_string(i) for i in range(batch.n_reads)] \
            == ["ACG", "", "TT"]

    def test_reconstruct_empty_cluster(self):
        engine = CountingEngine()
        assert engine.reconstruct([], 2) == "AC"
        assert engine.batches[0].n_reads == 0
