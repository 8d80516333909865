"""Tests for the two-stage (synthesis + sequencing) channel."""

import numpy as np
import pytest

from repro.channel import BatchedChannelEngine, ErrorModel, FixedCoverage
from repro.channel.synthesis import TwoStageSequencer
from repro.codec.basemap import random_bases
from repro.consensus import TwoWayReconstructor


def clusters_as_strings(batch):
    """Every cluster's reads as base strings."""
    return [
        [batch.read_string(i) for i in range(*batch.cluster_rows(c))]
        for c in range(batch.n_clusters)
    ]


class TestSynthesisStage:
    """The engine's synthesis stage, driven through TwoStageSequencer."""

    def test_noiseless_is_identity(self, rng):
        strands = [random_bases(40, rng) for _ in range(3)]
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.0), ErrorModel.uniform(0.0),
            FixedCoverage(4),
        )
        batch = channel.sequence_batch(strands, rng)
        assert clusters_as_strings(batch) == [[s] * 4 for s in strands]

    def test_mutations_applied_once(self, rng):
        strands = [random_bases(200, rng) for _ in range(3)]
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.1), ErrorModel.uniform(0.0),
            FixedCoverage(5),
        )
        batch = channel.sequence_batch(strands, rng)
        for reads, strand in zip(clusters_as_strings(batch), strands):
            molecule = reads[0]
            assert molecule != strand
            assert reads == [molecule] * 5

    def test_deterministic(self, rng):
        strands = [random_bases(60, rng) for _ in range(2)]
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.2), ErrorModel.uniform(0.05),
            FixedCoverage(3),
        )
        first = channel.sequence_batch(strands, rng=5)
        second = channel.sequence_batch(strands, rng=5)
        assert clusters_as_strings(first) == clusters_as_strings(second)

    def test_matches_the_engine_it_fronts(self, rng):
        """Each model reaches its own stage of the engine."""
        strands = [random_bases(50, rng) for _ in range(3)]
        synthesis = ErrorModel.uniform(0.05)
        sequencing = ErrorModel.uniform(0.2)
        channel = TwoStageSequencer(synthesis, sequencing, FixedCoverage(4))
        engine = BatchedChannelEngine(
            sequencing_model=sequencing, coverage_model=FixedCoverage(4),
            synthesis_model=synthesis,
        )
        batch = channel.sequence_batch(strands, rng=9)
        assert batch.n_clusters == 3
        assert clusters_as_strings(batch) \
            == clusters_as_strings(engine.sequence(strands, rng=9))

    def test_reassigned_model_is_honored(self, rng):
        strands = [random_bases(80, rng)]
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.3), ErrorModel.uniform(0.0),
            FixedCoverage(2),
        )
        channel.synthesis_model = ErrorModel.uniform(0.0)
        batch = channel.sequence_batch(strands, rng)
        assert clusters_as_strings(batch) == [strands * 2]


class TestTwoStageSequencer:
    def test_cluster_structure(self, rng):
        strands = [random_bases(50, rng) for _ in range(4)]
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.02), ErrorModel.uniform(0.05),
            FixedCoverage(6),
        )
        batch = channel.sequence_batch(strands, rng)
        assert batch.n_clusters == 4
        assert (batch.coverage_counts() == 6).all()

    def test_synthesis_errors_are_shared_across_reads(self, rng):
        """With zero sequencing noise, all reads equal the mutated molecule
        — consensus cannot undo a synthesis error no matter the coverage."""
        strand = random_bases(150, rng)
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.10), ErrorModel.uniform(0.0),
            FixedCoverage(20),
        )
        reads = clusters_as_strings(channel.sequence_batch([strand], rng))[0]
        assert len(set(reads)) == 1       # identical reads
        assert reads[0] != strand         # but not the designed strand
        consensus = TwoWayReconstructor().reconstruct(reads, len(strand))
        errors = sum(a != b for a, b in zip(consensus, strand))
        assert errors > 0                 # coverage did not help

    def test_sequencing_errors_average_out(self, rng):
        """With zero synthesis noise, enough coverage recovers the strand."""
        strand = random_bases(120, rng)
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.0), ErrorModel.uniform(0.05),
            FixedCoverage(12),
        )
        reads = clusters_as_strings(channel.sequence_batch([strand], rng))[0]
        consensus = TwoWayReconstructor().reconstruct(reads, len(strand))
        errors = sum(a != b for a, b in zip(consensus, strand))
        assert errors <= 2
