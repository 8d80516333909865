"""Tests for the two-stage (synthesis + sequencing) channel."""

import numpy as np
import pytest

from repro.channel import ErrorModel, FixedCoverage
from repro.channel.synthesis import TwoStageSequencer
from repro.codec.basemap import random_bases
from repro.consensus import TwoWayReconstructor


class TestSynthesisStage:
    """The engine's synthesis stage, driven through TwoStageSequencer."""

    def test_noiseless_is_identity(self, rng):
        strands = [random_bases(40, rng) for _ in range(3)]
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.0), ErrorModel.uniform(0.0),
            FixedCoverage(4),
        )
        clusters = channel.sequence(strands, rng)
        assert [c.reads for c in clusters] == [[s] * 4 for s in strands]

    def test_mutations_applied_once(self, rng):
        strands = [random_bases(200, rng) for _ in range(3)]
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.1), ErrorModel.uniform(0.0),
            FixedCoverage(5),
        )
        for cluster, strand in zip(channel.sequence(strands, rng), strands):
            molecule = cluster.reads[0]
            assert molecule != strand
            assert cluster.reads == [molecule] * 5

    def test_deterministic(self, rng):
        strands = [random_bases(60, rng) for _ in range(2)]
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.2), ErrorModel.uniform(0.05),
            FixedCoverage(3),
        )
        first = channel.sequence(strands, rng=5)
        second = channel.sequence(strands, rng=5)
        assert [c.reads for c in first] == [c.reads for c in second]

    def test_batch_and_cluster_forms_agree(self, rng):
        strands = [random_bases(50, rng) for _ in range(3)]
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.05), ErrorModel.uniform(0.05),
            FixedCoverage(4),
        )
        batch = channel.sequence_batch(strands, rng=9)
        clusters = channel.sequence(strands, rng=9)
        assert batch.n_clusters == len(clusters) == 3
        assert [c.reads for c in batch.to_clusters()] \
            == [c.reads for c in clusters]

    def test_reassigned_model_is_honored(self, rng):
        strands = [random_bases(80, rng)]
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.3), ErrorModel.uniform(0.0),
            FixedCoverage(2),
        )
        channel.synthesis_model = ErrorModel.uniform(0.0)
        assert channel.sequence(strands, rng).pop().reads == strands * 2


class TestTwoStageSequencer:
    def test_cluster_structure(self, rng):
        strands = [random_bases(50, rng) for _ in range(4)]
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.02), ErrorModel.uniform(0.05),
            FixedCoverage(6),
        )
        clusters = channel.sequence(strands, rng)
        assert len(clusters) == 4
        assert all(c.coverage == 6 for c in clusters)

    def test_synthesis_errors_are_shared_across_reads(self, rng):
        """With zero sequencing noise, all reads equal the mutated molecule
        — consensus cannot undo a synthesis error no matter the coverage."""
        strand = random_bases(150, rng)
        channel = TwoStageSequencer(
            ErrorModel.uniform(0.10), ErrorModel.uniform(0.0),
            FixedCoverage(20),
        )
        clusters = channel.sequence([strand], rng)
        reads = clusters[0].reads
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
        clusters = channel.sequence([strand], rng)
        consensus = TwoWayReconstructor().reconstruct(
            clusters[0].reads, len(strand)
        )
        errors = sum(a != b for a, b in zip(consensus, strand))
        assert errors <= 2
