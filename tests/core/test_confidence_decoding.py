"""Tests for confidence-assisted (soft-erasure) decoding."""

import numpy as np
import pytest

from repro.channel import ErrorModel, FixedCoverage, ReadPool, SequencingSimulator
from repro.consensus import PosteriorReconstructor, TwoWayReconstructor
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig

MATRIX = MatrixConfig(m=8, n_columns=60, nsym=12, payload_rows=8)


def _pipeline(model):
    return DnaStoragePipeline(
        PipelineConfig(matrix=MATRIX, layout="gini"),
        reconstructor=PosteriorReconstructor(channel=model),
    )


class TestReceiveWithConfidence:
    def test_noiseless_flags_nothing(self, rng):
        model = ErrorModel.uniform(0.0)
        pipeline = _pipeline(model)
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(model, FixedCoverage(2))
        received = pipeline.receive(
            simulator.sequence(unit.strands, rng), confidence_threshold=0.5
        )
        assert received.cell_erasures == []

    def test_noisy_clusters_flag_cells(self, rng):
        model = ErrorModel.uniform(0.12)
        pipeline = _pipeline(model)
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(model, FixedCoverage(4))
        received = pipeline.receive(
            simulator.sequence(unit.strands, rng), confidence_threshold=0.8
        )
        assert len(received.cell_erasures) > 0
        for row, column in received.cell_erasures:
            assert 0 <= row < MATRIX.payload_rows
            assert 0 <= column < MATRIX.n_columns

    def test_threshold_ignored_without_capable_reconstructor(self, rng):
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=MATRIX, layout="gini"),
            reconstructor=TwoWayReconstructor(),
        )
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.1), FixedCoverage(4))
        received = pipeline.receive(
            simulator.sequence(unit.strands, rng), confidence_threshold=0.8
        )
        assert received.cell_erasures == []

    def test_roundtrip_still_exact_with_confidence(self, rng):
        model = ErrorModel.uniform(0.05)
        pipeline = _pipeline(model)
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(model, FixedCoverage(8))
        received = pipeline.receive(
            simulator.sequence(unit.strands, rng), confidence_threshold=0.7
        )
        decoded, report = pipeline.correct(received, bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)


class TestSoftErasureCorrection:
    @pytest.mark.slow
    def test_never_worse_than_plain(self, rng):
        """The fallback guarantees soft erasures cannot lose codewords."""
        model = ErrorModel.uniform(0.10)
        pipeline = _pipeline(model)
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        total_plain = total_assisted = 0
        for trial in range(3):
            pool = ReadPool(unit.strands, model, max_coverage=5, rng=trial)
            clusters = pool.clusters_at(5)
            plain = pipeline.receive(clusters)
            _, report_plain = pipeline.correct(plain, bits.size)
            assisted = pipeline.receive(clusters, confidence_threshold=0.75)
            _, report_assisted = pipeline.correct(assisted, bits.size)
            total_plain += len(report_plain.failed_codewords)
            total_assisted += len(report_assisted.failed_codewords)
        assert total_assisted <= total_plain

    def test_soft_erasures_capped_by_budget(self, rng):
        """Even absurd thresholds (flag everything) must not crash or
        exceed the RS erasure capability."""
        model = ErrorModel.uniform(0.08)
        pipeline = _pipeline(model)
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(model, FixedCoverage(6))
        received = pipeline.receive(
            simulator.sequence(unit.strands, rng), confidence_threshold=1.1
        )
        decoded, report = pipeline.correct(received, bits.size)
        assert decoded.shape == (bits.size,)


class TestMinimalConfidenceReconstructor:
    def test_batch_input_falls_back_to_per_cluster_confidence(self, rng):
        """Any reconstructor defining ``reconstruct_batch_with_confidence``
        takes the confidence path, from ReadBatch and from cluster-list
        input alike."""
        calls = []

        class MinimalConfidence(TwoWayReconstructor):
            def reconstruct_batch_with_confidence(self, batch, length):
                calls.append(batch.n_clusters)
                return [(estimate, np.ones(length, dtype=np.float64))
                        for estimate in self.reconstruct_batch(batch, length)]

        model = ErrorModel.uniform(0.05)
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=MATRIX),
            reconstructor=MinimalConfidence(),
        )
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(model, FixedCoverage(8))
        batch = simulator.sequence_batch(unit.strands, rng)
        received = pipeline.receive(batch, confidence_threshold=0.5)
        from_list = pipeline.receive(
            simulator.sequence(unit.strands, rng=0),
            confidence_threshold=0.5,
        )
        assert len(calls) == 2
        assert received.matrix.shape == from_list.matrix.shape
        decoded, report = pipeline.correct(received, bits.size)
        np.testing.assert_array_equal(decoded, bits)
