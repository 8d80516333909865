"""Tests for the end-to-end storage pipeline."""

import numpy as np
import pytest

from repro.channel import (
    ErrorModel,
    FixedCoverage,
    ReadBatch,
    SequencingSimulator,
)
from repro.consensus import PosteriorReconstructor, TwoWayReconstructor
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig


class TruncatingTwoWay(TwoWayReconstructor):
    """Chops one base off the estimates at the given batch rows: their
    length is no longer a multiple of bases-per-symbol."""

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def reconstruct_batch(self, batch, length):
        estimates = list(super().reconstruct_batch(batch, length))
        for row in self.rows:
            estimates[row] = estimates[row][:-1]
        return estimates


class TruncatingPosterior(PosteriorReconstructor):
    """The confidence path's counterpart: the first estimate and its
    confidence come back one base short."""

    def reconstruct_batch_with_confidence(self, batch, length):
        results = list(super().reconstruct_batch_with_confidence(
            batch, length
        ))
        estimate, confidence = results[0]
        results[0] = (estimate[:-1], confidence[:-1])
        return results


@pytest.fixture
def config(small_matrix_config):
    return PipelineConfig(matrix=small_matrix_config, layout="baseline")


@pytest.fixture
def pipeline(config):
    return DnaStoragePipeline(config)


def _payload(pipeline, rng, slack=0):
    return rng.integers(0, 2, pipeline.capacity_bits - slack).astype(np.uint8)


def _noiseless_batch(unit, replaced=()):
    """One exact read per strand; ``replaced`` maps a cluster to the
    reads it holds instead (``[]`` loses the molecule)."""
    reads = [[strand] for strand in unit.strands]
    for cluster, cluster_reads in dict(replaced).items():
        reads[cluster] = cluster_reads
    return ReadBatch.from_strings(reads)


class TestEncode:
    def test_strand_geometry(self, pipeline, rng):
        unit = pipeline.encode(_payload(pipeline, rng))
        config = pipeline.matrix_config
        assert len(unit.strands) == config.n_columns
        assert all(len(s) == config.strand_length for s in unit.strands)

    def test_capacity_enforced(self, pipeline, rng):
        with pytest.raises(ValueError):
            pipeline.encode(
                rng.integers(0, 2, pipeline.capacity_bits + 1).astype(np.uint8)
            )

    def test_index_occupies_strand_start(self, pipeline, rng):
        unit = pipeline.encode(_payload(pipeline, rng))
        from oracles.core import DirectCodec
        codec = DirectCodec()
        for column, strand in enumerate(unit.strands):
            bits = codec.decode(strand)
            assert int("".join(map(str, bits[:8])), 2) == column

    def test_parity_satisfies_rs(self, pipeline, rng):
        from repro.ecc import ReedSolomon
        unit = pipeline.encode(_payload(pipeline, rng))
        config = pipeline.matrix_config
        rs = ReedSolomon(config.m, nsym=config.nsym, n=config.n_columns)
        for row in range(config.payload_rows):
            assert rs.check(unit.matrix[row])  # baseline codewords are rows

    def test_ranking_must_match_length(self, pipeline, rng):
        bits = _payload(pipeline, rng, slack=10)
        with pytest.raises(ValueError):
            pipeline.encode(bits, ranking=np.arange(5))

    def test_partial_fill_pads_with_zeros(self, pipeline, rng):
        bits = _payload(pipeline, rng, slack=64)
        unit = pipeline.encode(bits)
        assert unit.n_data_bits == bits.size


class TestDecodeNoiseless:
    @pytest.mark.parametrize("layout", ["baseline", "gini", "dnamapper"])
    def test_roundtrip(self, small_matrix_config, layout, rng):
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=small_matrix_config, layout=layout)
        )
        bits = _payload(pipeline, rng, slack=24)
        unit = pipeline.encode(bits)
        decoded, report = pipeline.decode(_noiseless_batch(unit), bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_roundtrip_with_ranking(self, pipeline, rng):
        bits = _payload(pipeline, rng, slack=16)
        ranking = rng.permutation(bits.size)
        unit = pipeline.encode(bits, ranking=ranking)
        decoded, _ = pipeline.decode(
            _noiseless_batch(unit), bits.size, ranking=ranking
        )
        np.testing.assert_array_equal(decoded, bits)

    def test_gini_excluded_rows_roundtrip(self, small_matrix_config, rng):
        pipeline = DnaStoragePipeline(PipelineConfig(
            matrix=small_matrix_config, layout="gini",
            gini_excluded_rows=(0, small_matrix_config.payload_rows - 1),
        ))
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        decoded, report = pipeline.decode(_noiseless_batch(unit), bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)


class TestDecodeWithLosses:
    def test_erasures_corrected(self, pipeline, rng):
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        # Lose three molecules entirely.
        batch = _noiseless_batch(unit, {column: [] for column in (3, 17, 40)})
        decoded, report = pipeline.decode(batch, bits.size)
        assert report.clean
        assert sorted(report.erased_columns) == [3, 17, 40]
        np.testing.assert_array_equal(decoded, bits)

    def test_too_many_erasures_fail(self, pipeline, rng):
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        # nsym = 12: one too many.
        batch = _noiseless_batch(unit, {column: [] for column in range(13)})
        decoded, report = pipeline.decode(batch, bits.size)
        assert not report.clean

    def test_extra_erasure_columns_reduce_effective_redundancy(
        self, pipeline, rng
    ):
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        # Sacrificing 8 parity columns leaves effective nsym = 4 ...
        sacrificed = list(range(52, 60))
        batch = _noiseless_batch(unit, {column: [] for column in (3, 17, 40)})
        decoded, report = pipeline.decode(
            batch, bits.size, extra_erasure_columns=sacrificed
        )
        # ... which still covers 3 real losses + 8 sacrificed erasures = 11 <= 12.
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_noisy_channel_roundtrip(self, pipeline, rng):
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.06), FixedCoverage(10))
        batch = simulator.sequence_batch(unit.strands, rng)
        decoded, report = pipeline.decode(batch, bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_report_erasures_out_of_range_rejected(self, pipeline, rng):
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        received = pipeline.receive(_noiseless_batch(unit))
        with pytest.raises(ValueError):
            pipeline.correct(received, bits.size, extra_erasure_columns=[60])


class TestReceive:
    def test_duplicate_index_keeps_first(self, pipeline, rng):
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        # Make cluster 5 claim column 4's index by feeding it strand 4.
        received = pipeline.receive(
            _noiseless_batch(unit, {5: [unit.strands[4]]})
        )
        assert 4 in received.duplicate_columns
        assert 5 in received.erased_columns

    def test_invalid_index_dropped(self, small_matrix_config, rng):
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=small_matrix_config, layout="baseline")
        )
        bits = _payload(pipeline, rng)
        unit = pipeline.encode(bits)
        # An index value of 255 >= n_columns=60 must be rejected.
        bogus = "TTTT" + unit.strands[0][4:]
        received = pipeline.receive(_noiseless_batch(unit, {0: [bogus]}))
        assert received.invalid_strands == 1
        assert 0 in received.erased_columns

    def test_truncated_estimate_dropped_not_crash(self, pipeline, rng):
        """Regression: an estimate whose length is not a whole number of
        symbols must be dropped as unparseable like a bad index, not
        crash the vectorized parse with an inhomogeneous-shape
        ValueError."""
        unit = pipeline.encode(_payload(pipeline, rng))
        truncating = DnaStoragePipeline(
            pipeline.config, reconstructor=TruncatingTwoWay(rows=[0])
        )
        received = truncating.receive(_noiseless_batch(unit))
        assert received.invalid_strands == 1
        assert received.erased_columns == [0]

    def test_truncated_confidence_estimate_dropped_not_crash(
        self, pipeline, rng
    ):
        unit = pipeline.encode(_payload(pipeline, rng))
        truncating = DnaStoragePipeline(
            pipeline.config, reconstructor=TruncatingPosterior(
                channel=ErrorModel.uniform(0.01)
            ),
        )
        received = truncating.receive(
            _noiseless_batch(unit), confidence_threshold=0.5
        )
        assert received.invalid_strands == 1
        assert received.erased_columns == [0]

    def test_truncated_estimate_lands_in_its_own_unit(self, pipeline, rng):
        """Two units in one receive_many pass: the malformed estimate
        (the second unit's first cluster) counts against unit 1 only."""
        n_columns = pipeline.matrix_config.n_columns
        batches = [
            _noiseless_batch(pipeline.encode(_payload(pipeline, rng)))
            for _ in range(2)
        ]
        truncating = DnaStoragePipeline(
            pipeline.config, reconstructor=TruncatingTwoWay(rows=[n_columns])
        )
        first, second = truncating.receive_many(
            ReadBatch.concat(batches), [0, n_columns, 2 * n_columns]
        )
        assert first.invalid_strands == 0
        assert first.erased_columns == []
        assert second.invalid_strands == 1
        assert second.erased_columns == [0]


class TestNoEccMode:
    def test_nsym_zero_roundtrip(self, rng):
        config = MatrixConfig(m=8, n_columns=30, nsym=0, payload_rows=6)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=config))
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        decoded, report = pipeline.decode(_noiseless_batch(unit), bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_nsym_zero_losses_pass_through(self, rng):
        config = MatrixConfig(m=8, n_columns=30, nsym=0, payload_rows=6)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=config))
        bits = np.ones(pipeline.capacity_bits, dtype=np.uint8)
        unit = pipeline.encode(bits)
        decoded, report = pipeline.decode(
            _noiseless_batch(unit, {2: []}), bits.size
        )
        assert report.clean  # no codewords exist to fail
        assert 2 in report.erased_columns
        assert not np.array_equal(decoded, bits)  # the lost column is gone
