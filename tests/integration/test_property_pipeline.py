"""Property-based tests over the whole pipeline (hypothesis)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig

_LAYOUTS = ["baseline", "gini", "dnamapper"]


@st.composite
def _geometries(draw):
    rows = draw(st.integers(2, 10))
    nsym = draw(st.integers(0, 8))
    n_columns = draw(st.integers(nsym + 2, 40))
    return MatrixConfig(m=8, n_columns=n_columns, nsym=nsym,
                        payload_rows=rows)


class TestPipelineProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_geometries(), st.sampled_from(_LAYOUTS), st.integers(0, 2**31))
    def test_noiseless_roundtrip_any_geometry(self, matrix, layout, seed):
        if layout == "gini" and matrix.nsym == 0:
            pass  # still valid; diagonal geometry without parity
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=matrix, layout=layout)
        )
        rng = np.random.default_rng(seed)
        n_bits = int(rng.integers(0, pipeline.capacity_bits + 1))
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
        batch = simulator.sequence_batch(unit.strands, rng)
        decoded, report = pipeline.decode(batch, bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**31), st.sampled_from(_LAYOUTS))
    def test_roundtrip_with_arbitrary_ranking(self, seed, layout):
        matrix = MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=5)
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=matrix, layout=layout)
        )
        rng = np.random.default_rng(seed)
        n_bits = int(rng.integers(1, pipeline.capacity_bits + 1))
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        ranking = rng.permutation(n_bits)
        unit = pipeline.encode(bits, ranking=ranking)
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
        batch = simulator.sequence_batch(unit.strands, rng)
        decoded, _ = pipeline.decode(batch, n_bits, ranking=ranking)
        np.testing.assert_array_equal(decoded, bits)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**31))
    def test_erasures_within_budget_always_recoverable(self, seed):
        matrix = MatrixConfig(m=8, n_columns=30, nsym=8, payload_rows=4)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=matrix, layout="gini"))
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
        batch = simulator.sequence_batch(unit.strands, rng)
        n_lost = int(rng.integers(0, matrix.nsym + 1))
        kept = batch.coverage_counts()
        kept[rng.choice(matrix.n_columns, n_lost, replace=False)] = 0
        decoded, report = pipeline.decode(batch.select_prefix(kept),
                                          bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**31))
    def test_decode_never_crashes_under_heavy_noise(self, seed):
        """Whatever the channel does, decode returns bits and a report."""
        matrix = MatrixConfig(m=8, n_columns=20, nsym=4, payload_rows=4)
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=matrix))
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.4), FixedCoverage(2)
        )
        batch = simulator.sequence_batch(unit.strands, rng)
        decoded, report = pipeline.decode(batch, bits.size)
        assert decoded.shape == (bits.size,)
        assert set(np.unique(decoded)) <= {0, 1}
