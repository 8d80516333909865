"""Integration of the unequal-ECC scheme with the strand channel.

The uneven scheme lives outside the layout-policy family (rows have
different data capacities, so the placement abstraction does not apply);
these tests cover the strand-level integration path the uneven-ECC
ablation benchmark uses.
"""

import numpy as np
import pytest

from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig
from repro.ecc import UnevenEccScheme, redundancy_profile_for_skew

MATRIX = MatrixConfig(m=8, n_columns=40, nsym=8, payload_rows=6)


@pytest.fixture
def scheme():
    profile = redundancy_profile_for_skew(
        [1, 4, 8, 8, 4, 1], total_parity=MATRIX.nsym * MATRIX.payload_rows,
        min_per_row=2,
    )
    return UnevenEccScheme(MATRIX.m, MATRIX.n_columns, profile)


@pytest.fixture
def pipeline():
    return DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout="baseline"))


class TestUnevenOverStrands:
    def test_noiseless_roundtrip(self, scheme, pipeline, rng):
        data = rng.integers(0, 256, scheme.total_data_symbols)
        matrix = scheme.encode(data)
        strands = pipeline._render_strands(matrix[None])[0]
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
        batch = simulator.sequence_batch(strands, rng)
        received = pipeline.receive(batch)
        decoded, row_ok = scheme.decode(received.matrix,
                                        erasures=received.erased_columns)
        assert all(row_ok)
        np.testing.assert_array_equal(decoded, data)

    def test_noisy_roundtrip(self, scheme, pipeline, rng):
        data = rng.integers(0, 256, scheme.total_data_symbols)
        matrix = scheme.encode(data)
        strands = pipeline._render_strands(matrix[None])[0]
        simulator = SequencingSimulator(ErrorModel.uniform(0.03), FixedCoverage(10))
        batch = simulator.sequence_batch(strands, rng)
        received = pipeline.receive(batch)
        decoded, row_ok = scheme.decode(received.matrix,
                                        erasures=received.erased_columns)
        assert all(row_ok)
        np.testing.assert_array_equal(decoded, data)

    def test_middle_rows_survive_more_noise_than_edges(self, scheme):
        """The provisioning gradient is real: middle rows tolerate error
        loads the edge rows cannot."""
        middle_parity = scheme.parity_per_row[2]
        edge_parity = scheme.parity_per_row[0]
        assert middle_parity > 2 * edge_parity
