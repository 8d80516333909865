"""Paper-scale parameter smoke tests.

The experiment defaults in this repository are scaled down (GF(2^8), short
strands) so benchmarks run in minutes; these tests confirm the *library*
handles the paper's actual parameters — GF(2^16) symbols, 750-base
strands, 82 payload rows — on a unit shortened in the column dimension
only (a full 65,535-column unit holds 8.7 MB and is a matter of patience,
not capability).
"""

import numpy as np
import pytest

from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig

pytestmark = pytest.mark.paperscale


@pytest.fixture(scope="module")
def paper_matrix():
    # 16-bit symbols (8-base index), 82 payload rows => 8 + 656 = 664 base
    # payload; with the paper's 40 primer bases that is a ~704-750 base
    # strand. Columns shortened to 120 (M=98, E=22 keeps ~18% redundancy).
    return MatrixConfig(m=16, n_columns=120, nsym=22, payload_rows=82)


class TestPaperScaleGeometry:
    def test_strand_length_matches_paper(self, paper_matrix):
        # 8 index bases + 82 rows * 8 bases = 664; the paper's 750 minus
        # the 40-base primer pair and trailing slack.
        assert paper_matrix.index_bases == 8
        assert paper_matrix.strand_length == 664

    def test_full_width_capacity_is_paper_scale(self):
        full = MatrixConfig(m=16, n_columns=65535, nsym=12056, payload_rows=82)
        assert full.data_bits / 8 / 2**20 == pytest.approx(8.36, abs=0.1)
        assert full.nsym / full.n_columns == pytest.approx(0.184, abs=0.001)


class TestPaperScaleRoundtrip:
    def test_noiseless_roundtrip(self, paper_matrix, rng):
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=paper_matrix, layout="gini")
        )
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        assert len(unit.strands[0]) == 664
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
        decoded, report = pipeline.decode(
            simulator.sequence_batch(unit.strands, rng), bits.size
        )
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_erasures_at_scale(self, paper_matrix, rng):
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=paper_matrix, layout="gini")
        )
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.0), FixedCoverage(1))
        batch = simulator.sequence_batch(unit.strands, rng)
        kept = batch.coverage_counts()
        kept[rng.choice(paper_matrix.n_columns, paper_matrix.nsym,
                        replace=False)] = 0
        decoded, report = pipeline.decode(batch.select_prefix(kept),
                                          bits.size)
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_noisy_roundtrip_long_strands(self, paper_matrix, rng):
        """750-base-class strands survive a 3% channel at coverage 8."""
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=paper_matrix, layout="dnamapper")
        )
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        simulator = SequencingSimulator(ErrorModel.uniform(0.03), FixedCoverage(8))
        decoded, report = pipeline.decode(
            simulator.sequence_batch(unit.strands, rng), bits.size
        )
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)
