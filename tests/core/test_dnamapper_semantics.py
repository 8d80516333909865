"""Semantic tests of DnaMapper's placement (the paper's Figure 9).

These decode the *synthesized strands* directly — not via the pipeline's
own inverse — to verify the physical placement contract: the
highest-priority bits must sit at the molecule ends, exactly as Figure 9
prescribes.
"""

import numpy as np
import pytest

from oracles.core import DirectCodec
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig

MATRIX = MatrixConfig(m=8, n_columns=20, nsym=4, payload_rows=6)


def _strand_symbols(strand):
    """Decode a strand into its index symbol plus payload symbols."""
    bits = DirectCodec().decode(strand)
    symbols = [
        int("".join(map(str, bits[i * 8: (i + 1) * 8])), 2)
        for i in range(len(bits) // 8)
    ]
    return symbols[0], symbols[1:]


class TestFigure9Placement:
    @pytest.fixture
    def pipeline(self):
        return DnaStoragePipeline(
            PipelineConfig(matrix=MATRIX, layout="dnamapper")
        )

    def test_index_at_strand_start(self, pipeline, rng):
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        unit = pipeline.encode(bits)
        for column, strand in enumerate(unit.strands):
            index, _ = _strand_symbols(strand)
            assert index == column

    def test_top_priority_bits_in_last_row(self, pipeline):
        """The first 2M bytes of the priority stream occupy the *last*
        payload symbol of each data molecule (Fig 9: P[0..M-1] at the
        bottom row)."""
        m_columns = MATRIX.data_columns
        # Priority symbol q has value q (encode q as the byte value).
        values = (np.arange(MATRIX.data_symbols) % 256).astype(np.uint8)
        bits = np.unpackbits(values)
        unit = pipeline.encode(bits)
        for column in range(m_columns):
            _, payload = _strand_symbols(unit.strands[column])
            # Fig 9: last row holds priority symbols 0..M-1, column-striped.
            assert payload[-1] == column % 256

    def test_second_priority_class_next_to_index(self, pipeline):
        m_columns = MATRIX.data_columns
        values = (np.arange(MATRIX.data_symbols) % 256).astype(np.uint8)
        bits = np.unpackbits(values)
        unit = pipeline.encode(bits)
        for column in range(m_columns):
            _, payload = _strand_symbols(unit.strands[column])
            # Fig 9: the first payload row (right after the index) holds
            # the *second* priority class: symbols M..2M-1.
            assert payload[0] == (m_columns + column) % 256

    def test_lowest_priority_in_middle_rows(self, pipeline):
        values = (np.arange(MATRIX.data_symbols) % 256).astype(np.uint8)
        bits = np.unpackbits(values)
        unit = pipeline.encode(bits)
        m_columns = MATRIX.data_columns
        # With 6 rows, zig-zag priority order is [5, 0, 4, 1, 3, 2]:
        # the *least* reliable row (index 2 of the payload) receives the
        # last priority class, symbols 5M..6M-1.
        for column in range(m_columns):
            _, payload = _strand_symbols(unit.strands[column])
            assert payload[2] == (5 * m_columns + column) % 256

    def test_baseline_differs(self, rng):
        """Sanity: baseline places the first chunk in molecule 0 top-down,
        not across molecule ends."""
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=MATRIX, layout="baseline")
        )
        values = (np.arange(MATRIX.data_symbols) % 256).astype(np.uint8)
        bits = np.unpackbits(values)
        unit = pipeline.encode(bits)
        _, payload = _strand_symbols(unit.strands[0])
        assert payload == list(range(MATRIX.payload_rows))
