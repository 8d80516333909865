"""The IDS pass's memory: bounded per template base.

One archive-geometry read simulation (two GF(2^16) units of 120 strands
of 664 bases at coverage ~8, about 1.27M template bases) is the pass
every archive write's read set and every paper-scale figure runs. Under
tracemalloc its peak, result included, must stay within 30 B per template
base; the pass holds ~13 (the ``float64`` draws, three event masks and
the ``uint8`` bases). A pass that keeps a per-base ``int64`` array alive
beside the draws, as the frozen pass does (~48 B), fails. No timing.
"""

import tracemalloc

import numpy as np
import pytest

from repro.channel import ErrorModel, GammaCoverage, SequencingSimulator
from repro.core import MatrixConfig, PipelineConfig
from repro.core.store import DnaStore

BYTES_PER_TEMPLATE_BASE = 30


@pytest.mark.paperscale
def test_archive_read_simulation_peak_per_template_base():
    store = DnaStore(PipelineConfig(
        matrix=MatrixConfig(m=16, n_columns=120, nsym=22, payload_rows=82),
        layout="dnamapper",
    ))
    bits = np.random.default_rng(1).integers(
        0, 2, 2 * store.unit_capacity_bits, dtype=np.uint8
    )
    image = store.encode(bits)
    simulator = SequencingSimulator(ErrorModel.uniform(0.01),
                                    GammaCoverage(8, shape=6))
    simulator.sequence_store(image, rng=np.random.default_rng(2))  # warm

    tracemalloc.start()
    try:
        batch = simulator.sequence_store(image, rng=np.random.default_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    length = store.pipeline.matrix_config.strand_length
    template_bases = batch.n_reads * length
    assert 1.1e6 < template_bases < 1.5e6
    assert peak <= BYTES_PER_TEMPLATE_BASE * template_bases, (
        f"{peak / template_bases:.1f} B per template base"
    )
