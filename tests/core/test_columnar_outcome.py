"""Property: the columnar decode outcome against the frozen per-unit loops.

``receive_many`` returns :class:`~repro.core.outcome.ReceivedUnits` and
``correct_matrix_many`` :class:`~repro.core.outcome.CorrectedUnits`:
stacked arrays whose per-unit views (``ReceivedUnit``,
``(matrix, DecodeReport)``) are built when indexed. Over random stores
of 1-6 units with lost clusters, duplicate claims, bad indices and
malformed estimates, with and without a confidence threshold and with
extra erasure columns, every view must equal the frozen per-unit loops
(``oracles.core``), and a list of ``ReceivedUnit`` must correct exactly
like the columnar outcome it was built from.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.core import correct_matrix_loop_reference, receive_loop_reference
from repro.channel import (
    ErrorModel,
    FixedCoverage,
    ReadBatch,
    SequencingSimulator,
)
from repro.consensus import PosteriorReconstructor
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig
from repro.core.outcome import ReceivedUnits

CONFIG = PipelineConfig(
    matrix=MatrixConfig(m=8, n_columns=12, nsym=4, payload_rows=4),
    layout="gini",
)
#: Clusters at or past this source index come back one base short.
MALFORMED = 1000


class Truncating(PosteriorReconstructor):
    """Chops one base off the estimate (and its confidence) of every
    cluster whose source index is ``MALFORMED`` or more. Keyed on the
    cluster, not on its batch row, so a unit decodes the same alone and
    inside a multi-unit batch."""

    def reconstruct_batch(self, batch, length):
        return [estimate for estimate, _ in
                self.reconstruct_batch_with_confidence(batch, length)]

    def reconstruct_batch_with_confidence(self, batch, length):
        results = list(super().reconstruct_batch_with_confidence(
            batch, length
        ))
        for row in np.flatnonzero(batch.source_indices >= MALFORMED):
            estimate, confidence = results[row]
            results[row] = (estimate[:-1], confidence[:-1])
        return results


PIPELINE = DnaStoragePipeline(
    CONFIG, reconstructor=Truncating(channel=ErrorModel.uniform(0.05))
)
N_COLUMNS = CONFIG.matrix.n_columns
SHAPE = (CONFIG.matrix.payload_rows, N_COLUMNS)

columns = st.integers(0, N_COLUMNS - 1)
unit_plans = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 16),
    "coverage": st.integers(1, 4),
    "lost": st.sets(columns, max_size=4),
    # (cluster, strand): the cluster reads another strand, a second claim.
    "duplicates": st.lists(st.tuples(columns, columns), max_size=2),
    "bad_index": st.sets(columns, max_size=2),
    "malformed": st.sets(columns, max_size=2),
    "extra_clusters": st.integers(0, 2),  # appended second claims
})


def unit_batch(plan):
    """One unit's reads: sequenced, then damaged as ``plan`` says."""
    rng = np.random.default_rng(plan["seed"])
    bits = rng.integers(0, 2, PIPELINE.capacity_bits, dtype=np.uint8)
    strands = PIPELINE.encode(bits).strands
    simulator = SequencingSimulator(ErrorModel.uniform(0.04),
                                    FixedCoverage(plan["coverage"]))
    batch = simulator.sequence_batch(strands, rng)
    reads = [[batch.read_string(i) for i in range(*batch.cluster_rows(c))]
             for c in range(batch.n_clusters)]
    sources = list(range(batch.n_clusters))
    for cluster, strand in plan["duplicates"]:
        reads[cluster] = [strands[strand]] * 2
    for cluster in plan["bad_index"]:  # index field 255 >= n_columns
        reads[cluster] = ["TTTT" + strands[cluster][4:]] * 2
    for cluster in plan["malformed"]:
        sources[cluster] = MALFORMED + cluster
    for cluster in plan["lost"]:
        reads[cluster] = []
    for k in range(plan["extra_clusters"]):
        reads.append([strands[k]])
        sources.append(N_COLUMNS + k)
    return ReadBatch.from_strings(reads, source_indices=sources)


def assert_received_equal(got, want):
    np.testing.assert_array_equal(got.matrix, want.matrix)
    assert got.erased_columns == want.erased_columns
    assert got.duplicate_columns == want.duplicate_columns
    assert got.invalid_strands == want.invalid_strands
    assert got.cell_erasures == want.cell_erasures


@pytest.mark.slow
@settings(max_examples=30, deadline=None)
@given(plans=st.lists(unit_plans, min_size=1, max_size=6),
       threshold=st.sampled_from([None, 0.6, 0.95]),
       extra=st.lists(columns, max_size=3),
       split=st.integers(0, 6))
def test_columnar_views_match_the_per_unit_loops(plans, threshold, extra,
                                                 split):
    units = [unit_batch(plan) for plan in plans]
    boundaries = np.cumsum([0] + [unit.n_clusters for unit in units])
    received = PIPELINE.receive_many(ReadBatch.concat(units), boundaries,
                                     confidence_threshold=threshold)
    assert len(received) == len(units)
    want = [receive_loop_reference(PIPELINE, unit, threshold)
            for unit in units]
    for got, reference in zip(received, want):
        assert_received_equal(got, reference)

    # Packing the views back (whole, or as two concatenated parts) gives
    # the same outcome.
    views = list(received)
    split = min(split, len(views))
    for packed in (ReceivedUnits.pack(views, SHAPE), ReceivedUnits.concat([
        ReceivedUnits.pack(views[:split], SHAPE),
        ReceivedUnits.pack(views[split:], SHAPE),
    ])):
        for got, reference in zip(packed, want):
            assert_received_equal(got, reference)

    columnar = PIPELINE.correct_matrix_many(received, extra)
    listed = PIPELINE.correct_matrix_many(views, extra)
    sizes = [PIPELINE.capacity_bits - u for u in range(len(units))]
    decoded = PIPELINE.correct_many(received, sizes, None, extra)
    for u, reference in enumerate(want):
        want_matrix, want_report = correct_matrix_loop_reference(
            PIPELINE, reference, extra
        )
        for matrix, report in (columnar[u], listed[u]):
            np.testing.assert_array_equal(matrix, want_matrix)
            assert report == want_report
            assert report.clean == want_report.clean
        bits, report = decoded[u]
        np.testing.assert_array_equal(
            bits, PIPELINE.prioritized_bits(want_matrix)[:sizes[u]]
        )
        assert report == want_report
