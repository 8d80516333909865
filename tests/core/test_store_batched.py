"""Differential suite: store-plane batched decode == per-unit oracle.

``DnaStore.read`` normalizes any input form into one spanning
``ReadBatch``, runs **one** consensus batch call over every surviving
cluster of every unit, and parses the whole estimate stack with array
operations (``pipeline.receive_many``). ``oracles.core.
decode_units_reference`` is the frozen per-unit loop it replaced: one
consensus call, one scalar index parse and one per-codeword correction
loop per unit. These tests pin the two byte-identical — bits and every
per-unit report field — across layouts, dropout-heavy channels, global
rankings, confidence-threshold decoding and every input form, and pin
the batched encoder against the frozen per-cell loop encoder the same
way.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.core import (
    decode_units_reference,
    encode_loop_reference,
    receive_loop_reference,
)
from repro.channel import (
    ErrorModel,
    FixedCoverage,
    GammaCoverage,
    ReadBatch,
    ReadCluster,
    ReadPool,
    SequencingSimulator,
)
from repro.cluster import BatchedGreedyClusterer
from repro.consensus import PosteriorReconstructor, TwoWayReconstructor
from repro.core import MatrixConfig, PipelineConfig, ReadRequest
from repro.core.ranking import proportional_share_ranking
from repro.core.store import DnaStore

CONFIG = PipelineConfig(
    matrix=MatrixConfig(m=8, n_columns=40, nsym=8, payload_rows=8),
    layout="gini",
)


def assert_reports_equal(batched, reference):
    assert batched.unit_reports == reference.unit_reports


def assert_read_matches_oracle(store, reads, n_bits, ranking=None,
                               confidence_threshold=None):
    """``store.read`` answers exactly like the per-unit oracle decode;
    returns the read's result."""
    got = store.read(ReadRequest(
        reads, n_bits, ranking=ranking,
        confidence_threshold=confidence_threshold,
    ))
    want_bits, want_report = decode_units_reference(
        store, reads, n_bits, ranking, confidence_threshold
    )
    np.testing.assert_array_equal(got.bits, want_bits)
    assert_reports_equal(got.report, want_report)
    return got


def make_store_case(rng, config=CONFIG, n_units_fraction=3.4, rate=0.05,
                    coverage=8, reconstructor=None):
    store = DnaStore(config, reconstructor=reconstructor)
    bits = rng.integers(
        0, 2, int(n_units_fraction * store.unit_capacity_bits)
    ).astype(np.uint8)
    image = store.encode(bits)
    simulator = SequencingSimulator(
        ErrorModel.uniform(rate), FixedCoverage(coverage)
    )
    batch = simulator.sequence_store(image, rng=rng)
    return store, bits, image, batch


class TestBatchedEncode:
    @pytest.mark.parametrize("layout", ["baseline", "gini", "dnamapper",
                                        "random"])
    def test_encode_matches_loop_reference(self, rng, layout):
        config = PipelineConfig(matrix=CONFIG.matrix, layout=layout)
        store = DnaStore(config)
        bits = rng.integers(0, 2, store.unit_capacity_bits - 11).astype(np.uint8)
        batched = store.pipeline.encode(bits)
        reference = encode_loop_reference(store.pipeline, bits)
        assert batched.strands == reference.strands
        np.testing.assert_array_equal(batched.matrix, reference.matrix)
        assert batched.n_data_bits == reference.n_data_bits

    def test_encode_with_ranking_matches_loop_reference(self, rng):
        pipeline = DnaStore(CONFIG).pipeline
        bits = rng.integers(0, 2, pipeline.capacity_bits // 2).astype(np.uint8)
        ranking = rng.permutation(bits.size)
        batched = pipeline.encode(bits, ranking=ranking)
        reference = encode_loop_reference(pipeline, bits, ranking=ranking)
        assert batched.strands == reference.strands
        np.testing.assert_array_equal(batched.matrix, reference.matrix)

    def test_store_encode_matches_per_unit_loop(self, rng):
        store = DnaStore(CONFIG)
        n_units = 3
        bits = rng.integers(
            0, 2, int(2.5 * store.unit_capacity_bits)
        ).astype(np.uint8)
        image = store.encode(bits)
        assert image.n_units == n_units
        padded = np.zeros(n_units * store.unit_capacity_bits, dtype=np.uint8)
        padded[: bits.size] = bits
        for u, unit in enumerate(image.units):
            reference = encode_loop_reference(
                store.pipeline,
                padded[u::n_units][: len(range(u, bits.size, n_units))],
            )
            assert unit.strands == reference.strands
            np.testing.assert_array_equal(unit.matrix, reference.matrix)


class TestBatchedDecodeDifferential:
    def test_multi_unit_spanning_batch(self, rng):
        store, bits, _, batch = make_store_case(rng)
        assert_read_matches_oracle(store, batch, bits.size)

    def test_dropout_heavy(self, rng):
        """Gamma coverage with a low mean loses whole clusters; lost
        clusters, erased columns and invalid strands must agree."""
        store = DnaStore(CONFIG)
        bits = rng.integers(
            0, 2, int(2.2 * store.unit_capacity_bits)
        ).astype(np.uint8)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.12), GammaCoverage(2.0, shape=1.0)
        )
        batch = simulator.sequence_store(image, rng=rng)
        assert batch.lost_clusters().size > 0
        got = assert_read_matches_oracle(store, batch, bits.size)
        assert got.report.total_erased_columns > 0

    def test_global_ranking(self, rng):
        config = PipelineConfig(matrix=CONFIG.matrix, layout="dnamapper")
        store = DnaStore(config)
        n_bits = int(1.8 * store.unit_capacity_bits)
        ranking = proportional_share_ranking([n_bits // 4,
                                              n_bits - n_bits // 4])
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        image = store.encode(bits, ranking=ranking)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.04), FixedCoverage(8)
        )
        batch = simulator.sequence_store(image, rng=rng)
        got = assert_read_matches_oracle(store, batch, n_bits,
                                         ranking=ranking)
        np.testing.assert_array_equal(got.bits, bits)

    def test_confidence_threshold(self, rng):
        """Confidence-aware decoding: the batched path's vectorized
        confidence-cell extraction must reproduce the per-estimate loop."""
        store, bits, _, batch = make_store_case(
            rng, rate=0.08, coverage=5,
            reconstructor=PosteriorReconstructor(
                channel=ErrorModel.uniform(0.08)
            ),
        )
        assert_read_matches_oracle(store, batch, bits.size,
                                   confidence_threshold=0.95)

    def test_input_forms_equivalent(self, rng):
        """Spanning batch, per-unit batches and per-unit cluster lists
        must all decode identically."""
        store, bits, image, batch = make_store_case(rng, rate=0.06)
        n_columns = CONFIG.matrix.n_columns
        per_unit_batches = [
            batch.select_clusters(u * n_columns, (u + 1) * n_columns)
            for u in range(image.n_units)
        ]
        per_unit_clusters = [b.to_clusters() for b in per_unit_batches]
        spanning, _ = store.read(ReadRequest(batch, bits.size))
        from_batches, _ = store.read(ReadRequest(per_unit_batches, bits.size))
        from_clusters, _ = store.read(
            ReadRequest(per_unit_clusters, bits.size)
        )
        np.testing.assert_array_equal(spanning, from_batches)
        np.testing.assert_array_equal(spanning, from_clusters)

    def test_single_unit_store(self, rng):
        store, bits, _, batch = make_store_case(rng, n_units_fraction=0.6)
        got = assert_read_matches_oracle(store, batch, bits.size)
        np.testing.assert_array_equal(got.bits, bits)

    def test_wrong_cluster_count_rejected(self, rng):
        store, bits, _, batch = make_store_case(rng)
        with pytest.raises(ValueError):
            store.read(ReadRequest(
                batch.select_clusters(0, CONFIG.matrix.n_columns), bits.size
            ))
        with pytest.raises(ValueError):
            store.read(ReadRequest([batch.to_clusters()], bits.size))


class TestReceiveParseDifferential:
    @pytest.mark.parametrize("threshold", [None, 0.9])
    def test_receive_many_matches_scalar_parse(self, rng, threshold):
        """The vectorized parse == the per-estimate loop, unit by unit —
        matrix, erased and duplicate columns, invalid strands and
        confidence cells — with a duplicate claim, a bad index and a lost
        cluster mixed in."""
        store, _, image, batch = make_store_case(
            rng, n_units_fraction=1.5, rate=0.08, coverage=4,
            reconstructor=PosteriorReconstructor(
                channel=ErrorModel.uniform(0.08)
            ),
        )
        n_columns = CONFIG.matrix.n_columns
        units = [
            batch.select_clusters(u * n_columns,
                                  (u + 1) * n_columns).to_clusters()
            for u in range(image.n_units)
        ]
        units[0][5] = ReadCluster(source_index=5,
                                  reads=[image.units[0].strands[4]] * 3)
        bogus = "TTTT" + image.units[1].strands[0][4:]  # index 255
        units[1][0] = ReadCluster(source_index=0, reads=[bogus] * 3)
        units[1][7] = ReadCluster(source_index=7, reads=[])
        per_unit = [ReadBatch.from_clusters(unit) for unit in units]
        got = store.pipeline.receive_many(
            ReadBatch.concat(per_unit),
            np.arange(len(units) + 1) * n_columns,
            confidence_threshold=threshold,
        )
        for received, unit_batch in zip(got, per_unit):
            want = receive_loop_reference(store.pipeline, unit_batch,
                                          threshold)
            np.testing.assert_array_equal(received.matrix, want.matrix)
            assert received.erased_columns == want.erased_columns
            assert received.duplicate_columns == want.duplicate_columns
            assert received.invalid_strands == want.invalid_strands
            assert received.cell_erasures == want.cell_erasures
        assert 4 in got[0].duplicate_columns
        assert got[1].invalid_strands >= 1
        assert (len(got[1].cell_erasures) > 0) == (threshold is not None)


class TestSingleBatchCall:
    def test_store_decode_issues_exactly_one_batch_call(self, rng):
        calls = []

        class CountingTwoWay(TwoWayReconstructor):
            def reconstruct_batch(self, batch, length):
                calls.append(batch.n_clusters)
                return super().reconstruct_batch(batch, length)

        store, bits, image, batch = make_store_case(
            rng, n_units_fraction=4.2, reconstructor=CountingTwoWay()
        )
        assert image.n_units >= 4
        decoded, report = store.read(ReadRequest(batch, bits.size))
        assert len(calls) == 1
        assert calls[0] == batch.drop_lost().n_clusters

    def test_reference_issues_one_call_per_unit(self, rng):
        """The per-unit oracle the perf floor times really pays one
        reconstructor call per unit."""
        calls = []

        class CountingTwoWay(TwoWayReconstructor):
            def reconstruct_batch(self, batch, length):
                calls.append(batch.n_clusters)
                return super().reconstruct_batch(batch, length)

        store, bits, image, batch = make_store_case(
            rng, n_units_fraction=4.2, reconstructor=CountingTwoWay()
        )
        decode_units_reference(store, batch, bits.size)
        assert len(calls) == image.n_units


class TestReadPoolForStore:
    def test_pool_spans_all_units_and_decodes(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(
            0, 2, int(2.3 * store.unit_capacity_bits)
        ).astype(np.uint8)
        image = store.encode(bits)
        pool = ReadPool.for_store(
            image, ErrorModel.uniform(0.04), max_coverage=8, rng=rng
        )
        assert len(pool) == image.total_strands
        batch = pool.batch_at(8)
        decoded, report = store.read(ReadRequest(batch, bits.size))
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_nested_prefixes_match_per_unit_reference(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(
            0, 2, int(2.1 * store.unit_capacity_bits)
        ).astype(np.uint8)
        image = store.encode(bits)
        pool = ReadPool.for_store(
            image, ErrorModel.uniform(0.08), max_coverage=6, rng=rng
        )
        for coverage in (2, 4, 6):
            assert_read_matches_oracle(store, pool.batch_at(coverage),
                                       bits.size)


#: Small units keep the property's oracle loops and posterior sweeps fast.
PROPERTY_MATRIX = MatrixConfig(m=8, n_columns=16, nsym=4, payload_rows=4)
INPUT_FORMS = ("batch", "batches", "clusters", "pool")


def request_material(store, image, form, rate, seed):
    """One stored object's reads in ``form``, plus the per-unit pieces
    the oracle decodes (pools clustered the way ``read`` clusters them)."""
    simulator = SequencingSimulator(
        ErrorModel.uniform(rate), GammaCoverage(5, shape=3)
    )
    config = store.pipeline.matrix_config
    if form == "pool":
        pool = simulator.sequence_store(image, rng=seed, labeled=False)
        clusterer = BatchedGreedyClusterer.for_strand_length(
            config.strand_length
        )
        labeled, bounds = clusterer.cluster_pools(pool)
        return pool, [
            labeled.select_clusters(int(bounds[u]), int(bounds[u + 1]))
            for u in range(image.n_units)
        ]
    batch = simulator.sequence_store(image, rng=seed)
    per_unit = [
        batch.select_clusters(u * config.n_columns,
                              (u + 1) * config.n_columns)
        for u in range(image.n_units)
    ]
    if form == "batch":
        return batch, batch
    if form == "batches":
        return per_unit, per_unit
    clusters = [piece.to_clusters() for piece in per_unit]
    return clusters, clusters


class TestReadManyProperty:
    @pytest.mark.slow
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_read_many_answers_like_solo_reads_and_the_oracle(self, data):
        """Over 1-3 requests of 1-3 units each, in any input form, a
        shuffled ``read_many`` answers every request exactly — bits and
        every DecodeReport field — like its solo ``read`` and like the
        per-unit oracle decode."""
        layout = data.draw(st.sampled_from(["baseline", "gini",
                                            "dnamapper"]))
        rate = data.draw(st.sampled_from([0.0, 0.03, 0.08]))
        soft = data.draw(st.booleans())
        reconstructor = (
            PosteriorReconstructor(channel=ErrorModel.uniform(max(rate, 0.01)))
            if soft else None
        )
        store = DnaStore(PipelineConfig(matrix=PROPERTY_MATRIX,
                                        layout=layout),
                         reconstructor=reconstructor)
        requests, pieces = [], []
        for _ in range(data.draw(st.integers(1, 3))):
            n_units = data.draw(st.integers(1, 3))
            form = data.draw(st.sampled_from(INPUT_FORMS))
            threshold = (data.draw(st.sampled_from([None, 0.9]))
                         if soft else None)
            seed = data.draw(st.integers(0, 2**32 - 1))
            rng = np.random.default_rng(seed)
            n_bits = int((n_units - 1 + rng.uniform(0.2, 1.0))
                         * store.unit_capacity_bits)
            image = store.encode(rng.integers(0, 2, n_bits, dtype=np.uint8))
            reads, unit_pieces = request_material(store, image, form, rate,
                                                  seed)
            requests.append(ReadRequest(
                reads, n_bits, pool=form == "pool",
                confidence_threshold=threshold,
            ))
            pieces.append(unit_pieces)
        order = data.draw(st.permutations(list(range(len(requests)))))
        together = store.read_many([requests[i] for i in order])
        for i, result in zip(order, together):
            request = requests[i]
            solo = store.read(request)
            oracle_bits, oracle_report = decode_units_reference(
                store, pieces[i], request.n_data_bits,
                confidence_threshold=request.confidence_threshold,
            )
            for bits, report in ((solo.bits, solo.report),
                                 (oracle_bits, oracle_report)):
                np.testing.assert_array_equal(result.bits, bits)
                assert_reports_equal(result.report, report)


class TestConcat:
    def test_concat_rebases_cluster_ids(self, rng):
        pieces = [
            ReadBatch.from_arrays([
                [rng.integers(0, 4, rng.integers(3, 9)).astype(np.uint8)
                 for _ in range(int(k))]
                for k in rng.integers(0, 4, size=5)
            ])
            for _ in range(3)
        ]
        spanning = ReadBatch.concat(pieces)
        assert spanning.n_clusters == 15
        assert spanning.n_reads == sum(p.n_reads for p in pieces)
        offset = 0
        row = 0
        for piece in pieces:
            for c in range(piece.n_clusters):
                for want in piece.reads_of(c):
                    np.testing.assert_array_equal(spanning.read(row), want)
                    assert spanning.cluster_ids[row] == offset + c
                    row += 1
            offset += piece.n_clusters

    def test_concat_of_zero_copy_subbatches_is_tight(self, rng):
        """Concatenating pool sub-batches must copy only the selected
        reads, not the parent buffers."""
        parent = ReadBatch.from_arrays([
            [rng.integers(0, 4, 8).astype(np.uint8) for _ in range(4)]
            for _ in range(6)
        ])
        pieces = [parent.select_clusters(0, 3), parent.select_clusters(3, 6)]
        trimmed = [p.select_prefix(np.full(3, 2)) for p in pieces]
        spanning = ReadBatch.concat(trimmed)
        assert spanning.buffer.size == spanning.lengths.sum()
        assert spanning.n_clusters == 6
        for c in range(3):
            for i, want in enumerate(parent.reads_of(c)[:2]):
                np.testing.assert_array_equal(
                    spanning.reads_of(c)[i], want
                )

    def test_concat_empty(self):
        empty = ReadBatch.concat([])
        assert empty.n_clusters == 0
        assert empty.n_reads == 0
