"""Tests for the batched channel engine.

The heart of this suite is *differential*: the engine's single vectorized
IDS pass must be bit-identical to the per-read reference
(:meth:`ErrorModel.apply_indices`) when both see the same randomness. The
engine documents its RNG stream (one ``random(total)`` draw, then the
substitution offsets, then the inserted bases, all in base order); the
tests re-draw that stream, slice out each read's share, and replay it
through per-read reference calls via a recording Generator subclass.
Statistical tests then pin the realized indel/substitution rates of large
batches to the configured probabilities.
"""

import numpy as np
import pytest

from repro.channel import (
    BatchedChannelEngine,
    ErrorModel,
    ErrorRateMap,
    FixedCoverage,
    GammaCoverage,
    batched_ids_pass,
    as_template_set,
)
from repro.codec.basemap import bases_to_indices, random_bases


class ReplayRng(np.random.Generator):
    """A Generator that replays pre-recorded draws.

    ``random`` pops from the uniform queue; ``integers`` dispatches on its
    lower bound — ``low == 1`` pops substitution offsets, ``low == 0``
    pops inserted bases — mirroring how ``apply_indices`` consumes its
    stream.
    """

    def __init__(self, draws, sub_offsets, ins_bases):
        super().__init__(np.random.PCG64(0))
        self._draws = np.asarray(draws, dtype=np.float64)
        self._subs = np.asarray(sub_offsets, dtype=np.uint8)
        self._ins = np.asarray(ins_bases, dtype=np.uint8)

    def random(self, size=None):
        assert size == self._draws.size, "unexpected uniform draw size"
        return self._draws

    def integers(self, low, high=None, size=None, dtype=np.int64,
                 endpoint=False):
        if low == 1:
            assert size == self._subs.size, "unexpected substitution count"
            return self._subs
        assert low == 0 and size == self._ins.size, "unexpected insert count"
        return self._ins


def _per_read_replay(model, templates, counts, seed, n_alphabet=4):
    """Reference reads generated from the engine's own RNG stream."""
    rng = np.random.default_rng(seed)
    template_of_read = np.repeat(np.arange(len(templates)), counts)
    read_templates = [templates[t] for t in template_of_read]
    in_lengths = np.array([len(t) for t in read_templates], dtype=np.int64)
    total = int(in_lengths.sum())
    draws = rng.random(total)

    flat = np.concatenate(read_templates) if total else np.zeros(0, np.uint8)
    p_del, p_ins, p_sub = (model.p_deletion, model.p_insertion,
                           model.p_substitution)
    deleted = draws < p_del
    inserted = (draws >= p_del) & (draws < p_del + p_ins)
    substituted = (draws >= p_del + p_ins) & (draws < model.total_rate)
    assert flat.size == total
    subs = rng.integers(1, n_alphabet, size=int(substituted.sum()),
                        dtype=np.uint8)
    ins = rng.integers(0, n_alphabet, size=int(inserted.sum()),
                       dtype=np.uint8)

    sub_cum = np.concatenate([[0], np.cumsum(substituted)])
    ins_cum = np.concatenate([[0], np.cumsum(inserted)])
    bounds = np.concatenate([[0], np.cumsum(in_lengths)])
    reads = []
    for i, template in enumerate(read_templates):
        a, b = int(bounds[i]), int(bounds[i + 1])
        replay = ReplayRng(
            draws[a:b],
            subs[int(sub_cum[a]): int(sub_cum[b])],
            ins[int(ins_cum[a]): int(ins_cum[b])],
        )
        reads.append(model.apply_indices(np.asarray(template, dtype=np.uint8),
                                         replay, n_alphabet=n_alphabet))
    return reads


class TestDifferentialVsPerReadReference:
    """Engine output == per-read apply_indices under a shared RNG stream."""

    @pytest.mark.parametrize("model", [
        ErrorModel.uniform(0.09),
        ErrorModel.with_breakdown(0.3, ins_frac=0.45, del_frac=0.4,
                                  sub_frac=0.15),
        ErrorModel.substitutions_only(0.2),
        ErrorModel.indels_only(0.08, 0.12),
    ])
    def test_reads_bit_identical(self, model):
        rng = np.random.default_rng(11)
        templates = [bases_to_indices(random_bases(length, rng))
                     for length in (60, 1, 33, 80, 5)]
        counts = np.array([3, 2, 0, 4, 1])
        engine = BatchedChannelEngine(model)
        batch = engine.sequence_counts(templates, counts, rng=1234)
        reference = _per_read_replay(model, templates, counts, seed=1234)
        assert batch.n_reads == len(reference)
        for i, expected in enumerate(reference):
            np.testing.assert_array_equal(batch.read(i), expected)

    def test_binary_alphabet_bit_identical(self):
        rng = np.random.default_rng(3)
        templates = [rng.integers(0, 2, size=40).astype(np.uint8)
                     for _ in range(6)]
        counts = np.full(6, 3)
        model = ErrorModel.uniform(0.15)
        engine = BatchedChannelEngine(model, n_alphabet=2)
        batch = engine.sequence_counts(templates, counts, rng=77)
        reference = _per_read_replay(model, templates, counts, seed=77,
                                     n_alphabet=2)
        for i, expected in enumerate(reference):
            np.testing.assert_array_equal(batch.read(i), expected)

    def test_noiseless_is_exact_copy_without_rng(self):
        templates = [bases_to_indices(random_bases(30, np.random.default_rng(0)))
                     for _ in range(4)]
        engine = BatchedChannelEngine(ErrorModel.uniform(0.0))
        batch = engine.sequence_counts(templates, np.full(4, 3), rng=0)
        for i in range(batch.n_reads):
            np.testing.assert_array_equal(
                batch.read(i), templates[int(batch.cluster_ids[i])]
            )


class TestEngineStatistics:
    """Realized event rates of large batches match the configuration."""

    def _big_batch(self, model, seed=5, n_strands=40, length=150, depth=25,
                   **kwargs):
        rng = np.random.default_rng(seed)
        strands = rng.integers(0, 4, size=(n_strands, length)).astype(np.uint8)
        engine = BatchedChannelEngine(model, **kwargs)
        batch = engine.sample_pool(strands, depth, rng)
        return strands, batch

    def test_deletion_rate_shrinks_reads(self):
        p = 0.10
        strands, batch = self._big_batch(ErrorModel(0.0, p, 0.0))
        realized = 1.0 - batch.total_bases / (batch.n_reads * strands.shape[1])
        assert realized == pytest.approx(p, abs=0.01)

    def test_insertion_rate_grows_reads(self):
        p = 0.10
        strands, batch = self._big_batch(ErrorModel(p, 0.0, 0.0))
        realized = batch.total_bases / (batch.n_reads * strands.shape[1]) - 1.0
        assert realized == pytest.approx(p, abs=0.01)

    def test_substitution_rate_flips_symbols(self):
        p = 0.12
        strands, batch = self._big_batch(ErrorModel(0.0, 0.0, p))
        length = strands.shape[1]
        mismatches = 0
        for i in range(batch.n_reads):
            read = batch.read(i)
            assert read.size == length  # substitutions never change length
            mismatches += int((read != strands[batch.cluster_ids[i]]).sum())
        realized = mismatches / (batch.n_reads * length)
        assert realized == pytest.approx(p, abs=0.01)

    def test_uniform_split_balances_event_types(self):
        strands, batch = self._big_batch(ErrorModel.uniform(0.09))
        # ins and del rates cancel in expectation: mean length stays L.
        mean_length = batch.total_bases / batch.n_reads
        assert mean_length == pytest.approx(strands.shape[1], rel=0.01)


class TestEngineComposition:
    def test_coverage_model_drives_read_counts(self):
        strands = [random_bases(30, np.random.default_rng(0))
                   for _ in range(200)]
        coverage = GammaCoverage(4, shape=2.0)
        engine = BatchedChannelEngine(ErrorModel.uniform(0.05), coverage)
        batch = engine.sequence(strands, rng=9)
        expected = coverage.sample(len(strands), np.random.default_rng(9))
        np.testing.assert_array_equal(batch.coverage_counts(), expected)
        assert (batch.coverage_counts() == 0).any()  # Gamma dispersion drops some

    def test_synthesis_errors_shared_by_whole_cluster(self):
        strands = [random_bases(120, np.random.default_rng(1))]
        engine = BatchedChannelEngine(
            sequencing_model=ErrorModel.uniform(0.0),
            coverage_model=FixedCoverage(15),
            synthesis_model=ErrorModel.uniform(0.15),
        )
        batch = engine.sequence(strands, rng=2)
        reads = {batch.read_string(i) for i in range(batch.n_reads)}
        assert len(reads) == 1                   # all reads identical
        assert reads.pop() != strands[0]         # but mutated vs the design

    def test_empty_strand_list(self):
        engine = BatchedChannelEngine(ErrorModel.uniform(0.1))
        batch = engine.sequence([], rng=0)
        assert batch.n_clusters == 0 and batch.n_reads == 0

    def test_rate_map_survives_synthesis_lengthening(self):
        """Synthesis insertions can push a molecule past the designed
        length; the sequencing rate map clamps those overflow positions
        to its last entry instead of crashing."""
        length = 40
        rate_map = ErrorRateMap(
            p_insertion=np.zeros(length), p_deletion=np.zeros(length),
            p_substitution=np.full(length, 0.1),
        )
        engine = BatchedChannelEngine(
            sequencing_model=rate_map,
            coverage_model=FixedCoverage(4),
            synthesis_model=ErrorModel(p_insertion=0.3, p_deletion=0.0,
                                       p_substitution=0.0),
        )
        rng = np.random.default_rng(8)
        strands = rng.integers(0, 4, size=(10, length)).astype(np.uint8)
        batch = engine.sequence(strands, rng)
        assert batch.total_bases > 10 * 4 * length  # insertions happened

    def test_simulator_model_reassignment_honored(self):
        """The façades build their engine per call, so swapping the
        public model attributes between calls must take effect."""
        from repro.channel import SequencingSimulator

        strands = [random_bases(30, np.random.default_rng(0))]
        simulator = SequencingSimulator(ErrorModel.uniform(0.0),
                                        FixedCoverage(3))
        noiseless = simulator.sequence_batch(strands, rng=1)
        assert noiseless.read_string(0) == strands[0]
        simulator.error_model = ErrorModel.substitutions_only(0.5)
        noisy = simulator.sequence_batch(strands, rng=1)
        assert noisy.read_string(0) != strands[0]
        simulator.coverage_model = FixedCoverage(7)
        assert simulator.sequence_batch(strands, rng=1).n_reads == 7


class TestErrorRateMap:
    def test_positional_map_localizes_errors(self):
        length = 80
        rates = np.zeros(length)
        rates[length // 2:] = 0.4
        rate_map = ErrorRateMap(
            p_insertion=np.zeros(length), p_deletion=np.zeros(length),
            p_substitution=rates,
        )
        rng = np.random.default_rng(4)
        strands = rng.integers(0, 4, size=(30, length)).astype(np.uint8)
        engine = BatchedChannelEngine(rate_map, FixedCoverage(10))
        batch = engine.sequence(strands, rng)
        front = back = 0
        for i in range(batch.n_reads):
            diff = batch.read(i) != strands[batch.cluster_ids[i]]
            front += int(diff[: length // 2].sum())
            back += int(diff[length // 2:].sum())
        assert front == 0
        realized = back / (batch.n_reads * (length // 2))
        assert realized == pytest.approx(0.4, abs=0.03)

    def test_per_strand_map_rows(self):
        length = 50
        p_sub = np.zeros((2, length))
        p_sub[1] = 0.5
        rate_map = ErrorRateMap(
            p_insertion=np.zeros((2, length)),
            p_deletion=np.zeros((2, length)), p_substitution=p_sub,
        )
        rng = np.random.default_rng(6)
        strands = rng.integers(0, 4, size=(2, length)).astype(np.uint8)
        engine = BatchedChannelEngine(rate_map, FixedCoverage(20))
        batch = engine.sequence(strands, rng)
        for i in range(batch.n_reads):
            mismatches = int((batch.read(i) != strands[batch.cluster_ids[i]]).sum())
            if batch.cluster_ids[i] == 0:
                assert mismatches == 0
            else:
                assert mismatches > 0

    def test_scaled_ramp(self):
        model = ErrorModel.uniform(0.3)
        ramp = ErrorRateMap.scaled(model, np.linspace(0.0, 1.0, 64))
        assert ramp.p_substitution[0] == 0.0
        assert ramp.p_substitution[-1] == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorRateMap(np.zeros(4), np.zeros(5), np.zeros(4))
        with pytest.raises(ValueError):
            ErrorRateMap(np.full(4, 0.6), np.full(4, 0.6), np.zeros(4))
        with pytest.raises(ValueError):
            ErrorRateMap(np.zeros(4), np.zeros(4), np.full(4, -0.1))
        # Map shorter than the template must be rejected at apply time.
        rate_map = ErrorRateMap(np.zeros(4), np.zeros(4), np.full(4, 0.1))
        engine = BatchedChannelEngine(rate_map)
        with pytest.raises(ValueError):
            engine.sequence(["ACGTACGT"], rng=0)


class TestRawPassValidation:
    def test_counts_shape_mismatch(self):
        engine = BatchedChannelEngine(ErrorModel.uniform(0.1))
        with pytest.raises(ValueError):
            engine.sequence_counts(["ACGT"], np.array([1, 2]))
        with pytest.raises(ValueError):
            engine.sequence_counts(["ACGT"], np.array([-1]))
        with pytest.raises(ValueError):
            engine.sample_pool(["ACGT"], depth=0)

    def test_template_set_accepts_all_forms(self):
        from_strings = as_template_set(["ACG", "T"])
        from_arrays = as_template_set([np.array([0, 1, 2], dtype=np.uint8),
                                       np.array([3], dtype=np.uint8)])
        for (buf_a, off_a, len_a), (buf_b, off_b, len_b) in [
            (from_strings, from_arrays)
        ]:
            np.testing.assert_array_equal(buf_a, buf_b)
            np.testing.assert_array_equal(off_a, off_b)
            np.testing.assert_array_equal(len_a, len_b)

    def test_raw_pass_empty(self):
        buffer, offsets, lengths = as_template_set([])
        out, out_lengths = batched_ids_pass(
            buffer, offsets, lengths, np.zeros(0, dtype=np.int64),
            ErrorModel.uniform(0.1), rng=0,
        )
        assert out.size == 0 and out_lengths.size == 0
