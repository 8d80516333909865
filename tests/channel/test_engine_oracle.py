"""Property: the slimmed IDS pass against the frozen one-draw pass.

:func:`repro.channel.engine.batched_ids_pass` frees its per-base arrays
early and places the output from the event indices instead of a cumsum
of emission counts. Over random template sets — uniform, variable-length
with zero-length templates, laid out with gaps in their buffer — random
read lists, scalar models (noiseless, all-delete and all-insert
included), 1-D and 2-D :class:`ErrorRateMap` rates and both alphabets,
it must emit the same bytes and per-read lengths as
:func:`oracles.channel.batched_ids_pass_reference` and leave the
generator in the same state. The composed engine, synthesis stage
included, must produce the same batch on either pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.channel.engine as engine_module
from oracles.channel import batched_ids_pass_reference
from repro.channel import (
    BatchedChannelEngine,
    ErrorModel,
    ErrorRateMap,
    FixedCoverage,
    GammaCoverage,
    batched_ids_pass,
)

#: Longest template a drawn set may hold; rate maps cover this many
#: positions.
MAX_LENGTH = 40

probabilities = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def scalar_models(draw):
    """Random rates, plus the corners: noiseless, all-delete, all-insert,
    all-substitute."""
    corner = draw(st.sampled_from([None, "noiseless", "delete", "insert",
                                   "substitute"]))
    if corner == "noiseless":
        return ErrorModel.uniform(0.0)
    if corner == "delete":
        return ErrorModel(0.0, 1.0, 0.0)
    if corner == "insert":
        return ErrorModel(1.0, 0.0, 0.0)
    if corner == "substitute":
        return ErrorModel(0.0, 0.0, 1.0)
    ins, dele, sub = (draw(probabilities) for _ in range(3))
    scale = max(1.0, ins + dele + sub) * 1.000001
    return ErrorModel(ins / scale, dele / scale, sub / scale)


def rate_map(seed, rows):
    """A positional map over ``MAX_LENGTH`` positions: shared by every
    strand (``rows=None``) or one row per strand."""
    rng = np.random.default_rng(seed)
    shape = (MAX_LENGTH,) if rows is None else (rows, MAX_LENGTH)
    rates = rng.random((3,) + shape) * rng.random()
    rates /= np.maximum(1.0, rates.sum(axis=0) * 1.000001)
    return ErrorRateMap(p_insertion=rates[0], p_deletion=rates[1],
                        p_substitution=rates[2])


@st.composite
def template_sets(draw):
    """``(buffer, offsets, lengths)``: uniform and tight, or of mixed
    lengths (zero included), optionally with junk between templates."""
    seed = draw(st.integers(0, 2 ** 16))
    n_alphabet = draw(st.sampled_from([2, 4]))
    rng = np.random.default_rng(seed)
    n_templates = draw(st.integers(1, 6))
    if draw(st.booleans()):
        length = draw(st.integers(1, MAX_LENGTH))
        buffer = rng.integers(0, n_alphabet, n_templates * length,
                              dtype=np.uint8)
        lengths = np.full(n_templates, length, dtype=np.int64)
        offsets = np.arange(n_templates, dtype=np.int64) * length
        return buffer, offsets, lengths, n_alphabet
    lengths = np.array(draw(st.lists(st.integers(0, MAX_LENGTH),
                                     min_size=n_templates,
                                     max_size=n_templates)),
                       dtype=np.int64)
    gaps = np.array(draw(st.lists(st.integers(0, 3), min_size=n_templates,
                                  max_size=n_templates)), dtype=np.int64)
    offsets = np.cumsum(gaps + lengths) - lengths
    buffer = rng.integers(0, n_alphabet, int((gaps + lengths).sum()),
                          dtype=np.uint8)
    return buffer, offsets, lengths, n_alphabet


def assert_same_pass(args, rates, seed, n_alphabet):
    live_rng = np.random.default_rng(seed)
    frozen_rng = np.random.default_rng(seed)
    out, lengths = batched_ids_pass(*args, rates, live_rng, n_alphabet)
    want_out, want_lengths = batched_ids_pass_reference(
        *args, rates, frozen_rng, n_alphabet
    )
    assert out.dtype == want_out.dtype == np.uint8
    assert lengths.dtype == want_lengths.dtype == np.int64
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(lengths, want_lengths)
    assert live_rng.bit_generator.state == frozen_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(templates=template_sets(),
       reads=st.lists(st.integers(0, 5), max_size=24),
       model=scalar_models(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scalar_pass_matches_the_frozen_pass(templates, reads, model, seed):
    buffer, offsets, lengths, n_alphabet = templates
    template_of_read = np.array(reads, dtype=np.int64) % lengths.size
    assert_same_pass((buffer, offsets, lengths, template_of_read), model,
                     seed, n_alphabet)


@settings(max_examples=150, deadline=None)
@given(templates=template_sets(),
       reads=st.lists(st.integers(0, 5), max_size=24),
       map_seed=st.integers(0, 2 ** 16),
       per_strand=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rate_map_pass_matches_the_frozen_pass(templates, reads, map_seed,
                                               per_strand, seed):
    buffer, offsets, lengths, n_alphabet = templates
    template_of_read = np.array(reads, dtype=np.int64) % lengths.size
    rates = rate_map(map_seed, lengths.size if per_strand else None)
    assert_same_pass((buffer, offsets, lengths, template_of_read), rates,
                     seed, n_alphabet)


@settings(max_examples=60, deadline=None)
@given(templates=template_sets(),
       sequencing=st.one_of(scalar_models(), st.integers(0, 2 ** 16)),
       synthesis=st.one_of(st.none(), scalar_models(),
                           st.integers(0, 2 ** 16)),
       gamma=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_engine_with_synthesis_matches_the_frozen_pass(
        templates, sequencing, synthesis, gamma, seed):
    """Both stages of the composed engine, on either pass. An integer
    draws a per-strand rate map; a synthesis stage lengthens or shortens
    the molecules, so sequencing then runs on a mixed-length set."""
    buffer, offsets, lengths, n_alphabet = templates
    strands = [buffer[o:o + n] for o, n in zip(offsets, lengths)]

    def rates(spec):
        if isinstance(spec, int):
            return rate_map(spec, lengths.size)
        return spec

    engine = BatchedChannelEngine(
        sequencing_model=rates(sequencing),
        coverage_model=GammaCoverage(3, shape=2.0) if gamma
        else FixedCoverage(3),
        synthesis_model=rates(synthesis),
        n_alphabet=n_alphabet,
    )
    live_rng = np.random.default_rng(seed)
    live = engine.sequence(strands, live_rng)
    frozen_rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "batched_ids_pass",
                      batched_ids_pass_reference)
        frozen = engine.sequence(strands, frozen_rng)
    for name in ("buffer", "offsets", "lengths", "cluster_ids"):
        np.testing.assert_array_equal(getattr(live, name),
                                      getattr(frozen, name))
    assert live_rng.bit_generator.state == frozen_rng.bit_generator.state
