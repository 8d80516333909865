"""Property: every tick answers exactly like a solo ``DnaStore.read``.

Random tick sequences mix duplicate tickets, cached and cold objects,
1- and 2-unit objects, labeled and pooled reads, a ranked object, a
cache small enough to evict (or none at all), batch windows that split
a burst over several ticks, and re-``put``s of an object between ticks.
Every answer's bits, verdict and per-unit report must equal what a solo
``store.read`` of the object's current request gives, and the cache
never holds more units than its capacity.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channel import (
    ErrorModel,
    FixedCoverage,
    GammaCoverage,
    SequencingSimulator,
)
from repro.core import MatrixConfig, PipelineConfig, ReadRequest
from repro.core.store import DnaStore
from repro.service import StoreService

MATRIX = MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=6)

#: object id -> (units, pooled reads, ranked payload)
SHAPES = {
    "one": (1, False, False),
    "two": (2, False, True),
    "pool-one": (1, True, False),
    "pool-two": (2, True, False),
}
#: Material versions a re-put switches between: a clean channel, and a
#: noisy one with dropouts that erases columns and fails codewords.
CHANNELS = (
    (ErrorModel.uniform(0.01), FixedCoverage(5)),
    (ErrorModel.uniform(0.05), GammaCoverage(3, shape=1.5)),
)


@pytest.fixture(scope="module")
def corpus():
    """``(store, put options per (object, version), solo read per
    (object, version))``."""
    store = DnaStore(PipelineConfig(matrix=MATRIX))
    rng = np.random.default_rng(11)
    options = {}
    solo = {}
    for oid, (units, pooled, ranked) in SHAPES.items():
        for version, (errors, coverage) in enumerate(CHANNELS):
            bits = rng.integers(
                0, 2, units * store.unit_capacity_bits - 3 * (units - 1),
                dtype=np.uint8,
            )
            ranking = rng.permutation(bits.size) if ranked else None
            image = store.encode(bits, ranking=ranking)
            reads = SequencingSimulator(errors, coverage).sequence_store(
                image, rng=rng, labeled=not pooled
            )
            options[oid, version] = dict(reads=reads, n_data_bits=bits.size,
                                         pool=pooled, ranking=ranking)
            solo[oid, version] = store.read(
                ReadRequest(**options[oid, version])
            )
    return store, options, solo


def test_corpus_covers_failures_and_erasures(corpus):
    """The noisy channel must actually exercise the report fields."""
    _, _, solo = corpus
    reports = [unit for result in solo.values()
               for unit in result.report.unit_reports]
    assert any(unit.erased_columns for unit in reports)
    assert any(unit.corrected_symbols for unit in reports)
    assert not all(result.clean for result in solo.values())


def assert_answers_like(answer, solo):
    np.testing.assert_array_equal(answer.bits, solo.bits)
    assert answer.clean == solo.clean
    got, want = answer.report.unit_reports, solo.report.unit_reports
    assert len(got) == len(want)
    for unit, reference in zip(got, want):
        assert list(unit.erased_columns) == list(reference.erased_columns)
        assert list(unit.failed_codewords) == \
            list(reference.failed_codewords)
        assert unit.corrected_symbols == reference.corrected_symbols


object_ids = st.sampled_from(sorted(SHAPES))
tick = st.tuples(st.just("tick"), st.lists(object_ids, min_size=1,
                                          max_size=6))
reput = st.tuples(st.just("put"), object_ids,
                  st.integers(0, len(CHANNELS) - 1))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=st.lists(st.one_of(tick, reput), min_size=1, max_size=8),
       capacity=st.integers(0, 5),
       window=st.sampled_from([None, 1, 2, 4]))
def test_ticks_answer_like_solo_reads(corpus, steps, capacity, window):
    store, options, solo = corpus
    service = StoreService(store, cache_capacity=capacity,
                           batch_window=window)
    version = {}
    for oid in SHAPES:
        service.put(oid, **options[oid, 0])
        version[oid] = 0
    for step in steps:
        if step[0] == "put":
            _, oid, version[oid] = step
            service.put(oid, **options[oid, version[oid]])
            continue
        tickets = [(service.submit(oid), oid) for oid in step[1]]
        answers = []
        while service.queue_depth:
            answers.extend(service.tick())
            assert len(service.cache) <= capacity
        assert [answer.request_id for answer in answers] == \
            [ticket for ticket, _ in tickets]
        for answer, (_, oid) in zip(answers, tickets):
            assert answer.object_id == oid
            assert_answers_like(answer, solo[oid, version[oid]])
