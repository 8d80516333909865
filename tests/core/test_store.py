"""Tests for the multi-unit store."""

import numpy as np
import pytest

from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.core import MatrixConfig, PipelineConfig, ReadRequest
from repro.core.ranking import proportional_share_ranking
from repro.core.store import DnaStore

CONFIG = PipelineConfig(
    matrix=MatrixConfig(m=8, n_columns=40, nsym=8, payload_rows=8),
    layout="gini",
)


def _sequence_units(image, error_rate, coverage, rng):
    simulator = SequencingSimulator(
        ErrorModel.uniform(error_rate), FixedCoverage(coverage)
    )
    return [simulator.sequence(unit.strands, rng) for unit in image.units]


class TestUnitsNeeded:
    def test_single_unit(self):
        store = DnaStore(CONFIG)
        assert store.units_needed(store.unit_capacity_bits) == 1

    def test_boundary(self):
        store = DnaStore(CONFIG)
        assert store.units_needed(store.unit_capacity_bits + 1) == 2

    def test_empty_payload_needs_one_unit(self):
        assert DnaStore(CONFIG).units_needed(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DnaStore(CONFIG).units_needed(-1)


class TestRoundtrip:
    def test_single_unit_roundtrip(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(0, 2, store.unit_capacity_bits // 2).astype(np.uint8)
        image = store.encode(bits)
        assert image.n_units == 1
        decoded, report = store.read(ReadRequest(
            _sequence_units(image, 0.0, 1, rng), bits.size
        ))
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_multi_unit_roundtrip(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(0, 2, int(2.5 * store.unit_capacity_bits)).astype(np.uint8)
        image = store.encode(bits)
        assert image.n_units == 3
        assert image.total_strands == 3 * 40
        decoded, report = store.read(ReadRequest(
            _sequence_units(image, 0.0, 1, rng), bits.size
        ))
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_noisy_multi_unit_roundtrip(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(0, 2, int(1.7 * store.unit_capacity_bits)).astype(np.uint8)
        image = store.encode(bits)
        decoded, report = store.read(ReadRequest(
            _sequence_units(image, 0.05, 9, rng), bits.size
        ))
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_global_ranking_roundtrip(self, rng):
        config = PipelineConfig(matrix=CONFIG.matrix, layout="dnamapper")
        store = DnaStore(config)
        n_bits = int(1.5 * store.unit_capacity_bits)
        # Two "files" of different sizes sharing the store.
        sizes = [n_bits // 3, n_bits - n_bits // 3]
        ranking = proportional_share_ranking(sizes)
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        image = store.encode(bits, ranking=ranking)
        decoded, report = store.read(ReadRequest(
            _sequence_units(image, 0.0, 1, rng), bits.size, ranking=ranking,
        ))
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_priority_striped_evenly(self, rng):
        """Each unit receives an even share of every priority band."""
        store = DnaStore(CONFIG)
        n_bits = 2 * store.unit_capacity_bits
        bits = np.zeros(n_bits, dtype=np.uint8)
        bits[: n_bits // 2] = 1  # the "important half" is all ones
        # Stripe u gets bits u, u+2, u+4, ... so each stripe holds exactly
        # half ones — an even share of the important half.
        for u in range(2):
            assert abs(bits[u::2].mean() - 0.5) < 0.01


class TestValidation:
    def test_wrong_unit_count_rejected(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(0, 2, 2 * store.unit_capacity_bits).astype(np.uint8)
        image = store.encode(bits)
        clusters = _sequence_units(image, 0.0, 1, rng)
        with pytest.raises(ValueError):
            store.read(ReadRequest(clusters[:1], bits.size))

    def test_bad_ranking_rejected(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(0, 2, 100).astype(np.uint8)
        with pytest.raises(ValueError):
            store.encode(bits, ranking=np.arange(50))

    def test_report_aggregation(self, rng):
        store = DnaStore(CONFIG)
        bits = rng.integers(0, 2, 2 * store.unit_capacity_bits).astype(np.uint8)
        image = store.encode(bits)
        clusters = _sequence_units(image, 0.0, 1, rng)
        clusters[0][3] = type(clusters[0][3])(source_index=3, reads=[])
        decoded, report = store.read(ReadRequest(clusters, bits.size))
        assert report.clean  # one erasure is well within nsym=8
        assert report.total_erased_columns == 1
        assert report.total_failed_codewords == 0
        np.testing.assert_array_equal(decoded, bits)
