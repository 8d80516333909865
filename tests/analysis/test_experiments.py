"""Tests for the experiment harnesses."""

import numpy as np
import pytest

from repro.analysis import (
    CATASTROPHIC_LOSS_DB,
    ImageStoreExperiment,
    min_coverage_for_error_free,
    min_coverage_vs_redundancy,
)
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig
from repro.media import synth_image

SMALL = MatrixConfig(m=8, n_columns=50, nsym=10, payload_rows=8)


class TestMinCoverage:
    def test_noiseless_needs_single_read(self):
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=SMALL))
        result = min_coverage_for_error_free(
            pipeline, error_rate=0.0, coverages=[1, 2, 3], trials=2, rng=0,
        )
        assert result == 1.0

    @pytest.mark.slow
    def test_noisier_channel_needs_more_coverage(self):
        # Smallest sweep that still separates the two rates: the 10% channel
        # needs well under 13 reads on this geometry, so the grid is not
        # saturated and the ordering is structural, not statistical.
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=SMALL))
        low = min_coverage_for_error_free(
            pipeline, 0.03, coverages=range(1, 13), trials=2, rng=1,
        )
        high = min_coverage_for_error_free(
            pipeline, 0.10, coverages=range(1, 13), trials=2, rng=1,
        )
        assert high > low

    def test_failure_reported_beyond_grid(self):
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=SMALL))
        result = min_coverage_for_error_free(
            pipeline, error_rate=0.30, coverages=[1], trials=1, rng=2,
        )
        assert result == 2.0  # max + 1 signals "not achievable on the grid"

    def test_validation(self):
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=SMALL))
        with pytest.raises(ValueError):
            min_coverage_for_error_free(pipeline, 0.1, [], trials=1)
        with pytest.raises(ValueError):
            min_coverage_for_error_free(pipeline, 0.1, [1], trials=0)


class TestMinCoverageVsRedundancy:
    @pytest.mark.slow
    def test_less_redundancy_never_cheaper(self):
        results = min_coverage_vs_redundancy(
            SMALL, layout="gini", error_rate=0.06,
            effective_nsym_values=[10, 4],
            coverages=range(1, 16), trials=2, rng=3,
        )
        full = dict(results)[10]
        reduced = dict(results)[4]
        assert reduced >= full

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            min_coverage_vs_redundancy(
                SMALL, "baseline", 0.06, effective_nsym_values=[0],
                coverages=[1],
            )


@pytest.fixture(scope="module")
def store():
    matrix = MatrixConfig(m=8, n_columns=110, nsym=20, payload_rows=14)
    images = [synth_image(48, 48, rng=i) for i in range(2)]
    return ImageStoreExperiment(images, matrix, layout="dnamapper",
                                quality=60, rng=5)


class TestImageStoreExperiment:
    def test_archive_fits(self, store):
        assert store.archive.n_bits <= store.pipeline.capacity_bits

    def test_clean_retrieval_is_lossless(self, store):
        pool = store.build_pool(error_rate=0.0, max_coverage=1, rng=0)
        result = store.retrieve(pool.batch_at(1))
        assert result.archive_ok and result.decode_clean
        assert result.mean_loss_db == 0.0
        assert result.n_catastrophic == 0

    def test_noisy_retrieval_at_high_coverage(self, store):
        pool = store.build_pool(error_rate=0.05, max_coverage=10, rng=1)
        result = store.retrieve(pool.batch_at(10))
        assert result.archive_ok
        assert result.mean_loss_db < 1.0  # at most barely noticeable

    def test_low_coverage_degrades_gracefully(self, store):
        pool = store.build_pool(error_rate=0.08, max_coverage=10, rng=2)
        good = store.retrieve(pool.batch_at(10))
        bad = store.retrieve(pool.batch_at(3))
        assert bad.mean_loss_db >= good.mean_loss_db

    def test_catastrophic_loss_capped(self, store):
        pool = store.build_pool(error_rate=0.30, max_coverage=2, rng=3)
        result = store.retrieve(pool.batch_at(2))
        assert all(loss <= CATASTROPHIC_LOSS_DB for loss in result.losses_db)

    def test_baseline_layout_variant(self):
        matrix = MatrixConfig(m=8, n_columns=110, nsym=20, payload_rows=14)
        images = [synth_image(48, 48, rng=9)]
        experiment = ImageStoreExperiment(images, matrix, layout="baseline",
                                          quality=60, rng=6)
        pool = experiment.build_pool(error_rate=0.0, max_coverage=1, rng=0)
        result = experiment.retrieve(pool.batch_at(1))
        assert result.mean_loss_db == 0.0

    def test_unencrypted_variant(self):
        matrix = MatrixConfig(m=8, n_columns=110, nsym=20, payload_rows=14)
        images = [synth_image(48, 48, rng=10)]
        experiment = ImageStoreExperiment(images, matrix, layout="gini",
                                          quality=60, encrypt=False, rng=7)
        pool = experiment.build_pool(error_rate=0.0, max_coverage=1, rng=0)
        assert experiment.retrieve(pool.batch_at(1)).mean_loss_db == 0.0

    def test_archive_too_big_rejected(self):
        tiny = MatrixConfig(m=8, n_columns=20, nsym=4, payload_rows=4)
        with pytest.raises(ValueError):
            ImageStoreExperiment([synth_image(64, 64, rng=0)], tiny, rng=8)
