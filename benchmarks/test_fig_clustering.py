"""Clustering figure: recovery quality and throughput of the columnar
greedy clusterer across channel error rates.

The paper's simulations sidestep clustering ("our data is perfectly
clustered", Section 6.1.2); the columnar clustering subsystem opens the
workload the paper assumes solved upstream — recovering the clusters of
an unlabeled sequencing pool, in the spirit of the Rashtchian et al.
clusterer it cites. This figure measures, per channel error rate on a
quickstart-shaped pool: pairwise precision/recall of the recovered
clusters against the ground truth the simulator knows, cluster-count
inflation (splits create extra clusters; merges would shrink it below
1.0 and break precision first), end-to-end unlabeled decode success,
and the batched clusterer's throughput in kreads/s.

Expected shape: precision pins at 1.0 throughout (distinct 68-base
strands are far beyond any same-cluster threshold), recall erodes
gently as rising error rates push same-strand read pairs past the
threshold and split clusters, and the split clusters inflate the
cluster count — while the unlabeled decode matches the perfect-
clustering (labeled) decode at every rate: split-off consensus strands
land on the same column (first claim wins), RS absorbs the rest, and
where the labeled decode itself fails (coverage 6 is under-provisioned
past ~6% error) the unlabeled one fails with it — clustering adds no
loss of its own.
"""

import time

import numpy as np

from benchmarks.conftest import print_series
from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.cluster import BatchedGreedyClusterer, pair_precision_recall
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig

MATRIX = MatrixConfig(m=8, n_columns=120, nsym=22, payload_rows=16)
ERROR_RATES = (0.02, 0.04, 0.06, 0.08, 0.10)
COVERAGE = 6


def _one_rate(rate, rng):
    generator = np.random.default_rng(rng)
    pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX))
    bits = generator.integers(0, 2, MATRIX.data_bits).astype(np.uint8)
    unit = pipeline.encode(bits)
    simulator = SequencingSimulator(
        ErrorModel.uniform(rate), FixedCoverage(COVERAGE)
    )
    labeled = simulator.sequence_batch(unit.strands, generator)
    permutation = generator.permutation(labeled.n_reads)
    truth = labeled.cluster_ids[permutation]
    pool = labeled.pooled()  # one unlabeled pool over the unit
    pool = type(pool)(
        pool.buffer, pool.offsets[permutation], pool.lengths[permutation],
        pool.cluster_ids, n_clusters=pool.n_clusters,
    )
    clusterer = BatchedGreedyClusterer.for_strand_length(
        MATRIX.strand_length
    )
    start = time.perf_counter()
    predicted, n_clusters = clusterer.assign(pool)
    elapsed = time.perf_counter() - start
    precision, recall = pair_precision_recall(truth, predicted)
    decoded, report = pipeline.decode(clusterer.cluster_batch(pool),
                                      bits.size)
    unlabeled_exact = report.clean and np.array_equal(decoded, bits)
    reference, labeled_report = pipeline.decode(labeled, bits.size)
    labeled_exact = labeled_report.clean \
        and np.array_equal(reference, bits)
    return {
        "precision": precision,
        "recall": recall,
        "clusters_ratio": n_clusters / MATRIX.n_columns,
        "decode_unlabeled": float(unlabeled_exact),
        "decode_labeled": float(labeled_exact),
        "kreads_per_s": pool.n_reads / elapsed / 1e3,
    }


def run_experiment(rng=2022):
    return [_one_rate(rate, rng) for rate in ERROR_RATES]


def test_fig_clustering(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # The quality series are seeded and byte-stable, so they go into the
    # trend-gated evidence; throughput is wall-clock (machine-dependent)
    # and stays out of the series file — the perf-trend job tracks this
    # test's timing through BENCH_timings.json instead.
    print_series(
        f"Fig C: unlabeled-pool clustering recovery vs error rate "
        f"(N={COVERAGE}, L={MATRIX.strand_length})",
        [f"{rate:.0%}" for rate in ERROR_RATES],
        {
            key: [row[key] for row in rows]
            for key in ("precision", "recall", "clusters_ratio",
                        "decode_unlabeled", "decode_labeled")
        },
    )
    throughput = ", ".join(
        f"{rate:.0%}: {row['kreads_per_s']:.1f}"
        for rate, row in zip(ERROR_RATES, rows)
    )
    print(f"clustering throughput (kreads/s by error rate): {throughput}")
    precision = [row["precision"] for row in rows]
    recall = [row["recall"] for row in rows]
    # Distinct strands never merge at the default threshold.
    assert min(precision) == 1.0
    # Splits grow with the error rate but recovery stays high through
    # the quickstart regime.
    assert recall[0] > 0.99
    assert all(row["clusters_ratio"] >= 1.0 for row in rows)
    # The headline: clustering adds no decode loss over the paper's
    # perfect-clustering assumption, at any rate in the sweep.
    assert all(row["decode_unlabeled"] == row["decode_labeled"]
               for row in rows)
    assert rows[0]["decode_unlabeled"] == 1.0
