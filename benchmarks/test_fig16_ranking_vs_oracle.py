"""Figure 16: the positional ranking heuristic versus the oracle ranking.

Paper setup: a single image stored *without error correction*; three
mappings are compared over a coverage sweep — the baseline (no priority
mapping), "our approach" (DnaMapper with the zero-metadata positional
heuristic), and an oracle that ranks every bit by brute-force measured
PSNR damage. Expected result: the heuristic tracks the oracle closely
(the oracle is not visibly better), and both dramatically outperform the
baseline as coverage drops.
"""

import numpy as np

from benchmarks.conftest import print_series
from repro.analysis.experiments import CATASTROPHIC_LOSS_DB
from repro.channel import ErrorModel, ReadPool
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig
from repro.core.ranking import identity_ranking, oracle_ranking
from repro.media import JpegCodec, quality_loss_db, synth_image
from repro.utils.bitio import bits_to_bytes, bytes_to_bits

MATRIX = MatrixConfig(m=8, n_columns=100, nsym=0, payload_rows=12)
ERROR_RATE = 0.08
COVERAGES = (10, 8, 6, 5, 4, 3)
POOL_REPEATS = 5


def _mean_loss(pipeline, ranking, bits, codec, image, clean, rng):
    unit = pipeline.encode(bits, ranking=ranking)
    series = []
    for coverage in COVERAGES:
        total = 0.0
        for _ in range(POOL_REPEATS):
            pool = ReadPool(unit.strands, ErrorModel.uniform(ERROR_RATE),
                            max_coverage=max(COVERAGES), rng=rng)
            decoded_bits, _ = pipeline.decode(
                pool.batch_at(coverage), bits.size, ranking=ranking,
            )
            decoded, _ = codec.decode_robust(bits_to_bytes(decoded_bits))
            if decoded.shape != clean.shape:
                total += CATASTROPHIC_LOSS_DB
            else:
                total += quality_loss_db(image, clean, decoded)
        series.append(total / POOL_REPEATS)
    return series


def run_experiment(rng=2022):
    generator = np.random.default_rng(rng)
    codec = JpegCodec(quality=55)
    image = synth_image(48, 48, rng=generator)
    compressed = codec.encode(image)
    clean = codec.decode(compressed)
    bits = bytes_to_bits(compressed)
    assert bits.size <= MATRIX.data_bits

    baseline_pipe = DnaStoragePipeline(
        PipelineConfig(matrix=MATRIX, layout="baseline")
    )
    mapper_pipe = DnaStoragePipeline(
        PipelineConfig(matrix=MATRIX, layout="dnamapper")
    )
    oracle = oracle_ranking(compressed, codec=codec, original=image)
    return {
        "baseline": _mean_loss(baseline_pipe, None, bits, codec, image,
                               clean, generator),
        "ours": _mean_loss(mapper_pipe, identity_ranking(bits.size), bits,
                           codec, image, clean, generator),
        "oracle": _mean_loss(mapper_pipe, oracle, bits, codec, image,
                             clean, generator),
    }


def test_fig16_ranking_vs_oracle(benchmark):
    losses = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_series(
        "Fig 16: quality loss (dB) without ECC",
        list(COVERAGES),
        losses,
    )
    baseline = np.array(losses["baseline"])
    ours = np.array(losses["ours"])
    oracle = np.array(losses["oracle"])
    # Priority mapping beats the baseline once the channel bites.
    stressed = baseline > 3.0
    assert stressed.any()
    assert ours[stressed].mean() < 0.8 * baseline[stressed].mean()
    # The zero-metadata heuristic tracks the expensive oracle closely
    # (the paper: "does not perform visibly better").
    assert ours.mean() < oracle.mean() + 3.0
