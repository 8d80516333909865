"""Section 6.2: the wetlab validation, simulated.

The paper synthesized two small images under all three organizations
(baseline, Gini, DnaMapper), sequenced with NGS at ~0.3% error, and
successfully decoded everything ("the impact of the proposed techniques
on ultra-low error rates with NGS is negligible"). The same toolchain is
exercised here with the NGS channel profile in place of the sequencer.
"""

import numpy as np

from benchmarks.conftest import print_series
from repro.analysis import ImageStoreExperiment
from repro.channel import ReadPool, illumina_profile
from repro.core import MatrixConfig
from repro.media import synth_image

MATRIX = MatrixConfig(m=8, n_columns=140, nsym=26, payload_rows=20)
NGS_ERROR_RATE = 0.003  # the paper's measured wetlab rate
COVERAGE = 6


def run_experiment(rng=2022):
    generator = np.random.default_rng(rng)
    images = [synth_image(64, 64, rng=generator) for _ in range(2)]
    outcomes = {}
    for layout in ("baseline", "gini", "dnamapper"):
        experiment = ImageStoreExperiment(
            images, MATRIX, layout=layout, quality=65, rng=generator,
        )
        pool = ReadPool(
            experiment.unit.strands,
            illumina_profile(NGS_ERROR_RATE),
            max_coverage=COVERAGE,
            rng=generator,
        )
        result = experiment.retrieve(pool.batch_at(COVERAGE))
        outcomes[layout] = result
    return outcomes


def test_wetlab_validation(benchmark):
    outcomes = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_series(
        "Wetlab validation (simulated NGS @ 0.3%): mean image loss (dB)",
        ["mean_loss_db", "clean_decode"],
        {
            layout: [result.mean_loss_db, float(result.decode_clean)]
            for layout, result in outcomes.items()
        },
    )
    # Every organization decodes every image perfectly, as in the paper.
    for layout, result in outcomes.items():
        assert result.archive_ok, layout
        assert result.decode_clean, layout
        assert result.mean_loss_db == 0.0, layout
        assert result.n_catastrophic == 0, layout
