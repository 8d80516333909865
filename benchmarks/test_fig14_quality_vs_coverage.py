"""Figure 14: image quality loss vs coverage for all three layouts.

Paper setup: an encrypted multi-image archive (plus directory) in one
encoding unit; coverage swept from 20 down to 3 at error rates 3-12%.
Expected results:

* at generous coverage everything decodes losslessly;
* as coverage drops, the baseline fails *catastrophically* (images
  undecodable) while DnaMapper degrades *gracefully* (fractional-dB
  losses first, important bits protected longest);
* Gini decodes error-free below the baseline's threshold, but once its
  own threshold is crossed all codewords fail simultaneously — its loss
  cliff is steeper than the baseline's (the paper's "all of a sudden all
  codewords fail at the same time").
"""

import numpy as np

from benchmarks.conftest import print_series
from repro.analysis import CATASTROPHIC_LOSS_DB, ImageStoreExperiment
from repro.core import MatrixConfig
from repro.media import synth_image

MATRIX = MatrixConfig(m=8, n_columns=160, nsym=30, payload_rows=24)
ERROR_RATES = (0.06, 0.12)
COVERAGES = (12, 10, 8, 6, 5, 4, 3)
POOL_REPEATS = 2


def run_experiment(rng=2022):
    generator = np.random.default_rng(rng)
    images = [synth_image(64, 64, rng=generator) for _ in range(2)]
    losses = {}
    for layout in ("baseline", "dnamapper", "gini"):
        experiment = ImageStoreExperiment(
            images, MATRIX, layout=layout, quality=60, rng=generator,
        )
        for rate in ERROR_RATES:
            series = []
            for coverage in COVERAGES:
                total = 0.0
                for repeat in range(POOL_REPEATS):
                    pool = experiment.build_pool(
                        rate, max_coverage=max(COVERAGES),
                        rng=generator,
                    )
                    total += experiment.retrieve(
                        pool.batch_at(coverage)
                    ).mean_loss_db
                series.append(total / POOL_REPEATS)
            losses[(layout, rate)] = series
    return losses


def test_fig14_quality_vs_coverage(benchmark):
    losses = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_series(
        "Fig 14: mean quality loss (dB) vs coverage",
        list(COVERAGES),
        {f"{layout}@{int(rate*100)}%": losses[(layout, rate)]
         for layout, rate in losses},
    )
    for rate in ERROR_RATES:
        baseline = np.array(losses[("baseline", rate)])
        dnamapper = np.array(losses[("dnamapper", rate)])
        # At the most generous coverage everyone is (near-)lossless.
        assert baseline[0] < 1.0 and dnamapper[0] < 1.0
        # Graceful degradation: where the baseline loses meaningful quality,
        # DnaMapper loses clearly less on average.
        stressed = baseline > 3.0
        if stressed.any():
            assert dnamapper[stressed].mean() < 0.7 * baseline[stressed].mean()
    # The high-error regime must actually stress the baseline into
    # catastrophic territory somewhere on the sweep (as in the paper).
    worst = np.array(losses[("baseline", ERROR_RATES[-1])])
    assert worst.max() > 10.0
