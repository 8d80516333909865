#!/usr/bin/env python
"""Approximate storage of encrypted images with DnaMapper.

Reproduces the paper's headline DnaMapper scenario (its Figures 14/15) at
a small scale: three encrypted JPEG images plus a directory file are
packed into one encoding unit; the retrieval coverage is then reduced step
by step. Under the baseline mapping, quality collapses catastrophically;
under DnaMapper it degrades gracefully, because the bits that matter most
(directory, JPEG headers, early entropy stream) occupy the most reliable
molecule positions. Run with::

    python examples/approximate_images.py
"""

import numpy as np

from repro.analysis import ImageStoreExperiment
from repro.core import MatrixConfig
from repro.media import synth_image


def main() -> None:
    rng = np.random.default_rng(42)
    matrix = MatrixConfig(m=8, n_columns=200, nsym=37, payload_rows=24)
    images = [
        synth_image(64, 64, rng=rng),
        synth_image(96, 96, rng=rng),
        synth_image(48, 80, rng=rng),
    ]
    error_rate = 0.10
    coverages = [12, 8, 6, 5, 4, 3]

    print(f"storing {len(images)} encrypted images "
          f"(error rate {error_rate:.0%}, coverage sweep {coverages})\n")
    header = "coverage".ljust(10)
    for layout in ("baseline", "dnamapper"):
        header += f"{layout + ' mean-loss(dB)':>24}"
    print(header)

    experiments = {
        layout: ImageStoreExperiment(
            images, matrix, layout=layout, quality=65, rng=1,
        )
        for layout in ("baseline", "dnamapper")
    }
    pools = {
        layout: experiment.build_pool(error_rate, max_coverage=max(coverages),
                                      rng=2)
        for layout, experiment in experiments.items()
    }
    for coverage in coverages:
        row = str(coverage).ljust(10)
        for layout, experiment in experiments.items():
            result = experiment.retrieve(pools[layout].batch_at(coverage))
            label = f"{result.mean_loss_db:.2f}"
            if result.n_catastrophic:
                label += f" ({result.n_catastrophic} lost)"
            row += label.rjust(24)
        print(row)

    print("\nPer-image losses for DnaMapper at the lowest coverage:")
    result = experiments["dnamapper"].retrieve(
        pools["dnamapper"].batch_at(coverages[-1])
    )
    for stored, loss in zip(experiments["dnamapper"].images, result.losses_db):
        print(f"  {stored.name}: {loss:.2f} dB")
    print("\n(<= 1 dB is considered unnoticeable; the directory file always"
          " survives first.)")


if __name__ == "__main__":
    main()
