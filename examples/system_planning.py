#!/usr/bin/env python
"""Planning a retrieval campaign: estimate the channel, then budget reads.

A storage operator retrieving decades-old DNA has no idea what today's
sequencer does to it (the paper's core argument against provisioning for
an assumed skew). The workflow demonstrated here:

1. sequence a small *pilot* at low coverage;
2. estimate the channel's error rates blindly (consensus as reference);
3. search for the minimum safe coverage at the estimated noise level,
   for both the baseline layout and Gini;
4. convert the difference into sequencing-cost savings.

Run with::

    python examples/system_planning.py
"""

import numpy as np

from repro.analysis import CostModel, min_coverage_for_error_free
from repro.analysis.channel_estimation import estimate_channel
from repro.channel import ErrorModel, SequencingSimulator, FixedCoverage
from repro.codec import random_bases
from repro.consensus import TwoWayReconstructor
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig

TRUE_RATE = 0.075  # hidden from the operator
MATRIX = MatrixConfig(m=8, n_columns=100, nsym=18, payload_rows=12)


def main() -> None:
    rng = np.random.default_rng(11)

    # --- 1. pilot sequencing ------------------------------------------------
    pilot_strands = [random_bases(MATRIX.strand_length, rng) for _ in range(30)]
    channel = SequencingSimulator(
        ErrorModel.uniform(TRUE_RATE), FixedCoverage(8)
    )
    batch = channel.sequence_batch(pilot_strands, rng)

    # --- 2. blind channel estimation ----------------------------------------
    reads = [[batch.read_string(i) for i in range(*batch.cluster_rows(c))]
             for c in range(batch.n_clusters)]
    reconstructor = TwoWayReconstructor()
    references = [
        reconstructor.reconstruct(cluster, MATRIX.strand_length)
        for cluster in reads
    ]
    estimate = estimate_channel(references, reads)
    print("pilot channel estimate (truth hidden at "
          f"{TRUE_RATE:.1%} total, uniform split):")
    print(f"  total rate : {estimate.total_rate:.2%}")
    print(f"  insertions : {estimate.p_insertion:.2%}")
    print(f"  deletions  : {estimate.p_deletion:.2%}")
    print(f"  subs       : {estimate.p_substitution:.2%}")
    print(f"  indel frac : {estimate.indel_fraction:.0%}\n")

    # --- 3. coverage planning at the estimated noise level ------------------
    coverages = range(2, 24)
    plan = {}
    for layout in ("baseline", "gini"):
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX, layout=layout))
        plan[layout] = min_coverage_for_error_free(
            pipeline, estimate.total_rate, coverages, trials=2, rng=1,
        )
        print(f"{layout:9s}: plan for coverage {plan[layout]:.1f}")

    # --- 4. cost conversion ----------------------------------------------------
    cost = CostModel(primer_overhead_bases=40)
    read_saving = cost.read_saving(MATRIX, plan["baseline"], plan["gini"])
    print(f"\nsequencing-cost saving from Gini at the planned coverages: "
          f"{read_saving:.0%}")
    print(f"write cost per unit: {cost.write_cost(MATRIX):.0f} units, "
          f"{cost.write_cost_per_data_bit(MATRIX)*8:.3f} units/byte")


if __name__ == "__main__":
    main()
