"""Ablation: consensus algorithm choice and the BMA lookahead window.

Two design choices DESIGN.md calls out:

* the pipeline's default reconstructor is the two-way scan (as in the
  paper's pipeline [19]); this ablation quantifies the accuracy ladder
  one-way < two-way <= iterative on identical clusters;
* the error-classification lookahead of the scan (the paper's worked
  example uses 2; the implementation defaults to 3).
"""

import numpy as np

from benchmarks.conftest import print_series
from repro.channel import ErrorModel, ReadBatch
from repro.codec.basemap import bases_to_indices, random_bases
from repro.consensus import (
    IterativeReconstructor,
    OneWayReconstructor,
    TwoWayReconstructor,
)
from repro.consensus.base import consensus_span

LENGTH = 150
ERROR_RATE = 0.08
COVERAGE = 6
TRIALS = 60


def run_experiment(rng=2022):
    generator = np.random.default_rng(rng)
    algorithms = {
        "one-way": OneWayReconstructor(),
        "two-way": TwoWayReconstructor(),
        "iterative": IterativeReconstructor(),
        "lookahead=1": OneWayReconstructor(lookahead=1),
        "lookahead=2": OneWayReconstructor(lookahead=2),
        "lookahead=5": OneWayReconstructor(lookahead=5),
    }
    model = ErrorModel.uniform(ERROR_RATE)
    originals, clusters = [], []
    for _ in range(TRIALS):
        original = random_bases(LENGTH, generator)
        reads = model.apply_many(original, COVERAGE, generator)
        originals.append(bases_to_indices(original))
        clusters.append([bases_to_indices(read) for read in reads])
    targets = np.stack(originals)
    batch = ReadBatch.from_arrays(clusters)
    total = TRIALS * LENGTH
    rates = {}
    for name, algorithm in algorithms.items():
        with consensus_span(batch):
            estimates = algorithm.reconstruct_batch(batch, LENGTH)
        rates[name] = int((estimates != targets).sum()) / total
    return rates


def test_ablation_consensus(benchmark):
    rates = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_series(
        "Ablation: consensus algorithms (p=8%, N=6, L=150), symbol error rate",
        ["error_rate"],
        {name: [value] for name, value in rates.items()},
    )
    # The accuracy ladder the pipeline's defaults rely on.
    assert rates["two-way"] < rates["one-way"]
    assert rates["iterative"] <= rates["two-way"] * 1.05
    # Lookahead 1 cannot distinguish error types reliably; 2+ can.
    assert rates["lookahead=2"] < rates["lookahead=1"]
    # Diminishing returns beyond the default window.
    assert rates["lookahead=5"] < rates["lookahead=1"]
