"""Trace reconstruction (consensus finding) algorithms.

Given noisy copies of an unknown strand (a read cluster), reconstruct the
most likely original of a known length L. The paper's key observation —
reliability skew — is a property of this step: positional error probability
rises with the number of indel mis-corrections accumulated while scanning,
so one-way reconstruction degrades towards the far end and two-way
reconstruction peaks in the middle.

Algorithms provided:

* :class:`repro.consensus.bma.OneWayReconstructor` — Bitwise-Majority-
  Alignment-style left-to-right scan (Fig 3's shape).
* :class:`repro.consensus.two_way.TwoWayReconstructor` — the paper's
  pipeline consensus: forward + backward scans, best half of each (Fig 4).
* :class:`repro.consensus.iterative.IterativeReconstructor` — a stronger
  realign-and-vote refinement loop standing in for Sabary et al. (Fig 5).
* :class:`repro.consensus.median.OptimalMedianReconstructor` — exact
  constrained edit-distance median via branch and bound, with the paper's
  adversarial tie-breaking (Fig 6).

Every engine has one entry point, ``reconstruct_batch(batch, length)``:
a whole columnar :class:`~repro.channel.readbatch.ReadBatch` in, one
``(n_clusters, length)`` estimate array out. The one-way/two-way scans
advance all clusters simultaneously, and the refinement layers (iterative
realign-and-vote, posterior lattice) sweep all reads of all clusters as
one padded stack with per-cluster fixed-point dropout. The posterior
engine also offers ``reconstruct_batch_with_confidence``, the only
confidence output. ``Reconstructor.reconstruct(reads, length)`` is the
one-cluster case for callers holding strings. The frozen single-cluster
originals are test oracles (``tests/oracles/consensus.py``), pinned
against the batched engines by the differential tests — byte-identical
for the integer-domain scans and the iterative refinement, and to float
round-off for the posterior's soft confidences.
"""

from repro.consensus.base import Reconstructor
from repro.consensus.bma import OneWayReconstructor
from repro.consensus.iterative import IterativeReconstructor
from repro.consensus.median import OptimalMedianReconstructor
from repro.consensus.posterior import PosteriorReconstructor
from repro.consensus.two_way import TwoWayReconstructor

__all__ = [
    "Reconstructor",
    "OneWayReconstructor",
    "TwoWayReconstructor",
    "IterativeReconstructor",
    "OptimalMedianReconstructor",
    "PosteriorReconstructor",
]
