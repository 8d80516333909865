"""DNA channel simulation: IDS errors, coverage, and sequencing.

Implements the paper's error model (Section 3): each position of a strand
independently suffers an insertion, deletion, or substitution with total
probability ``p`` (split uniformly by default, configurable otherwise), and
its retrieval model (Section 6.1.2): per-cluster read counts follow a Gamma
distribution around the target sequencing coverage, and read pools allow
progressively increasing coverage without regenerating reads.

The data plane is columnar: :class:`~repro.channel.engine.
BatchedChannelEngine` emits every read of every strand in one vectorized
IDS pass into a :class:`~repro.channel.readbatch.ReadBatch` (flat base
buffer + per-read offsets), which the consensus engines consume without
ever materializing a DNA string; ``SequencingSimulator``, ``ReadPool`` and
``TwoStageSequencer`` are façades over the engine.
"""

from repro.channel.errors import ErrorModel
from repro.channel.coverage import CoverageModel, FixedCoverage, GammaCoverage
from repro.channel.engine import (
    BatchedChannelEngine,
    ErrorRateMap,
    as_template_set,
    batched_ids_pass,
)
from repro.channel.readbatch import ReadBatch
from repro.channel.sequencer import ReadCluster, ReadPool, SequencingSimulator
from repro.channel.synthesis import TwoStageSequencer
from repro.channel.profiles import (
    enzymatic_synthesis_profile,
    illumina_profile,
    nanopore_profile,
)

__all__ = [
    "ErrorModel",
    "ErrorRateMap",
    "CoverageModel",
    "FixedCoverage",
    "GammaCoverage",
    "BatchedChannelEngine",
    "ReadBatch",
    "ReadCluster",
    "ReadPool",
    "SequencingSimulator",
    "TwoStageSequencer",
    "as_template_set",
    "batched_ids_pass",
    "illumina_profile",
    "nanopore_profile",
    "enzymatic_synthesis_profile",
]
