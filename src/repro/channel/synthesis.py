"""Two-stage channel: synthesis errors, then sequencing errors.

The paper's Section 8 distinguishes the two physical error sources:

* **synthesis** (writing) injects errors into the *molecule itself* —
  every copy amplified from it, and therefore every read in its cluster,
  shares the same mutation. Consensus over many reads cannot vote these
  away; only the cross-molecule ECC layer can. Conventional synthesis is
  tuned to keep this rare, while the emerging enzymatic synthesis trades
  exactly this guarantee for cost ("ACGT can be synthesized as AAACTT").
* **sequencing** (reading) injects independent errors per read — the
  noise consensus is designed to cancel.

:class:`TwoStageSequencer` applies a per-molecule error model once and
then the ordinary per-read sequencing channel. It is a façade over a
:class:`~repro.channel.engine.BatchedChannelEngine` configured with both
models: the engine's synthesis stage mutates every molecule in one
vectorized IDS pass before the reads are drawn. The ablation benchmark
shows the consequence: raising coverage drives sequencing-induced failures
to zero but leaves a synthesis-induced floor that only redundancy can
cross.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.channel.coverage import CoverageModel, FixedCoverage
from repro.channel.engine import BatchedChannelEngine
from repro.channel.errors import ErrorModel
from repro.channel.readbatch import ReadBatch
from repro.channel.sequencer import ReadCluster
from repro.utils.rng import RngLike


class TwoStageSequencer:
    """Synthesis followed by sequencing: the full write+read channel.

    Args:
        synthesis_model: per-molecule (correlated) error model.
        sequencing_model: per-read (independent) error model.
        coverage_model: reads per cluster.
    """

    def __init__(
        self,
        synthesis_model: ErrorModel,
        sequencing_model: ErrorModel,
        coverage_model: CoverageModel = FixedCoverage(10),
    ) -> None:
        self.synthesis_model = synthesis_model
        self.sequencing_model = sequencing_model
        self.coverage_model = coverage_model

    def sequence_batch(
        self,
        strands: Union[Sequence[str], Sequence[np.ndarray], np.ndarray],
        rng: RngLike = None,
    ) -> ReadBatch:
        """Synthesize every strand once, then sequence, all columnar.

        The engine is built per call, so reassigning any of the three
        model attributes between calls is honored.
        """
        engine = BatchedChannelEngine(
            sequencing_model=self.sequencing_model,
            coverage_model=self.coverage_model,
            synthesis_model=self.synthesis_model,
        )
        return engine.sequence(strands, rng)

    def sequence(
        self,
        strands: Union[Sequence[str], Sequence[np.ndarray], np.ndarray],
        rng: RngLike = None,
    ) -> List[ReadCluster]:
        """Synthesize every strand once, then sequence the molecules."""
        return self.sequence_batch(strands, rng).to_clusters()
