"""Sequencing simulation: read clusters and progressive read pools.

The retrieval methodology of the paper's Section 6.1.2 is reproduced here:

* a :class:`SequencingSimulator` turns a list of synthesized strands into
  perfectly-clustered noisy reads (the paper deliberately eliminates
  clustering errors in simulation by tracking each read's source strand);
* a :class:`ReadPool` holds a large pre-generated pool of noisy reads per
  strand so that a coverage sweep can "start at a low coverage and
  progressively add more strands from the pool", exactly as the paper
  evaluates reading cost.

Both are thin façades over the columnar read plane: reads are generated
by :class:`repro.channel.engine.BatchedChannelEngine` in one vectorized
pass and leave as a :class:`repro.channel.readbatch.ReadBatch`
(:meth:`SequencingSimulator.sequence_batch`, :meth:`ReadPool.batch_at`),
each read tagged with its cluster and each cluster with its source
strand.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.channel.coverage import CoverageModel, FixedCoverage
from repro.channel.engine import BatchedChannelEngine
from repro.channel.errors import ErrorModel
from repro.channel.readbatch import ReadBatch
from repro.utils.rng import RngLike, ensure_rng


class SequencingSimulator:
    """Generates perfectly-clustered noisy reads for a set of strands."""

    def __init__(
        self,
        error_model: ErrorModel,
        coverage_model: CoverageModel = FixedCoverage(10),
    ) -> None:
        self.error_model = error_model
        self.coverage_model = coverage_model

    def sequence_batch(
        self,
        strands: Union[Sequence[str], Sequence[np.ndarray], np.ndarray],
        rng: RngLike = None,
    ) -> ReadBatch:
        """All clusters' reads as one columnar :class:`ReadBatch` — the
        representation ``pipeline.receive`` consumes without any string
        round-trip. The engine is built per call, so reassigning
        ``error_model``/``coverage_model`` between calls is honored."""
        engine = BatchedChannelEngine(
            sequencing_model=self.error_model,
            coverage_model=self.coverage_model,
        )
        return engine.sequence(strands, rng)

    def sequence_store(
        self, image, rng: RngLike = None, labeled: bool = True
    ) -> ReadBatch:
        """One spanning :class:`ReadBatch` for a whole multi-unit store.

        ``image`` is a :class:`~repro.core.store.StoreImage` (anything
        with a ``units`` list of ``strands``-bearing objects): every
        strand of every unit goes through **one** engine call, and the
        resulting batch lays the units' clusters back to back — cluster
        slots ``[u * n_columns, (u + 1) * n_columns)`` belong to unit
        ``u`` — which is exactly the spanning form
        :meth:`~repro.core.store.DnaStore.read` consumes whole.

        With ``labeled=False`` the per-strand ground-truth labels are
        discarded: the result has one cluster per *unit* — the unit's
        amplification pool, reads shuffled — because units are separately
        amplifiable (their own primer pairs) while strand attribution
        within a pool is exactly what sequencing does not provide. That
        is the realistic retrieval workload: recover the clusters with
        :class:`~repro.cluster.batched.BatchedGreedyClusterer` (or hand
        the pool straight to :meth:`~repro.core.store.DnaStore.read` with
        ``ReadRequest(pool=True)``).
        """
        generator = ensure_rng(rng)
        strands = [
            strand for unit in image.units for strand in unit.strands
        ]
        batch = self.sequence_batch(strands, generator)
        if labeled:
            return batch
        counts = np.array([len(unit.strands) for unit in image.units],
                          dtype=np.int64)
        boundaries = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        return batch.pooled(boundaries, rng=generator)


class ReadPool:
    """A pre-generated pool of noisy reads per strand for coverage sweeps.

    Generating the pool once and slicing prefixes keeps a sweep's read sets
    nested (coverage 6 uses exactly the reads of coverage 5 plus one more),
    mirroring the paper's methodology and eliminating sweep-order noise.
    The pool is stored columnar (one :class:`ReadBatch` holding every read
    of every strand at the maximum coverage); prefix selection at a given
    coverage is a vectorized row selection sharing the pool's buffer.
    """

    def __init__(
        self,
        strands: Sequence[str],
        error_model: ErrorModel,
        max_coverage: int,
        rng: RngLike = None,
        dispersion_shape: Optional[float] = None,
    ) -> None:
        """Pre-generate ``max_coverage`` noisy reads for each strand.

        Args:
            strands: the synthesized DNA strings.
            error_model: channel noise to apply to each read.
            max_coverage: pool depth per strand (the sweep's upper bound).
            rng: random source.
            dispersion_shape: when set, each strand gets a Gamma(shape,
                1/shape)-distributed weight (mean 1.0) sampled once, and the
                read count at mean coverage ``c`` is ``round(c * weight)``.
                Small clusters and dropouts then persist coherently across
                the whole sweep, matching the paper's Gamma coverage model.
                ``None`` gives every strand exactly ``round(c)`` reads.
        """
        if max_coverage <= 0:
            raise ValueError(f"max_coverage must be positive, got {max_coverage}")
        generator = ensure_rng(rng)
        self.max_coverage = max_coverage
        engine = BatchedChannelEngine(sequencing_model=error_model)
        self._batch = engine.sample_pool(strands, max_coverage, generator)
        n_strands = self._batch.n_clusters
        if dispersion_shape is None:
            self._weights = np.ones(n_strands)
        else:
            if dispersion_shape <= 0:
                raise ValueError(
                    f"dispersion_shape must be positive, got {dispersion_shape}"
                )
            self._weights = generator.gamma(
                dispersion_shape, 1.0 / dispersion_shape, size=n_strands
            )

    def __len__(self) -> int:
        return self._batch.n_clusters

    def _counts_at(self, coverage: float) -> np.ndarray:
        if coverage < 0:
            raise ValueError(f"coverage must be non-negative, got {coverage}")
        counts = np.round(coverage * self._weights).astype(np.int64)
        return np.minimum(counts, self.max_coverage)

    def batch_at(
        self,
        coverage: float,
        first_cluster: int = 0,
        n_clusters: Optional[int] = None,
    ) -> ReadBatch:
        """The first ``coverage``-worth of pool reads, columnar.

        ``first_cluster``/``n_clusters`` carve out a sub-range of strands
        (used when one mega-pool holds several trials' units back to
        back). Zero-copy over the pool buffer.
        """
        counts = self._counts_at(coverage)
        batch = self._batch
        if first_cluster != 0 or n_clusters is not None:
            stop = (batch.n_clusters if n_clusters is None
                    else first_cluster + n_clusters)
            batch = batch.select_clusters(first_cluster, stop)
            counts = counts[first_cluster:stop]
        return batch.select_prefix(counts)
