"""Columnar read container: every read of every cluster in one flat buffer.

The read-plane between the channel and the decoder is array-native: a
:class:`ReadBatch` stores all reads of a simulation as one flat ``uint8``
base buffer plus per-read offsets/lengths, per-read cluster ids, and
per-cluster source-strand indices. Everything downstream — the padded
matrix the batched consensus scans eat, prefix selection for coverage
sweeps, per-cluster grouping — is a vectorized view over those arrays;
DNA *strings* only ever materialize lazily at the edges (``ReadCluster.
reads``, FASTA/FASTQ export, CLI output).

Invariants:

* ``offsets``/``lengths`` describe arbitrary (not necessarily contiguous
  or disjoint) windows of ``buffer``, so sub-batches (prefix selections,
  cluster ranges) share the parent's buffer zero-copy; every window lies
  inside ``buffer`` (the constructor rejects a negative length or offset
  and a window past the end);
* ``cluster_ids`` is non-decreasing: reads are grouped by cluster, and
  reads within a cluster keep their generation order;
* every cluster id in ``[0, n_clusters)`` exists conceptually even when
  it owns no reads — a lost cluster (strand dropout) is an id with zero
  reads, not a missing id.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.codec.basemap import bases_to_indices, indices_to_bases
from repro.utils.rng import RngLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.channel.sequencer import ReadCluster


def packed_bases(
    buffer: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Every read's bases back to back, in read order.

    Reads are *tight* when they already lie back to back: their offsets
    are ``cumsum(lengths) - lengths`` and ``buffer`` holds nothing else.
    Then ``buffer`` itself comes back, uncopied (callers only read it);
    otherwise one gather through the index of every base. Takes the raw
    columnar arrays, so a :class:`ReadBatch` and a bare ``(buffer,
    offsets, lengths)`` triple share this one check.
    """
    starts = np.cumsum(lengths) - lengths
    total = int(lengths.sum())
    if buffer.size == total and np.array_equal(offsets, starts):
        return buffer
    # Base j of read r sits at flat position starts[r] + j and at buffer
    # position offsets[r] + j.
    index = np.repeat(offsets - starts, lengths)
    index += np.arange(total, dtype=np.int64)
    return buffer[index]


class ReadBatch:
    """Flat columnar storage for the noisy reads of many clusters.

    Attributes:
        buffer: ``uint8`` base indices of every read, back to back (sub-
            batches may reference a larger shared buffer).
        offsets: per-read start position inside ``buffer``.
        lengths: per-read length.
        cluster_ids: per-read owning cluster, non-decreasing.
        source_indices: per-cluster index of the source strand in the
            encoding unit (defaults to ``arange(n_clusters)``).
    """

    __slots__ = ("buffer", "offsets", "lengths", "cluster_ids",
                 "source_indices", "n_clusters", "_starts")

    def __init__(
        self,
        buffer: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        cluster_ids: np.ndarray,
        n_clusters: int,
        source_indices: Optional[np.ndarray] = None,
    ) -> None:
        self.buffer = np.asarray(buffer, dtype=np.uint8)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
        if not (self.offsets.shape == self.lengths.shape
                == self.cluster_ids.shape):
            raise ValueError("offsets, lengths and cluster_ids must align")
        if self.lengths.size:
            if self.lengths.min() < 0:
                raise ValueError("lengths must be non-negative")
            if self.offsets.min() < 0:
                raise ValueError("offsets must be non-negative")
            if (self.offsets + self.lengths).max() > self.buffer.size:
                raise ValueError(
                    "offsets + lengths run past the end of the "
                    f"{self.buffer.size}-base buffer"
                )
        if self.cluster_ids.size:
            if np.any(np.diff(self.cluster_ids) < 0):
                raise ValueError("cluster_ids must be non-decreasing")
            if self.cluster_ids[0] < 0 or self.cluster_ids[-1] >= n_clusters:
                raise ValueError("cluster id outside [0, n_clusters)")
        if n_clusters < 0:
            raise ValueError(f"n_clusters must be >= 0, got {n_clusters}")
        self.n_clusters = int(n_clusters)
        if source_indices is None:
            source_indices = np.arange(self.n_clusters, dtype=np.int64)
        self.source_indices = np.asarray(source_indices, dtype=np.int64)
        if self.source_indices.shape != (self.n_clusters,):
            raise ValueError("source_indices must have one entry per cluster")
        # Row range of each cluster, derived once: cluster c owns read rows
        # [_starts[c], _starts[c + 1]).
        counts = np.bincount(self.cluster_ids, minlength=self.n_clusters)
        self._starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        clusters: Sequence[Sequence[np.ndarray]],
        source_indices: Optional[Sequence[int]] = None,
    ) -> "ReadBatch":
        """Pack per-cluster lists of index arrays into one batch (copies).

        Raises ``ValueError`` for a symbol outside ``0..255``, which the
        ``uint8`` buffer cannot hold.
        """
        reads: List[np.ndarray] = []
        cluster_ids: List[int] = []
        for c, cluster in enumerate(clusters):
            for read in cluster:
                reads.append(np.asarray(read))
                cluster_ids.append(c)
        lengths = np.array([r.size for r in reads], dtype=np.int64)
        buffer = (np.concatenate(reads) if reads
                  else np.zeros(0, dtype=np.uint8))
        if buffer.dtype != np.uint8 and buffer.size:
            low, high = buffer.min(), buffer.max()
            if low < 0 or high > 255:
                raise ValueError(
                    f"read symbol {low if low < 0 else high} outside 0..255"
                )
            buffer = buffer.astype(np.uint8)
        offsets = np.cumsum(lengths) - lengths
        return cls(
            buffer, offsets, lengths,
            np.array(cluster_ids, dtype=np.int64),
            n_clusters=len(clusters),
            source_indices=(None if source_indices is None
                            else np.asarray(source_indices, dtype=np.int64)),
        )

    @classmethod
    def from_clusters(cls, clusters: Sequence["ReadCluster"]) -> "ReadBatch":
        """Pack :class:`ReadCluster` objects (string- or array-backed)."""
        return cls.from_arrays(
            [cluster.read_indices() for cluster in clusters],
            source_indices=[cluster.source_index for cluster in clusters],
        )

    @classmethod
    def concat(cls, batches: Sequence["ReadBatch"]) -> "ReadBatch":
        """Concatenate batches into one spanning batch.

        The pieces' clusters are laid back to back: piece ``p``'s cluster
        ``c`` becomes cluster ``offset_p + c`` of the result, where
        ``offset_p`` is the running cluster count — cluster ids are
        re-based per piece, so the non-decreasing invariant holds by
        construction. ``source_indices`` are carried over verbatim (they
        keep identifying strands *within* their originating piece);
        callers that need global attribution keep the per-piece cluster
        boundary table ``cumsum([b.n_clusters])`` alongside — this is how
        :class:`~repro.core.store.DnaStore` maps the spanning batch's
        clusters back to encoding units.

        The result is tight: each piece contributes its reads' bases back
        to back (:func:`packed_bases`: the piece's own buffer when it
        already is tight, else one gather over the actual reads), so
        concatenating zero-copy sub-batches of a large pool copies only
        the selected reads, never the parent buffers.
        """
        batches = list(batches)
        buffers: List[np.ndarray] = []
        lengths_parts: List[np.ndarray] = []
        cluster_parts: List[np.ndarray] = []
        source_parts: List[np.ndarray] = []
        cluster_offset = 0
        for batch in batches:
            buffers.append(
                packed_bases(batch.buffer, batch.offsets, batch.lengths)
            )
            lengths_parts.append(batch.lengths)
            cluster_parts.append(batch.cluster_ids + cluster_offset)
            source_parts.append(batch.source_indices)
            cluster_offset += batch.n_clusters
        if not batches:
            return cls(
                np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                n_clusters=0,
            )
        lengths = np.concatenate(lengths_parts)
        return cls(
            np.concatenate(buffers),
            np.cumsum(lengths) - lengths,
            lengths,
            np.concatenate(cluster_parts),
            n_clusters=cluster_offset,
            source_indices=np.concatenate(source_parts),
        )

    @classmethod
    def from_strings(
        cls,
        clusters: Sequence[Sequence[str]],
        source_indices: Optional[Sequence[int]] = None,
    ) -> "ReadBatch":
        """Pack per-cluster lists of ACGT strings (edge-only convenience)."""
        return cls.from_arrays(
            [[bases_to_indices(read) for read in reads] for reads in clusters],
            source_indices=source_indices,
        )

    # -- basic shape ----------------------------------------------------------

    @property
    def n_reads(self) -> int:
        return int(self.offsets.size)

    @property
    def total_bases(self) -> int:
        return int(self.lengths.sum())

    def coverage_counts(self) -> np.ndarray:
        """Reads per cluster, ``(n_clusters,)``."""
        return np.diff(self._starts)

    def lost_clusters(self) -> np.ndarray:
        """Ids of clusters with zero reads (strand dropouts)."""
        return np.flatnonzero(np.diff(self._starts) == 0)

    def cluster_rows(self, cluster: int) -> Tuple[int, int]:
        """Read-row range ``[start, stop)`` owned by ``cluster``."""
        if not (0 <= cluster < self.n_clusters):
            raise IndexError(f"cluster {cluster} out of range")
        return int(self._starts[cluster]), int(self._starts[cluster + 1])

    # -- per-read / per-cluster views ----------------------------------------

    def read(self, i: int) -> np.ndarray:
        """Read ``i`` as a zero-copy ``uint8`` view into the buffer."""
        start = int(self.offsets[i])
        return self.buffer[start: start + int(self.lengths[i])]

    def read_string(self, i: int) -> str:
        """Read ``i`` decoded to an ACGT string (edge use only)."""
        return indices_to_bases(self.read(i))

    def reads_of(self, cluster: int) -> List[np.ndarray]:
        """The reads of one cluster as zero-copy index arrays."""
        start, stop = self.cluster_rows(cluster)
        return [self.read(i) for i in range(start, stop)]

    def cluster_view(self, cluster: int) -> "ReadCluster":
        """One cluster as a batch-backed :class:`ReadCluster` (lazy strings)."""
        from repro.channel.sequencer import ReadCluster

        return ReadCluster.from_arrays(
            int(self.source_indices[cluster]), self.reads_of(cluster)
        )

    def to_clusters(self) -> List["ReadCluster"]:
        """Every cluster as a batch-backed :class:`ReadCluster` view."""
        return [self.cluster_view(c) for c in range(self.n_clusters)]

    def __len__(self) -> int:
        return self.n_clusters

    def __getitem__(self, cluster: int) -> "ReadCluster":
        return self.cluster_view(cluster)

    def __iter__(self):
        return (self.cluster_view(c) for c in range(self.n_clusters))

    # -- vectorized dense views ----------------------------------------------

    def padded_matrix(self, pad: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """All reads as one ``(n_reads, max_len + pad)`` sentinel matrix.

        The convention of the batched refinement engines and the
        clusterer: ``int64`` symbols with ``-1`` past each read's end;
        ``pad`` appends extra sentinel columns. Built with one gather over
        the flat buffer — no per-read Python loop. Returns
        ``(matrix, lengths)``.
        """
        if pad < 0:
            raise ValueError(f"pad must be non-negative, got {pad}")
        if self.n_reads == 0:
            return (np.zeros((0, 0), dtype=np.int64),
                    np.zeros(0, dtype=np.int64))
        longest = int(self.lengths.max())
        width = longest + pad
        if longest == 0:  # only empty reads: nothing to gather
            return (np.full((self.n_reads, width), -1, dtype=np.int64),
                    self.lengths.copy())
        columns = np.arange(width, dtype=np.int64)
        mask = columns[None, :] < self.lengths[:, None]
        src = np.where(mask, self.offsets[:, None] + columns[None, :], 0)
        matrix = np.where(mask, self.buffer[src].astype(np.int64), -1)
        return matrix, self.lengths.copy()

    # -- columnar restructuring ----------------------------------------------

    def drop_lost(self) -> "ReadBatch":
        """Compact away zero-read clusters (shares the buffer).

        The surviving clusters are renumbered ``0..k-1`` in order; their
        ``source_indices`` keep pointing at the original strands, so the
        decoder can still attribute estimates.
        """
        counts = np.diff(self._starts)
        live = np.flatnonzero(counts > 0)
        if live.size == self.n_clusters:
            return self
        # Every read belongs to a live cluster by definition; only the
        # cluster numbering changes.
        new_ids = np.searchsorted(live, self.cluster_ids)
        return ReadBatch(
            self.buffer, self.offsets, self.lengths, new_ids,
            n_clusters=int(live.size),
            source_indices=self.source_indices[live],
        )

    def select_prefix(self, counts: np.ndarray) -> "ReadBatch":
        """Keep the first ``counts[c]`` reads of every cluster (zero-copy).

        Counts are clipped to each cluster's actual read count. Clusters
        whose count is zero stay present as lost clusters, which is what
        nested coverage sweeps need.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.n_clusters,):
            raise ValueError("counts must have one entry per cluster")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        counts = np.minimum(counts, np.diff(self._starts))
        total = int(counts.sum())
        firsts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(firsts, counts)
        rows = np.repeat(self._starts[:-1], counts) + within
        return ReadBatch(
            self.buffer, self.offsets[rows], self.lengths[rows],
            np.repeat(np.arange(self.n_clusters, dtype=np.int64), counts),
            n_clusters=self.n_clusters,
            source_indices=self.source_indices,
        )

    def group_rows(self, group_boundaries: np.ndarray) -> np.ndarray:
        """Validate a cluster-granular boundary table; return row bounds.

        ``group_boundaries`` partitions the clusters into consecutive
        groups (``[b[g], b[g + 1])`` is group ``g``); the returned table
        holds the corresponding read-row bounds — group ``g`` owns rows
        ``[rows[g], rows[g + 1])``. The shared validation/translation
        for every consumer of such tables (:meth:`pooled`,
        ``BatchedGreedyClusterer.cluster_pools``).
        """
        boundaries = np.asarray(group_boundaries, dtype=np.int64)
        if (boundaries.ndim != 1 or boundaries.size < 1
                or boundaries[0] != 0 or boundaries[-1] != self.n_clusters
                or np.any(np.diff(boundaries) < 0)):
            raise ValueError(
                "group boundaries must be a non-decreasing table from 0 "
                f"to n_clusters ({self.n_clusters})"
            )
        return self._starts[boundaries]

    def pooled(
        self,
        group_boundaries: Optional[np.ndarray] = None,
        rng: RngLike = None,
    ) -> "ReadBatch":
        """Merge groups of clusters into single *unlabeled pool* clusters.

        ``group_boundaries`` is a cluster-granular table (like
        ``receive_many``'s unit boundaries): clusters
        ``[b[g], b[g + 1])`` collapse into pool ``g``. By default every
        cluster merges into one pool — the whole batch as one unlabeled
        read pool. When ``rng`` is given, the reads *within each pool*
        are shuffled; without it the generation order would leak cluster
        identity to an order-sensitive clusterer (greedy assignment
        depends on read order). ``source_indices`` reset to the default
        ``arange`` — a pool carries no strand attribution; recovering it
        is the clustering subsystem's job.

        Zero-copy over the buffer (only the per-read offset/length rows
        are permuted).
        """
        if group_boundaries is None:
            group_boundaries = (
                np.array([0, self.n_clusters], dtype=np.int64)
                if self.n_clusters else np.zeros(1, dtype=np.int64)
            )
        row_bounds = self.group_rows(group_boundaries)
        n_pools = row_bounds.size - 1
        rows = np.arange(self.n_reads, dtype=np.int64)
        if rng is not None:
            generator = ensure_rng(rng)
            for g in range(n_pools):
                generator.shuffle(rows[row_bounds[g]: row_bounds[g + 1]])
        pool_ids = np.repeat(np.arange(n_pools, dtype=np.int64),
                             np.diff(row_bounds))
        return ReadBatch(
            self.buffer, self.offsets[rows], self.lengths[rows],
            pool_ids, n_clusters=n_pools,
        )

    def select_clusters(self, start: int, stop: int) -> "ReadBatch":
        """The sub-batch of clusters ``[start, stop)``, renumbered from 0.

        Zero-copy over the buffer; used to carve one trial's unit out of a
        many-trial mega-batch.
        """
        if not (0 <= start <= stop <= self.n_clusters):
            raise ValueError(
                f"cluster range [{start}, {stop}) outside "
                f"[0, {self.n_clusters})"
            )
        row_start, row_stop = self._starts[start], self._starts[stop]
        rows = slice(int(row_start), int(row_stop))
        return ReadBatch(
            self.buffer, self.offsets[rows], self.lengths[rows],
            self.cluster_ids[rows] - start,
            n_clusters=stop - start,
            source_indices=self.source_indices[start:stop],
        )
