"""Sub-linear LSH-banded clustering with exact edit-distance verification.

:class:`~repro.cluster.batched.BatchedGreedyClusterer` is
assignment-identical to the sequential greedy scan, but its candidate
set is O(pool × clusters) whenever the length-gap/L1 prefilters cannot
prune — the wall between unlabeled-pool decode and million-read pools.
The clusterer here makes candidate generation sub-linear with the
standard minhash-banding recipe, while keeping the *output* exact in the
sense that matters: every pair that ends up in one cluster was verified
by the exact banded edit-distance kernel.

1. **Signatures.** Each read's q-gram window codes come from the
   one-pass window kernel behind the sparse signatures
   (:mod:`repro.cluster.signatures`), so the 4**q code space is never
   materialized. They are not deduplicated: the minimum over a read's
   windows is the minimum over its distinct q-grams.
2. **Banding.** Every minhash row owns a fixed RNG substream
   (``SeedSequence(seed, spawn_key=(row,))``) that draws an odd
   multiplier for multiply-shift hashing, once per clusterer; a band's
   key is the mix of its ``rows_per_band`` minhash values. Two reads
   land in the same bin of a band with probability ≈ their q-gram
   Jaccard similarity to the ``rows_per_band``-th power — high for
   noisy copies of one strand, vanishing for reads of different
   strands. Single-row *rescue bands* run after the paired bands to
   also catch very dissimilar true pairs (heavy error rates, coverage-2
   pools).
3. **Candidates from collisions only.** Within a bin, each current
   component is collapsed to one *delegate* (its lowest content
   fingerprint — merging components needs one edge, so more members
   per component is pure waste). Delegates are then sorted inside
   their bin by three *other* minhash rows (ties by fingerprint) and
   only *adjacent* same-bin pairs become candidates — linear in bin
   size by construction, never quadratic. Same-strand delegates agree
   on most sketch rows, so the sort pulls them into adjacent runs and
   the chain of verified adjacent edges unions each run transitively.
   Everything keys off content, never row indices, so the edge set is
   invariant under read-order shuffles. Both sorts give the order
   ``np.lexsort`` over the raw values would, as stable argsorts of
   int64 composites (component and fingerprint, then the band key;
   bin, sketch rows and fingerprint) over dense ranks of the minhash
   rows and fingerprints built once per batch.
4. **Exact verification.** A candidate pair must survive two
   exact-safe screens — length gap within the threshold, and agreement
   on ``min_sketch_matches`` of the minhash rows the banding already
   computed (a free unbiased Jaccard estimate) — then runs through
   :func:`~repro.cluster.distance.banded_edit_distances_stack`, the
   bit-parallel banded kernel that checks a band's whole candidate
   stack in one lockstep pass over the target bases; only pairs at
   exact edit distance ≤ ``threshold`` are united. Pairs that fail the
   DP are memoized and never verified again.
5. **Vectorized union-find.** Components resolve by min-label hooking
   (``np.minimum.at``) plus pointer jumping — no Python loop over edges.

The output is a partition, not the greedy scan's first-match
assignment, so the differential anchor stays
:class:`BatchedGreedyClusterer`; LSH correctness is pinned by recovery
quality (``tests/cluster/test_recovery.py``: pair precision 1.0 by
construction, recall bounds across channels) and by end-to-end
unlabeled decode staying byte-identical to labeled decode.

Instrumentation (under the same ``cluster.batch``/``cluster.pools``
spans the greedy path uses): ``cluster.lsh.bins`` occupied bins across
bands, ``cluster.lsh.candidate_pairs`` collision edges generated,
``cluster.lsh.verified_pairs`` edges that actually reached the DP.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.channel.readbatch import ReadBatch
from repro.cluster.batched import ColumnarClusterer, padded_int16_matrix
from repro.cluster.distance import banded_edit_distances_stack
from repro.cluster.signatures import _valid_window_codes
from repro.observability.trace import get_tracer

_FNV_PRIME = np.uint64(1099511628211)
_FNV_OFFSET = np.uint64(14695981039346656037)
#: Minhash of a read with no q-grams (shorter than ``q``): all such
#: reads share one sentinel bin per band and go straight to exact
#: verification.
_EMPTY_MINHASH = np.uint64(0xFFFFFFFFFFFFFFFF)


def _content_fingerprints(matrix: np.ndarray,
                          lengths: np.ndarray) -> np.ndarray:
    """A 64-bit content hash per read row, independent of row order.

    FNV-style polynomial over the padded columns (sentinel -1 shifted
    into range) seeded with the read length. Used only to pick each
    bin's representative deterministically by *content*, which makes the
    whole candidate edge set — and therefore the final partition —
    invariant under read-order shuffles.
    """
    fp = np.full(lengths.size, _FNV_OFFSET, dtype=np.uint64)
    fp = fp * _FNV_PRIME + lengths.astype(np.uint64)
    for j in range(matrix.shape[1]):
        column = (matrix[:, j].astype(np.int64) + 2).astype(np.uint64)
        fp = fp * _FNV_PRIME + column
    return fp


def _dense_ranks(rows: np.ndarray) -> np.ndarray:
    """Dense rank of every value within its row of a 2-D array.

    Equal values share a rank and ranks keep the values' order, so a
    composite of ranks sorts exactly as the values would. int32: a batch
    never nears 2**31 reads.
    """
    order = np.argsort(rows, axis=1)
    ordered = np.take_along_axis(rows, order, axis=1)
    steps = np.zeros(rows.shape, dtype=np.int32)
    steps[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=1, dtype=np.int32),
                      axis=1)
    return ranks


def _lex_order(columns, radix: int) -> np.ndarray:
    """The order ``np.lexsort(columns[::-1])`` gives for integer columns
    in ``[0, radix)``, most significant first. Columns pack, least
    significant first, into an int64 key while ``radix ** k`` fits (all
    five of the chain sort's for batches under ~6k reads), and each key
    costs one stable argsort."""
    order = None
    key, span = 0, 1
    for column in columns[::-1]:
        if span * radix >= 1 << 63:
            order = _refine(order, key)
            key, span = 0, 1
        key = column.astype(np.int64) * span + key
        span *= radix
    return _refine(order, key)


def _refine(order: Optional[np.ndarray], key: np.ndarray) -> np.ndarray:
    """``order`` (identity when None) refined by a stable sort on ``key``."""
    if order is None:
        return np.argsort(key, kind="stable")
    return order[np.argsort(key[order], kind="stable")]


def _union_components(labels: np.ndarray, u: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """Merge the components containing ``u[i]`` and ``v[i]`` for every i.

    ``labels`` maps each element to the minimum element index of its
    component and must be flat on entry (``labels[labels] == labels``);
    the return value is flat again. Min-label hooking over the edge
    endpoints plus pointer jumping — converges in O(log n) rounds, all
    array ops.
    """
    while True:
        lu, lv = labels[u], labels[v]
        if np.array_equal(lu, lv):
            return labels
        merged = np.minimum(lu, lv)
        np.minimum.at(labels, lu, merged)
        np.minimum.at(labels, lv, merged)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


class LSHClusterer(ColumnarClusterer):
    """Minhash-banded clustering over a :class:`ReadBatch`.

    Drop-in for :class:`~repro.cluster.batched.BatchedGreedyClusterer`
    everywhere a ``clusterer=`` is accepted (``ReadRequest``,
    ``StoreService.put``): the same
    ``assign``/``cluster_batch``/``cluster_pools`` surface and
    relabeled-spanning-batch outputs. Candidate pairs come from LSH bin
    collisions instead of pool × representative scans, so work grows
    near-linearly with pool size; every pair placed in one cluster was
    verified at exact edit distance ≤ ``threshold``. Cluster ids are in
    order of each component's first read, so a pool that happens to
    arrive sorted by true cluster gets the familiar 0,0,..,1,1,.. shape.

    Args:
        threshold: maximum exact edit distance for two reads to share a
            cluster (same meaning as the greedy clusterer's).
        q: q-gram length for the minhash signatures. Larger q separates
            foreign strands into different bins (less wasted
            verification) but lowers same-strand collision rates.
        n_bands: number of independent hash bands. More bands raise
            recall (a pair needs to collide in just one) at linearly
            more hashing work.
        rows_per_band: minhash rows combined into one band key.
            ``2`` suppresses the giant common-q-gram bins that
            single-row banding produces on skewed pools.
        n_rescue_bands: single-row bands run *after* the paired bands.
            A pair of very noisy reads (or a coverage-2 pool with no
            transitivity to lean on) can have too little q-gram overlap
            to ever agree on two rows at once; colliding on one row is
            an order of magnitude likelier. Running these last keeps
            them affordable: by then most of the pool is merged and
            each band compares only one delegate per (bin, component).
        min_sketch_matches: before paying for the DP, a candidate pair
            must agree on at least this many of the total minhash rows
            (an unbiased Jaccard estimate the banding already
            computed). Noisy copies of one strand agree on dozens of
            rows; reads of different strands on ~zero — this is what
            keeps exact verification from going quadratic on large
            pools. ``0`` disables the filter (every collision is
            DP-verified).
        seed: root of the fixed per-band RNG substreams. Same pool +
            same seed ⇒ identical assignments, run to run.
    """

    def __init__(self, threshold: int, q: int = 8, n_bands: int = 48,
                 rows_per_band: int = 2, n_rescue_bands: int = 16,
                 min_sketch_matches: int = 4, seed: int = 2022) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        if q <= 0:
            raise ValueError(f"q must be positive, got {q}")
        if n_bands <= 0:
            raise ValueError(f"n_bands must be positive, got {n_bands}")
        if rows_per_band <= 0:
            raise ValueError(
                f"rows_per_band must be positive, got {rows_per_band}")
        if n_rescue_bands < 0:
            raise ValueError(
                f"n_rescue_bands must be non-negative, got {n_rescue_bands}")
        n_rows = n_bands * rows_per_band + n_rescue_bands
        if not 0 <= min_sketch_matches <= n_rows:
            raise ValueError(
                f"min_sketch_matches must lie in [0, {n_rows}], "
                f"got {min_sketch_matches}")
        self.threshold = threshold
        self.q = q
        self.n_bands = n_bands
        self.rows_per_band = rows_per_band
        self.n_rescue_bands = n_rescue_bands
        self.min_sketch_matches = min_sketch_matches
        self.seed = seed
        # One odd multiply-shift multiplier per minhash row, each from
        # its own fixed substream, drawn once for every batch.
        self._multipliers = np.array([
            int(np.random.default_rng(np.random.SeedSequence(
                entropy=seed, spawn_key=(row,)
            )).integers(0, 2 ** 62, dtype=np.uint64)) * 2 + 1
            for row in range(n_rows)
        ], dtype=np.uint64)

    @classmethod
    def for_strand_length(cls, length: int, **kwargs) -> "LSHClusterer":
        """A clusterer with the default threshold for designed strands of
        ``length`` bases — the same quarter-strand rule
        :meth:`BatchedGreedyClusterer.for_strand_length` uses, so the two
        paths accept exactly the same pairs."""
        return cls(threshold=max(2, length // 4), **kwargs)

    # -- banding -------------------------------------------------------------

    def _minhash_rows(self, batch: ReadBatch) -> np.ndarray:
        """``(n_bands * rows_per_band + n_rescue_bands, n_reads)`` minhashes.

        Row ``r`` multiply-shift-hashes every read's q-gram window codes
        with the odd multiplier of the fixed substream
        ``SeedSequence(seed, spawn_key=(r,))`` and takes the per-read
        minimum (one segmented ``minimum.reduceat`` over the windows,
        which arrive grouped by read). Depends only on read *content*,
        never on row order or pool structure, so it is computed once per
        batch.
        """
        owners, codes, n_reads = _valid_window_codes(batch, self.q,
                                                     n_alphabet=4)
        bounds = np.searchsorted(owners, np.arange(n_reads + 1))
        nonempty = bounds[1:] > bounds[:-1]
        seg_starts = bounds[:-1][nonempty]
        shifted = codes.astype(np.uint64) + np.uint64(1)
        mins = np.full((self._multipliers.size, n_reads), _EMPTY_MINHASH,
                       dtype=np.uint64)
        if seg_starts.size:
            for row, multiplier in enumerate(self._multipliers):
                mins[row, nonempty] = np.minimum.reduceat(
                    shifted * multiplier, seg_starts
                )
        return mins

    def _band_keys(self, mins: np.ndarray) -> np.ndarray:
        """One key row per band: paired bands first, rescue bands after.

        Band ``b < n_bands`` mixes minhash rows ``[b * rows_per_band,
        (b + 1) * rows_per_band)``; rescue band ``i`` is minhash row
        ``n_bands * rows_per_band + i`` alone (re-mixed so a rescue key
        never collides with a paired key by construction).
        """
        r = self.rows_per_band
        n_total = self.n_bands + self.n_rescue_bands
        keys = np.empty((n_total, mins.shape[1]), dtype=np.uint64)
        for band in range(self.n_bands):
            mixed = np.full(mins.shape[1], _FNV_OFFSET, dtype=np.uint64)
            for j in range(r):
                mixed = mixed * _FNV_PRIME + mins[band * r + j]
            keys[band] = mixed
        for i in range(self.n_rescue_bands):
            keys[self.n_bands + i] = (
                mins[self.n_bands * r + i] * _FNV_PRIME + np.uint64(i)
            )
        return keys

    def _prepare(self, batch: ReadBatch) -> Tuple[np.ndarray, ...]:
        """Everything ``_assign_rows`` needs of a batch, built once.

        ``(matrix, lengths, band_keys, sketch_ranks, fp_ranks)``: the
        padded read matrix for the DP, the band keys, and dense ranks of
        the minhash rows and of the content fingerprints. The ranks
        stand in for the raw 64-bit values — equality and order are all
        the banding uses of them — so they pack into int64 sort keys.
        """
        matrix, lengths = padded_int16_matrix(batch)
        mins = self._minhash_rows(batch)
        return (
            matrix, lengths, self._band_keys(mins), _dense_ranks(mins),
            _dense_ranks(_content_fingerprints(matrix, lengths)[None])[0],
        )

    # -- assignment ----------------------------------------------------------

    def _assign_rows(
        self,
        start: int,
        stop: int,
        matrix: np.ndarray,
        lengths: np.ndarray,
        band_keys: np.ndarray,
        sketch_ranks: np.ndarray,
        fp_ranks: np.ndarray,
    ) -> Tuple[np.ndarray, int]:
        """Cluster the read rows ``[start, stop)`` as one pool.

        Band by band: bin the rows by band key, collapse each
        (bin, component) to its lowest-fingerprint delegate, chain the
        delegates by sketch-row sort order and emit the adjacent
        same-bin pairs as candidates, screen them (length gap, sketch
        agreement, failed-pair memo — all exact-safe), verify the rest
        with the banded DP stack, and union the pairs at distance ≤
        threshold. Returns ``(assignment, n_clusters)``.
        """
        n = stop - start
        if n == 0:
            return np.zeros(0, dtype=np.int64), 0
        threshold = self.threshold
        fp = fp_ranks[start:stop]
        lens = lengths[start:stop]
        labels = np.arange(n, dtype=np.int64)
        n_rows = sketch_ranks.shape[0]
        # Every rank, label and bin number is below the batch size + 1.
        radix = fp_ranks.size + 1
        n_bins = n_candidates = n_verified = 0
        # Pairs that reached the DP once and failed never pay for it
        # again: without the memo, a pair of sketch-similar but distant
        # reads re-verifies in every band whose bins chain them
        # adjacently. A plain set beats an array membership test here —
        # ``np.isin`` re-hashes the whole memo on every call.
        failed_pairs: set = set()
        n_u64 = np.uint64(n)
        for band in range(self.n_bands + self.n_rescue_bands):
            # Bin by band key; within a bin, collapse each current
            # component to one *delegate* (its lowest-fingerprint
            # member) — merging components only needs one edge, so
            # comparing more than one member per component is pure
            # waste, and the collapse is what keeps late (and rescue)
            # bands near-free once most of the pool has merged.
            keys = band_keys[band, start:stop]
            order = _lex_order((labels, fp), radix)
            order = order[np.argsort(keys[order], kind="stable")]
            sorted_keys = keys[order]
            new_bin = np.empty(n, dtype=bool)
            new_bin[0] = True
            np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_bin[1:])
            n_bins += int(np.count_nonzero(new_bin))
            sorted_labels = labels[order]
            new_group = new_bin.copy()
            new_group[1:] |= sorted_labels[1:] != sorted_labels[:-1]
            delegate_pos = np.flatnonzero(new_group)
            delegate_read = order[delegate_pos]
            if delegate_read.size < 2:
                continue
            # Candidate edges are *adjacent* delegate pairs after an
            # in-bin sort by other minhash rows — linear in bin size by
            # construction, never quadratic. Same-strand delegates
            # agree on most sketch rows, so the sort pulls them into
            # adjacent runs and the chain of verified adjacent edges
            # unions the whole run transitively; foreign neighbours
            # fail the sketch screen or the DP. (A bin of all reads
            # sharing one *popular* q-gram — every rescue band has
            # them, and they grow linearly with the pool — would cost
            # a quadratic number of representative comparisons
            # otherwise.) All sort keys are content-derived, so the
            # edge set stays invariant under read-order shuffles.
            # Bins in key order, numbered densely for the packed sort key.
            delegate_bin = np.cumsum(new_bin)[delegate_pos]
            s1 = sketch_ranks[(2 * band + 1) % n_rows, start + delegate_read]
            s2 = sketch_ranks[(2 * band + 7) % n_rows, start + delegate_read]
            s3 = sketch_ranks[(2 * band + 13) % n_rows, start + delegate_read]
            chain = _lex_order((delegate_bin, s1, s2, s3, fp[delegate_read]),
                               radix)
            chained = delegate_read[chain]
            chained_bin = delegate_bin[chain]
            same_bin = chained_bin[1:] == chained_bin[:-1]
            u = chained[:-1][same_bin]
            v = chained[1:][same_bin]
            n_candidates += u.size
            # Exact-safe screens before the DP. Adjacent delegates are
            # distinct components by construction, so no connectivity
            # check is needed — straight to the length gap, then the
            # sketch: reads of different strands agree on ~zero minhash
            # rows, noisy copies of one strand on dozens (a free
            # unbiased Jaccard estimate the banding already computed).
            close = np.abs(lens[u] - lens[v]) <= threshold
            u, v = u[close], v[close]
            if u.size and self.min_sketch_matches:
                agreeing = np.count_nonzero(
                    sketch_ranks[:, start + u] == sketch_ranks[:, start + v],
                    axis=0,
                )
                similar = agreeing >= self.min_sketch_matches
                u, v = u[similar], v[similar]
            if u.size == 0:
                continue
            pair_keys = (
                np.minimum(u, v).astype(np.uint64) * n_u64
                + np.maximum(u, v).astype(np.uint64)
            )
            if failed_pairs:
                fresh = np.fromiter(
                    (key not in failed_pairs
                     for key in pair_keys.tolist()),
                    dtype=bool, count=pair_keys.size,
                )
                u, v = u[fresh], v[fresh]
                pair_keys = pair_keys[fresh]
            if u.size == 0:
                continue
            n_verified += u.size
            distances = banded_edit_distances_stack(
                matrix[start + v], lens[v],
                matrix[start + u], lens[u],
                band=threshold,
            )
            within = distances <= threshold
            if not within.all():
                failed_pairs.update(pair_keys[~within].tolist())
            if within.any():
                labels = _union_components(labels, u[within], v[within])
        components, assignment = np.unique(labels, return_inverse=True)
        tracer = get_tracer()
        if tracer.is_recording:
            metrics = tracer.metrics
            metrics.counter("cluster.reads_in").add(n)
            metrics.counter("cluster.lsh.bins").add(n_bins)
            metrics.counter("cluster.lsh.candidate_pairs").add(n_candidates)
            metrics.counter("cluster.lsh.verified_pairs").add(n_verified)
        return assignment.astype(np.int64), int(components.size)
