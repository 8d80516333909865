"""Multi-unit storage: payloads larger than one encoding unit.

The paper's encoding unit (matrix) has a fixed capacity; larger payloads
must span several units, each of which would carry its own primer pair in
the wetlab (units are separately amplifiable pools — the key-value model
of Section 2.1). :class:`DnaStore` handles the split:

* the payload is cut into per-unit stripes *round-robin in priority
  order*, so that under DnaMapper every unit receives an even share of
  every priority class (unit 0 does not hoard all the important bits —
  a lost unit then degrades all files proportionally, mirroring the
  paper's multi-file fairness heuristic at the unit level);
* all units encode through one batched
  :meth:`~repro.core.pipeline.DnaStoragePipeline.encode_many` pass, so
  layout policies work unchanged while placement, parity and strand
  rendering run as single array operations across the whole store;
* decoding is the store's batching boundary: one spanning
  :class:`~repro.channel.readbatch.ReadBatch` (units back to back, see
  :meth:`ReadBatch.concat` and ``SequencingSimulator.sequence_store``)
  goes through **one** consensus batch call and one vectorized
  :meth:`~repro.core.pipeline.DnaStoragePipeline.receive_many` pass
  covering every surviving cluster of every unit, feeding one batched RS
  correction. Each payload comes back with one gather over its units'
  rows of the corrected ``(units, capacity_bits)`` bit stack (stripe
  ``u`` is the stream's bits ``u, u + n, ...``), and each
  :class:`StoreReport` is its request's slice of the columnar verdicts,
  so no per-unit report is built unless a caller reads one. The
  per-unit loop it replaced is a test oracle (``tests/oracles/core.py``),
  pinned byte-identical by ``tests/core/test_store_batched.py``.

The read surface is request-shaped: :meth:`DnaStore.read_many` takes
:class:`ReadRequest` objects (labeled reads or an unlabeled pool, with
per-request ranking/confidence options), checks each with
:meth:`DnaStore.check` before any layer runs, and coalesces them into
**one** spanning consensus pass and **one** batched RS errata pass,
returning one :class:`ReadResult` each — the amortization the
:mod:`repro.service` plane builds its tick loop on.
:meth:`DnaStore.read` is its one-request case.
"""

from __future__ import annotations

import ctypes
import functools
import numbers
import os
from collections import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.readbatch import ReadBatch, packed_bases
from repro.channel.sequencer import ReadCluster
from repro.cluster.batched import BatchedGreedyClusterer
from repro.cluster.lsh import LSHClusterer
from repro.codec.basemap import BASES
from repro.consensus.base import Reconstructor
from repro.core.outcome import (
    DecodeReport,
    ReceivedUnits,
    UnitReports,
    unrank,
)
from repro.core.pipeline import DnaStoragePipeline, EncodedUnit, PipelineConfig
from repro.observability.trace import get_tracer

#: glibc ``mallopt`` parameters (``<malloc.h>``) and the values
#: :func:`pin_heap` gives them: glibc's own adaptive ceilings on 64-bit
#: (the largest mmap threshold it accepts, and twice it for trimming).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20
#: The environment variables through which a process tunes these itself.
_MALLOC_VARIABLES = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_",
                     "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")
_heap_pinned = False


def pin_heap() -> bool:
    """Pin glibc malloc's mmap and trim thresholds, once per process.

    A read allocates and frees megabytes of NumPy temporaries (consensus
    matrices, bit planes, RS products). Left adaptive, glibc hands the
    top of the heap back to the OS whenever a free leaves more than its
    trim threshold there, and the next read faults those pages back in.
    Whether a free lands there depends on the heap's layout, so the
    fault count shifts with the size of any array and from one run to
    the next (a serve tick: 16 to 185 faults, against 3 pinned). Pinned,
    every array below 32 MiB comes from the heap and the heap is kept,
    so a steady read loop stops faulting.

    Called by every :class:`DnaStore`. Returns whether the thresholds
    are pinned; it does nothing off glibc, or when the process tunes
    these thresholds itself (``MALLOC_*_`` or ``glibc.malloc``
    tunables).
    """
    global _heap_pinned
    if not _heap_pinned:
        if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "") or any(
                name in os.environ for name in _MALLOC_VARIABLES):
            return False
        try:
            libc = ctypes.CDLL(None)
        except (OSError, TypeError):  # no process-wide C library handle
            return False
        if not hasattr(libc, "gnu_get_libc_version"):  # not glibc
            return False
        mallopt = libc.mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        _heap_pinned = bool(
            mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
        )
    return _heap_pinned


#: The labeled reads a :class:`ReadRequest` can carry: one spanning
#: batch, one batch or cluster list per unit.
StoreReads = Union[
    ReadBatch,
    Sequence[ReadBatch],
    Sequence[Sequence[ReadCluster]],
]

#: Any clusterer a pooled request can ride: the exact batched greedy
#: scan, or the sub-linear LSH-banded path for large pools — anything
#: exposing the ``cluster_pools(batch, pool_boundaries)`` surface.
PoolClusterer = Union[BatchedGreedyClusterer, LSHClusterer]


@dataclass
class StoreImage:
    """A payload encoded across several units.

    Attributes:
        units: one :class:`EncodedUnit` per stripe.
        n_data_bits: payload length in bits.
    """

    units: List[EncodedUnit]
    n_data_bits: int

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def total_strands(self) -> int:
        return sum(len(unit.strands) for unit in self.units)


class StoreReport:
    """Aggregated decode outcome across units.

    Holds one :class:`~repro.core.outcome.DecodeReport` per unit. The
    store hands in its request's slice of one batched correction (a
    :class:`~repro.core.outcome.UnitReports`), so ``unit_reports`` builds
    the reports only when read, while ``clean`` (computed once) and
    ``n_units`` come from the arrays.
    """

    def __init__(self, unit_reports: Sequence[DecodeReport]) -> None:
        self._units = unit_reports

    def __repr__(self) -> str:
        return f"StoreReport(unit_reports={self.unit_reports!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, StoreReport):
            return NotImplemented
        return self.unit_reports == other.unit_reports

    @property
    def unit_reports(self) -> List[DecodeReport]:
        return list(self._units)

    @property
    def n_units(self) -> int:
        return len(self._units)

    @functools.cached_property
    def clean(self) -> bool:
        """True when every codeword of every unit decoded."""
        if isinstance(self._units, UnitReports):
            return bool(self._units.ok.all())
        return all(report.clean for report in self._units)

    @property
    def total_erased_columns(self) -> int:
        return sum(len(report.erased_columns) for report in self._units)


@dataclass
class ReadRequest:
    """One object-read request for :meth:`DnaStore.read` / ``read_many``.

    A request names *what to decode* and *how*: labeled reads (the
    default) or an unlabeled per-unit pool (``pool=True``, reads
    clustered first). Options travel with the request, so
    :meth:`DnaStore.read_many` can coalesce requests with heterogeneous
    options into shared batch passes. Every request of a call is checked
    by :meth:`DnaStore.check` before any layer runs; a
    ``TypeError``/``ValueError`` names the field.

    Attributes:
        reads: the read material — anything :data:`StoreReads` accepts
            for labeled requests; one :class:`ReadBatch` with one cluster
            (pool) per unit when ``pool`` is set.
        n_data_bits: payload size stored at encode time.
        pool: when True, ``reads`` is an unlabeled per-unit pool batch
            and is clustered before decoding.
        ranking: the global priority permutation used at encode time.
        confidence_threshold: advisory-erasure threshold, as in
            :meth:`~repro.core.pipeline.DnaStoragePipeline.receive`;
            ``None`` or a real number in [0, 1].
        clusterer: pooled requests only — which clusterer recovers the
            pool's clusters: :class:`~repro.cluster.BatchedGreedyClusterer`
            (exact greedy scan, the default at a strand-length-derived
            threshold) or :class:`~repro.cluster.LSHClusterer`
            (sub-linear candidate generation for large pools).
        object_id: opaque caller tag, copied onto the result (the
            service plane keys its queue and cache on it).
        request_id: opaque per-request tag, also copied onto the
            result — the service plane stamps its monotonically
            assigned ticket numbers here so a result can be joined
            against the structured event log.
    """

    reads: StoreReads
    n_data_bits: int
    pool: bool = False
    ranking: Optional[np.ndarray] = None
    confidence_threshold: Optional[float] = None
    clusterer: Optional[PoolClusterer] = None
    object_id: Optional[object] = None
    request_id: Optional[int] = None


@dataclass
class ReadResult:
    """The outcome of one :class:`ReadRequest`.

    Wraps the payload bits and the existing :class:`StoreReport` (no
    parallel report type); iterable as ``(bits, report)`` so call sites
    written against the legacy tuple shape unpack unchanged.

    Attributes:
        bits: the decoded payload.
        report: per-unit decode outcomes.
        object_id: echoed from the request.
        request_id: echoed from the request (the service plane's ticket
            number — the join key into its event log).
        cache_hit: True when the service plane answered from its
            decoded-object cache (no pipeline work).
        seconds: wall-clock serve time (queue wait included when the
            service plane answers; 0.0 when not measured).
    """

    bits: np.ndarray
    report: StoreReport
    object_id: Optional[object] = None
    request_id: Optional[int] = None
    cache_hit: bool = False
    seconds: float = 0.0

    def __iter__(self):
        yield self.bits
        yield self.report

    @property
    def clean(self) -> bool:
        return self.report.clean


class DnaStore:
    """Encode/decode byte payloads of arbitrary size across units.

    Building one pins glibc's malloc thresholds for the process
    (:func:`pin_heap`).
    """

    def __init__(
        self,
        config: PipelineConfig = PipelineConfig(),
        reconstructor: Optional[Reconstructor] = None,
    ) -> None:
        pin_heap()
        self.pipeline = DnaStoragePipeline(config, reconstructor=reconstructor)

    @property
    def unit_capacity_bits(self) -> int:
        return self.pipeline.capacity_bits

    def units_needed(self, n_bits: int) -> int:
        """Number of encoding units a payload of ``n_bits`` requires."""
        if n_bits < 0:
            raise ValueError(f"n_bits must be non-negative, got {n_bits}")
        return max(1, -(-n_bits // self.unit_capacity_bits))

    def encode(
        self, bits: np.ndarray, ranking: Optional[np.ndarray] = None
    ) -> StoreImage:
        """Encode a bit array of any size into one or more units.

        Args:
            bits: the payload.
            ranking: optional *global* priority permutation (see
                :mod:`repro.core.ranking`); the prioritized stream is dealt
                round-robin across units, highest priority first.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ValueError("bits must be a 1-D array")
        if ranking is None:
            prioritized = bits
        else:
            ranking = np.asarray(ranking, dtype=np.int64)
            if ranking.shape != (bits.size,):
                raise ValueError("ranking must be a permutation of the bits")
            prioritized = bits[ranking]

        n_units = self.units_needed(bits.size)
        stripes = [prioritized[u::n_units] for u in range(n_units)]
        return StoreImage(
            units=self.pipeline.encode_many(stripes), n_data_bits=bits.size
        )

    # -- the read surface ----------------------------------------------------

    def check(self, request: ReadRequest) -> None:
        """Reject a malformed request with a typed error naming its field.

        ``reads`` must not be ``None`` (``TypeError``). ``n_data_bits`` must
        be an integer, Python or numpy, not ``bool`` or ``float``
        (``TypeError``), and non-negative (``ValueError``). A ``ranking``
        must be a permutation of ``range(n_data_bits)`` (``ValueError``). A
        ``confidence_threshold`` must be ``None`` or a real number, not
        ``bool`` (``TypeError``), in [0, 1], so not ``nan`` (``ValueError``).
        The reads must cover the request's units: a pooled request takes
        one :class:`ReadBatch` with one pool per unit, and labeled reads
        are a spanning batch of ``n_units x n_columns`` clusters or a list
        of one :class:`ReadBatch` or :class:`ReadCluster` list per unit. A
        wrong form is a ``TypeError``, a wrong count a ``ValueError``.
        Every base of the request's reads must be one of the four DNA
        letters (symbol < 4); another symbol, or a character a cluster's
        string cannot map, is a ``ValueError``.

        :meth:`read_many` checks every request before any layer runs, and
        the service plane checks an object when it is registered. Cost:
        O(reads) plus one pass over the request's bases, O(n_data_bits)
        more for a ranked request.
        """
        reads = request.reads
        if reads is None:
            raise TypeError("ReadRequest.reads is None")
        n_bits = request.n_data_bits
        if isinstance(n_bits, bool) or not isinstance(n_bits,
                                                      (int, np.integer)):
            raise TypeError(
                "ReadRequest.n_data_bits must be an integer, got "
                f"{type(n_bits).__name__}"
            )
        if n_bits < 0:
            raise ValueError(
                f"ReadRequest.n_data_bits must be non-negative, got {n_bits}"
            )
        if request.ranking is not None:
            # n_data_bits integers in [0, n_data_bits), none twice.
            ranking = np.asarray(request.ranking)
            if not (ranking.shape == (n_bits,)
                    and np.issubdtype(ranking.dtype, np.integer)
                    and (n_bits == 0
                         or (ranking.min() >= 0
                             and ranking.max() < n_bits
                             and np.bincount(ranking.astype(np.int64))
                             .max() == 1))):
                raise ValueError(
                    "ReadRequest.ranking must be a permutation of "
                    f"range(n_data_bits) = range({n_bits})"
                )
        threshold = request.confidence_threshold
        if threshold is not None:
            if isinstance(threshold, bool) or not isinstance(threshold,
                                                             numbers.Real):
                raise TypeError(
                    "ReadRequest.confidence_threshold must be a real number "
                    f"or None, got {type(threshold).__name__}"
                )
            if not 0.0 <= threshold <= 1.0:
                raise ValueError(
                    "ReadRequest.confidence_threshold must be in [0, 1], got "
                    f"{threshold}"
                )
        n_units = self.units_needed(n_bits)
        if request.pool:
            if not isinstance(reads, ReadBatch):
                raise TypeError(
                    "ReadRequest.reads of a pooled request must be one "
                    "ReadBatch with one pool per unit"
                )
            if reads.n_clusters != n_units:
                raise ValueError(
                    f"ReadRequest.reads holds {reads.n_clusters} unit "
                    f"pools; the payload spans {n_units} units"
                )
        elif isinstance(reads, ReadBatch):
            n_columns = self.pipeline.matrix_config.n_columns
            if reads.n_clusters != n_units * n_columns:
                raise ValueError(
                    f"ReadRequest.reads holds {reads.n_clusters} clusters; "
                    f"expected {n_units} units x {n_columns} columns"
                )
        else:
            if not isinstance(reads, abc.Sequence) or not all(
                    isinstance(unit, ReadBatch)
                    or (isinstance(unit, abc.Sequence)
                        and all(isinstance(c, ReadCluster) for c in unit))
                    for unit in reads):
                raise TypeError(
                    "ReadRequest.reads must be a ReadBatch or a list of "
                    "one ReadBatch or ReadCluster list per unit"
                )
            if len(reads) != n_units:
                raise ValueError(
                    f"ReadRequest.reads holds {len(reads)} units; expected "
                    f"{n_units}"
                )
        # Every base of the request's own reads is a DNA letter. Reads
        # that fill their buffer are settled by one max over it; any other
        # batch (a view into a larger shared buffer, or one whose buffer
        # holds a bad symbol) is judged on its reads' own bases.
        for batch in ([reads] if isinstance(reads, ReadBatch) else reads):
            if not isinstance(batch, ReadBatch):
                try:
                    batch = ReadBatch.from_clusters(batch)
                except ValueError as error:
                    raise ValueError(f"ReadRequest.reads: {error}") from error
            bases = batch.buffer
            if (bases.size != batch.total_bases
                    or bases.max(initial=0) >= len(BASES)):
                bases = packed_bases(bases, batch.offsets, batch.lengths)
                if bases.max(initial=0) >= len(BASES):
                    raise ValueError(
                        f"ReadRequest.reads holds base symbol {bases.max()}, "
                        f"outside the {len(BASES)}-letter alphabet"
                    )

    def read(self, request: ReadRequest) -> ReadResult:
        """Serve one :class:`ReadRequest`; returns a :class:`ReadResult`.

        The one-request case of :meth:`read_many`, traced as
        ``store.read``. Labeled reads and unlabeled pools (``pool=True``)
        decode byte-identically to the frozen per-unit oracle decode
        (``tests/core/test_store_batched.py``).
        """
        return self.read_many([request], _span="store.read")[0]

    def read_many(
        self,
        requests: Sequence[ReadRequest],
        *,
        _span: str = "store.read_many",
    ) -> List[ReadResult]:
        """Serve many requests through **shared** batch passes.

        The coalescing boundary the service plane amortizes on. Every
        request passes :meth:`check` before any layer runs, so a
        malformed one fails early, alone, with a typed error naming its
        field. Then all requests are merged — pooled requests sharing a
        clusterer go through one
        :meth:`~repro.cluster.batched.BatchedGreedyClusterer.
        cluster_pools` call, requests sharing a ``confidence_threshold``
        through one spanning
        :meth:`~repro.core.pipeline.DnaStoragePipeline.receive_many`
        (one consensus batch call), and *every* request's units through
        one :meth:`~repro.core.pipeline.DnaStoragePipeline.correct_many`
        (one batched RS errata pass). Results come back in request
        order, each byte-identical to serving its request alone, under
        one ``store.read_many`` span (``_span`` is how :meth:`read` names
        its own).
        """
        requests = list(requests)
        if not requests:
            return []
        with get_tracer().span(_span, n_requests=len(requests)):
            for request in requests:
                self.check(request)
            n_units = [self.units_needed(r.n_data_bits) for r in requests]

            # One receive_many per distinct confidence threshold (the
            # threshold is a per-call knob of the consensus/receive pass);
            # the homogeneous common case is a single group, i.e. a single
            # consensus batch call for the whole request list.
            groups: dict = {}
            for i, request in enumerate(requests):
                groups.setdefault(request.confidence_threshold, []).append(i)
            default_clusterer = None
            parts = []  # one ReceivedUnits per threshold group
            first_unit = [0] * len(requests)  # each request's first row
            n_received = 0
            for threshold, indices in groups.items():
                segments = []  # (batch, boundaries, [request index])
                pooled: dict = {}
                for i in indices:
                    request = requests[i]
                    if request.pool:
                        key = (id(request.clusterer)
                               if request.clusterer is not None else None)
                        pooled.setdefault(key, []).append(i)
                    else:
                        batch, boundaries = self._spanning_batch(
                            request.reads, n_units[i]
                        )
                        segments.append((batch, boundaries, [i]))
                # Pooled requests sharing a clusterer cluster through ONE
                # cluster_pools call: their pool batches concatenate (one
                # cluster per unit), and pools cluster independently, so
                # each unit's recovered clusters match the solo decode.
                for members in pooled.values():
                    clusterer = requests[members[0]].clusterer
                    if clusterer is None:
                        if default_clusterer is None:
                            default_clusterer = (
                                BatchedGreedyClusterer.for_strand_length(
                                    self.pipeline.matrix_config.strand_length
                                )
                            )
                        clusterer = default_clusterer
                    pools = [requests[i].reads for i in members]
                    combined = pools[0] if len(pools) == 1 else (
                        ReadBatch.concat(pools)
                    )
                    labeled, boundaries = clusterer.cluster_pools(combined)
                    segments.append((labeled, boundaries, members))

                batch, boundaries, owners = self._merge_segments(segments)
                parts.append(self.pipeline.receive_many(
                    batch, boundaries, confidence_threshold=threshold,
                ))
                for i in owners:
                    first_unit[i] = n_received
                    n_received += n_units[i]
            received = (parts[0] if len(parts) == 1
                        else ReceivedUnits.concat(parts))

            # ONE batched RS errata pass across every request's units.
            sizes = [0] * n_received
            for request, first, n in zip(requests, first_unit, n_units):
                sizes[first:first + n] = self._stripe_sizes(
                    request.n_data_bits, n
                )
            decoded = self.pipeline.correct_many(received, sizes)
            results = []
            for request, first, n in zip(requests, first_unit, n_units):
                # Stripe u is the stream's bits u, u + n, ...: read the
                # units' (n, ceil(N / n)) bit block column by column, then
                # undo the encode-time ranking.
                n_bits = request.n_data_bits
                block = decoded.prioritized[first:first + n, :-(-n_bits // n)]
                ranking = request.ranking
                if ranking is not None:
                    ranking = np.asarray(ranking, dtype=np.int64)
                results.append(ReadResult(
                    bits=unrank(block.T.ravel(), n_bits, ranking),
                    report=StoreReport(decoded.reports[first:first + n]),
                    object_id=request.object_id,
                    request_id=request.request_id,
                ))
        return results

    @staticmethod
    def _merge_segments(segments):
        """Concatenate ``(batch, boundaries, owners)`` segments into one
        spanning batch + unit boundary table for ``receive_many``;
        ``owners`` are the request indices whose units a segment holds,
        in order."""
        if len(segments) == 1:
            batch, boundaries, owners = segments[0]
            return batch, boundaries, list(owners)
        batches = [segment[0] for segment in segments]
        pieces = [np.zeros(1, dtype=np.int64)]
        owners: List = []
        offset = 0
        for batch, boundaries, segment_owners in segments:
            pieces.append(np.asarray(boundaries[1:], dtype=np.int64) + offset)
            offset += batch.n_clusters
            owners.extend(segment_owners)
        return ReadBatch.concat(batches), np.concatenate(pieces), owners

    @staticmethod
    def _stripe_sizes(n_data_bits: int, n_units: int) -> List[int]:
        """Per-unit stripe lengths of the round-robin deal."""
        return [
            len(range(u, n_data_bits, n_units)) for u in range(n_units)
        ]

    def _spanning_batch(
        self, reads: StoreReads, n_units: int
    ) -> Tuple[ReadBatch, np.ndarray]:
        """Normalize any accepted input form into ``(batch, boundaries)``.

        ``boundaries`` is the per-unit cluster boundary table
        (``boundaries[u] .. boundaries[u+1]`` are unit ``u``'s cluster
        slots in the spanning batch). The form and unit count were
        checked up front by :meth:`check`.
        """
        if isinstance(reads, ReadBatch):
            n_columns = self.pipeline.matrix_config.n_columns
            boundaries = np.arange(n_units + 1, dtype=np.int64) * n_columns
            return reads, boundaries
        per_unit = [
            unit if isinstance(unit, ReadBatch)
            else ReadBatch.from_clusters(unit)
            for unit in reads
        ]
        counts = np.array([batch.n_clusters for batch in per_unit],
                          dtype=np.int64)
        boundaries = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        return ReadBatch.concat(per_unit), boundaries
