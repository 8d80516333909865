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
  covering every surviving cluster of every unit, feeding per-unit RS
  correction. The per-unit loop it replaced is a test oracle
  (``tests/oracles/core.py``), pinned byte-identical by
  ``tests/core/test_store_batched.py``.

The read surface is request-shaped: :meth:`DnaStore.read` takes one
:class:`ReadRequest` (labeled reads or an unlabeled pool, with
per-request ranking/confidence options) and returns a
:class:`ReadResult`; :meth:`DnaStore.read_many` coalesces many requests
into **one** spanning consensus pass and **one** batched RS errata pass
shared across all of them — the amortization the :mod:`repro.service`
plane builds its tick loop on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.readbatch import ReadBatch
from repro.channel.sequencer import ReadCluster
from repro.cluster.batched import BatchedGreedyClusterer
from repro.cluster.lsh import LSHClusterer
from repro.consensus.base import Reconstructor
from repro.core.pipeline import DecodeReport, DnaStoragePipeline, EncodedUnit, PipelineConfig
from repro.observability.manifest import build_manifest
from repro.observability.trace import get_tracer

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


@dataclass
class StoreReport:
    """Aggregated decode outcome across units."""

    unit_reports: List[DecodeReport]

    @property
    def clean(self) -> bool:
        return all(report.clean for report in self.unit_reports)

    @property
    def total_erased_columns(self) -> int:
        return sum(len(report.erased_columns) for report in self.unit_reports)

    @property
    def total_failed_codewords(self) -> int:
        return sum(len(report.failed_codewords) for report in self.unit_reports)


@dataclass
class ReadRequest:
    """One object-read request for :meth:`DnaStore.read` / ``read_many``.

    A request names *what to decode* and *how*: labeled reads (the
    default) or an unlabeled per-unit pool (``pool=True``, reads
    clustered first). Options travel with the request, so
    :meth:`DnaStore.read_many` can coalesce requests with heterogeneous
    options into shared batch passes. Every request of a call is checked
    before any layer runs: ``reads`` must not be ``None``,
    ``n_data_bits`` must be a non-negative integer (Python or numpy, not
    ``bool`` or ``float``) and a ``ranking`` a permutation of
    ``range(n_data_bits)``; a ``TypeError``/``ValueError`` names the
    field.

    Attributes:
        reads: the read material — anything :data:`StoreReads` accepts
            for labeled requests; one :class:`ReadBatch` with one cluster
            (pool) per unit when ``pool`` is set.
        n_data_bits: payload size stored at encode time.
        pool: when True, ``reads`` is an unlabeled per-unit pool batch
            and is clustered before decoding.
        ranking: the global priority permutation used at encode time.
        confidence_threshold: advisory-erasure threshold, as in
            :meth:`~repro.core.pipeline.DnaStoragePipeline.receive`.
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
        cache_hit: True when the service plane answered entirely from
            its decoded-unit cache (no pipeline work).
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
    """Encode/decode byte payloads of arbitrary size across units."""

    def __init__(
        self,
        config: PipelineConfig = PipelineConfig(),
        reconstructor: Optional[Reconstructor] = None,
    ) -> None:
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

    def read(self, request: ReadRequest) -> ReadResult:
        """Serve one :class:`ReadRequest`; returns a :class:`ReadResult`.

        The single decode entry point: labeled reads and unlabeled pools
        (``pool=True``) route through the same coalescing engine as
        :meth:`read_many`, pinned byte-identical to the frozen per-unit
        oracle decode by ``tests/core/test_store_batched.py``.
        """
        return self._serve([request], "store.read")[0]

    def read_many(self, requests: Sequence[ReadRequest]) -> List[ReadResult]:
        """Serve many requests through **shared** batch passes.

        The coalescing boundary the service plane amortizes on: all
        requests are merged — pooled requests sharing a
        clusterer go through one
        :meth:`~repro.cluster.batched.BatchedGreedyClusterer.
        cluster_pools` call, requests sharing a ``confidence_threshold``
        through one spanning
        :meth:`~repro.core.pipeline.DnaStoragePipeline.receive_many`
        (one consensus batch call), and *every* request's units through
        one :meth:`~repro.core.pipeline.DnaStoragePipeline.correct_many`
        (one batched RS errata pass). Results come back in request
        order, each byte-identical to serving its request alone.
        """
        return self._serve(list(requests), "store.read_many")

    def _serve(
        self, requests: List[ReadRequest], span_name: str
    ) -> List[ReadResult]:
        """Run requests through the coalescing engine under one span."""
        if not requests:
            return []
        tracer = get_tracer()
        with tracer.span(span_name, n_requests=len(requests)):
            served = self._read_many_impl(requests)
        self._emit_manifest(tracer, span_name)
        return [
            ReadResult(bits=bits, report=report, object_id=request.object_id,
                       request_id=request.request_id)
            for request, (bits, report, _) in zip(requests, served)
        ]

    def _read_many_impl(
        self, requests: List[ReadRequest]
    ) -> List[Tuple[np.ndarray, StoreReport, list]]:
        """The coalescing engine behind :meth:`read`/:meth:`read_many`.

        Returns one ``(bits, StoreReport, corrected)`` triple per
        request, in request order; ``corrected`` is the per-unit
        ``(stripe, DecodeReport)`` list — the service plane's
        decoded-unit cache stores those stripes, which are
        ranking-independent (ranking is applied at assembly, see
        :meth:`_assemble_bits`).
        """
        # Every request is checked before any layer runs, so a malformed
        # one fails early with a typed error naming its field. Cost:
        # O(requests), plus O(n_data_bits) for a ranked request.
        for request in requests:
            if request.reads is None:
                raise TypeError("ReadRequest.reads is None")
            n_bits = request.n_data_bits
            if isinstance(n_bits, bool) or not isinstance(
                n_bits, (int, np.integer)
            ):
                raise TypeError(
                    "ReadRequest.n_data_bits must be an integer, got "
                    f"{type(n_bits).__name__}"
                )
            if n_bits < 0:
                raise ValueError(
                    f"ReadRequest.n_data_bits must be non-negative, got "
                    f"{n_bits}"
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
            if request.pool:
                self._validate_pool(request.reads,
                                    self.units_needed(n_bits))

        results: List = [None] * len(requests)
        # One receive_many per distinct confidence threshold (the
        # threshold is a per-call knob of the consensus/receive pass);
        # the homogeneous common case is a single group, i.e. a single
        # consensus batch call for the whole request list.
        groups: dict = {}
        group_order = []
        for i, request in enumerate(requests):
            threshold = request.confidence_threshold
            if threshold not in groups:
                groups[threshold] = []
                group_order.append(threshold)
            groups[threshold].append(i)

        default_clusterer = None
        received_by_request: dict = {}
        for threshold in group_order:
            segments = []  # (batch, boundaries, [(request index, n_units)])
            pooled: dict = {}
            pooled_order = []
            for i in groups[threshold]:
                request = requests[i]
                n_units = self.units_needed(request.n_data_bits)
                if request.pool:
                    key = (id(request.clusterer)
                           if request.clusterer is not None else None)
                    if key not in pooled:
                        pooled[key] = []
                        pooled_order.append(key)
                    pooled[key].append(i)
                else:
                    segments.append(
                        self._spanning_batch(request.reads, n_units)
                        + ([(i, n_units)],)
                    )
            # Pooled requests sharing a clusterer cluster through ONE
            # cluster_pools call: their pool batches concatenate (one
            # cluster per unit), and pools cluster independently, so
            # each unit's recovered clusters match the solo decode.
            for key in pooled_order:
                indices = pooled[key]
                clusterer = requests[indices[0]].clusterer
                if clusterer is None:
                    if default_clusterer is None:
                        default_clusterer = (
                            BatchedGreedyClusterer.for_strand_length(
                                self.pipeline.matrix_config.strand_length
                            )
                        )
                    clusterer = default_clusterer
                pools = [requests[i].reads for i in indices]
                combined = pools[0] if len(pools) == 1 else (
                    ReadBatch.concat(pools)
                )
                labeled, boundaries = clusterer.cluster_pools(combined)
                owners = [
                    (i, self.units_needed(requests[i].n_data_bits))
                    for i in indices
                ]
                segments.append((labeled, boundaries, owners))

            merged_batch, merged_bounds, owners = self._merge_segments(
                segments
            )
            received = self.pipeline.receive_many(
                merged_batch, merged_bounds,
                confidence_threshold=threshold,
            )
            cursor = 0
            for i, n_units in owners:
                received_by_request[i] = received[cursor:cursor + n_units]
                cursor += n_units

        # ONE batched RS errata pass across every request's units.
        all_received = []
        all_sizes = []
        unit_spans = []
        for i in range(len(requests)):
            units = received_by_request[i]
            all_received.extend(units)
            all_sizes.extend(
                self._stripe_sizes(requests[i].n_data_bits, len(units))
            )
            unit_spans.append((i, len(units)))
        corrected = self.pipeline.correct_many(all_received, all_sizes)
        cursor = 0
        for i, n_units in unit_spans:
            request_corrected = corrected[cursor:cursor + n_units]
            cursor += n_units
            bits, report = self._assemble_bits(
                request_corrected, requests[i].n_data_bits,
                requests[i].ranking,
            )
            results[i] = (bits, report, request_corrected)
        return results

    @staticmethod
    def _merge_segments(segments):
        """Concatenate ``(batch, boundaries, owners)`` segments into one
        spanning batch + unit boundary table for ``receive_many``."""
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

    def _validate_pool(self, pool, n_units: int) -> None:
        if not isinstance(pool, ReadBatch):
            raise TypeError(
                "pooled requests take one ReadBatch with one pool per unit"
            )
        if pool.n_clusters != n_units:
            raise ValueError(
                f"pool holds {pool.n_clusters} unit pools; the payload "
                f"spans {n_units} units"
            )

    def _emit_manifest(self, tracer, name: str) -> None:
        """Snapshot a recording tracer into a RunManifest.

        Manifests aggregate *the whole tracer so far* — channel spans
        recorded earlier under the same tracer (e.g. by
        ``SequencingSimulator``) are part of the run's story, and a
        tracer reused across several decodes accumulates all of them
        (use one tracer per run for one-run manifests). Tracers with
        ``auto_manifest`` off (long decode loops that build one
        manifest at the end, e.g. the benchmark harness) skip this.
        """
        if not tracer.is_recording or not getattr(
            tracer, "auto_manifest", True
        ):
            return
        tracer.attach_manifest(
            build_manifest(tracer, name, config=self.pipeline.config)
        )

    @staticmethod
    def _stripe_sizes(n_data_bits: int, n_units: int) -> List[int]:
        """Per-unit stripe lengths of the round-robin deal."""
        return [
            len(range(u, n_data_bits, n_units)) for u in range(n_units)
        ]

    @staticmethod
    def _assemble_bits(corrected, n_data_bits, ranking):
        """Reassemble corrected unit stripes into the payload bits.

        ``corrected`` is one ``(stripe, DecodeReport)`` per unit — what
        ``correct_many`` returns, and what the service plane's
        decoded-unit cache stores. The stripes interleave back
        round-robin; ``ranking`` (the encode-time global permutation) is
        applied here, so cached stripes stay ranking-independent.
        """
        n_units = len(corrected)
        prioritized = np.zeros(n_data_bits, dtype=np.uint8)
        reports = []
        for u, (stripe, report) in enumerate(corrected):
            prioritized[u::n_units] = stripe
            reports.append(report)
        if ranking is None:
            bits = prioritized
        else:
            ranking = np.asarray(ranking, dtype=np.int64)
            if ranking.shape != (n_data_bits,):
                raise ValueError("ranking length must equal n_data_bits")
            bits = np.zeros(n_data_bits, dtype=np.uint8)
            bits[ranking] = prioritized
        return bits, StoreReport(unit_reports=reports)

    def _spanning_batch(
        self, reads: StoreReads, n_units: int
    ) -> Tuple[ReadBatch, np.ndarray]:
        """Normalize any accepted input form into ``(batch, boundaries)``.

        ``boundaries`` is the per-unit cluster boundary table
        (``boundaries[u] .. boundaries[u+1]`` are unit ``u``'s cluster
        slots in the spanning batch).
        """
        if isinstance(reads, ReadBatch):
            n_columns = self.pipeline.matrix_config.n_columns
            if reads.n_clusters != n_units * n_columns:
                raise ValueError(
                    f"spanning batch holds {reads.n_clusters} clusters; "
                    f"expected {n_units} units x {n_columns} columns"
                )
            boundaries = np.arange(n_units + 1, dtype=np.int64) * n_columns
            return reads, boundaries
        if len(reads) != n_units:
            raise ValueError(
                f"expected clusters for {n_units} units, got {len(reads)}"
            )
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
