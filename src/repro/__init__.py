"""repro — a reproduction of "Managing Reliability Skew in DNA Storage".

Lin, Tabatabaee, Pote, Jevdjic — ISCA 2022 (arXiv:2204.12261).

The package implements the complete DNA data-storage stack the paper
builds on (Reed-Solomon matrix architecture, IDS channel, trace
reconstruction, clustering, primers, an in-house JPEG codec and ChaCha20
encryption for the workload) and the paper's two contributions:

* **Gini** — diagonal interleaving of ECC codewords across molecules so
  every codeword sees the same number of errors regardless of where in
  the molecules the errors strike (de-biasing the medium);
* **DnaMapper** — priority-based mapping that stores the most important
  bits in the most reliable molecule positions (leveraging the bias).

The storage stack (channel, clustering, consensus scans, RS, store and
service) runs on numpy alone. scipy is imported on first use by the
three callers that need it — posterior consensus and the JPEG and
synthetic-image helpers — so ``import repro`` loads none of it.

Quick start::

    import numpy as np
    from repro import (MatrixConfig, PipelineConfig, DnaStoragePipeline,
                       ErrorModel, SequencingSimulator, FixedCoverage)

    config = PipelineConfig(
        matrix=MatrixConfig(m=8, n_columns=120, nsym=22, payload_rows=16),
        layout="gini",
    )
    pipeline = DnaStoragePipeline(config)
    bits = np.random.default_rng(0).integers(0, 2, pipeline.capacity_bits,
                                             dtype=np.uint8)
    unit = pipeline.encode(bits)
    simulator = SequencingSimulator(ErrorModel.uniform(0.06), FixedCoverage(10))
    batch = simulator.sequence_batch(unit.strands, rng=0)   # columnar reads
    decoded, report = pipeline.decode(batch, bits.size)
    assert report.clean and np.array_equal(decoded, bits)

``sequence_batch`` runs the whole IDS channel as *one* vectorized pass
(:class:`~repro.channel.BatchedChannelEngine`): a single RNG draw covers
every base of every read, and the result is a columnar
:class:`~repro.channel.ReadBatch` — flat base buffer plus per-read
offsets — that ``pipeline.decode`` consumes without ever materializing a
DNA string. ``simulator.sequence(...)`` still returns familiar
``ReadCluster`` objects (zero-copy views whose ``.reads`` strings decode
lazily), and both forms decode identically. Every consensus engine has one
entry point, ``reconstruct_batch``, also available directly::

    from repro import TwoWayReconstructor

    estimates = TwoWayReconstructor().reconstruct_batch(
        batch.drop_lost(), config.matrix.strand_length,
    )  # (n_clusters, L) array; row i equals cluster i's own batch

``reconstruct(reads, length)`` is its one-cluster case for a list of
base strings. The refinement layers are batched the same way:
``IterativeReconstructor().reconstruct_batch(...)`` sweeps the unit-cost
edit DP over every read of every cluster at once (realign-and-vote with
per-cluster fixed-point dropout), and
``PosteriorReconstructor().reconstruct_batch_with_confidence(...)``
runs the IDS-lattice forward-backward as one ``(reads, positions)``
recursion, returning per-position posterior confidence alongside each
estimate — both pinned against their frozen per-cluster references by
the differential suite.

Payloads larger than one encoding unit go through the multi-unit store,
and the store is the *batching boundary*: encode places, parity-fills
(one GF matrix product for every codeword of every unit) and renders all
units' strands in single array passes, and decode runs **one** consensus
batch call over every surviving cluster of every unit::

    from repro import DnaStore, ReadRequest

    store = DnaStore(config)
    bits = np.random.default_rng(0).integers(
        0, 2, 3 * store.unit_capacity_bits, dtype=np.uint8)
    image = store.encode(bits)                           # 3 units, batched
    batch = simulator.sequence_store(image, rng=0)       # one spanning batch
    decoded, report = store.read(                        # one consensus pass
        ReadRequest(batch, bits.size))
    assert report.clean and np.array_equal(decoded, bits)

``sequence_store`` emits the units' clusters back to back in one
columnar batch;
``pipeline.receive_many`` then parses the whole estimate stack with
array operations — index validation, first-claim-wins column assembly
and confidence-cell extraction, segmented by unit — feeding one batched
RS correction pass. The outcome stays columnar from consensus to payload
bits (``repro.core.outcome``): ``receive_many`` returns every unit's
received matrix, erased columns and flags as stacked arrays,
``correct_many`` every unit's codeword verdicts and its data bits as one
``(units, capacity_bits)`` stack, and the store assembles each payload
with one gather. The per-unit ``ReceivedUnit`` and ``DecodeReport``
objects are built only when a caller indexes or iterates an outcome.
The single-unit pipeline calls (``encode``, ``receive``, ``correct``,
``decode``) are the one-element case of the same batched passes, and
the frozen per-unit loops they are pinned byte-identical against live
with the tests (``tests/oracles/``).

RS correction itself is batched end to end: clean codewords clear
through one bit-plane syndrome product, and the dirty remainder of
*every unit* moves through erasure-locator construction,
Berlekamp–Massey, the Chien search and Forney as one lockstep
computation per stage (``ReedSolomon.decode_many``, with per-codeword
failure flags instead of exceptions). Soft confidence flags ride a
two-wave schedule — augmented erasures first, a hard-only retry wave
for the rows the hints lost — and the whole chain is pinned
byte-identical to the frozen scalar decoder (``tests/oracles/ecc.py``)
by the differential suite.

Reads do not need ground-truth cluster labels anymore: the clustering
subsystem runs on the same columnar plane, so the realistic workload —
an unlabeled sequencing pool — decodes end to end::

    pool = simulator.sequence_store(image, rng=0, labeled=False)
    decoded, report = store.read(ReadRequest(pool, bits.size, pool=True))
    assert report.clean and np.array_equal(decoded, bits)

``labeled=False`` keeps one shuffled read pool per encoding unit (units
are separately amplifiable; strand attribution within a unit is what
sequencing does not provide), and the pooled read path recovers clusters
with :class:`~repro.cluster.BatchedGreedyClusterer` — q-gram signatures
for the whole pool in one pass over the flat base buffer, one stacked
banded edit-distance sweep per cluster round, assignments *identical* to
the frozen string-plane greedy scan (``tests/oracles/cluster.py``) at
~30x its speed on the quickstart pool — then feeds the recovered
clusters through the same single ``receive_many`` pass as labeled reads;
each consensus strand names its column via the embedded index field.
Per unit, ``pipeline.decode(clusterer.cluster_batch(pool), n_bits)``
does the same.

Large pools swap the clustering engine without touching the decode
path: :class:`~repro.cluster.LSHClusterer` generates candidate pairs
from minhash-band bin collisions over each read's q-gram set (sparse
COO signatures, fixed per-band RNG substreams) instead of scanning the
pool against every representative, verifies every collision with the
same exact banded edit-distance kernel, and resolves components by
vectorized union-find — near-linear candidate growth, >5x the greedy
scan's speed at 50k reads (``benchmarks/test_fig_lsh_scaling.py``), and
identical recovery-quality floors (pair precision 1.0, recall bounds in
``tests/cluster/test_recovery.py``)::

    from repro.cluster import LSHClusterer

    clusterer = LSHClusterer.for_strand_length(
        store.pipeline.matrix_config.strand_length
    )
    decoded, report = store.read(
        ReadRequest(pool, bits.size, pool=True, clusterer=clusterer)
    )

Every pooled surface takes the same ``clusterer=`` swap:
``ReadRequest``, ``StoreService.put`` and the CLI's
``serve --pool --clusterer lsh``.

Scenario sweeps ride the same engine: ``ReadPool`` stores its pool as one
``ReadBatch`` and serves zero-copy coverage prefixes, and
:class:`~repro.channel.ErrorRateMap` gives the engine per-strand/
per-position error rates for reliability-skew scenarios
(:func:`repro.analysis.positional_confidence_profile` measures them).

The decode path is observable end to end (``repro.observability``):
activate a tracer and every stage — channel, clustering, consensus,
receive, RS errata — records its wall time and pipeline counters, and
:func:`~repro.observability.build_manifest` turns the tracer into a
schema-versioned :class:`~repro.observability.RunManifest` (config
fingerprint, per-stage timings, metric snapshot) whenever the caller
asks for one::

    from repro.observability import (
        Tracer, build_manifest, render_manifest, use_tracer,
    )

    tracer = Tracer()
    tracer.context["seed"] = 0
    with use_tracer(tracer):
        pool = simulator.sequence_store(image, rng=0, labeled=False)
        decoded, report = store.read(ReadRequest(pool, bits.size, pool=True))
    manifest = build_manifest(tracer, "store.read",
                              config=store.pipeline.config)
    print(render_manifest(manifest))     # stage table, counters, reasons
    manifest.save("run.json")            # machine-checkable evidence

``python -m repro.cli report run.json [baseline.json]`` renders a saved
manifest (or diffs two — stage shares, counters, config fingerprints),
and ``benchmarks/check_trend.py --stage`` gates CI on per-stage drift
using the manifests every benchmark run emits. With no tracer active the
default ``NullTracer`` makes every instrumentation site a no-op: decode
output is byte-identical and the overhead is budgeted under 5% by
``tests/integration/test_perf_budget.py``.

Random access at scale (the paper's Section 2.1 key-value workload —
many users each pulling one object out of a shared pool) runs through
the serving plane (``repro.service``): register objects once, enqueue
read tickets, and each tick coalesces every drained ticket into one
spanning consensus pass plus one batched RS errata pass — with a
decoded-object LRU cache in front, so repeat reads skip the pipeline
entirely::

    from repro.service import StoreService

    service = StoreService(store, cache_capacity=256, batch_window=16)
    service.put("fileA", batch_a, bits_a.size)          # labeled reads
    service.put("fileB", pool_b, bits_b.size, pool=True)  # unlabeled pool
    service.submit("fileA"); service.submit("fileB")
    for result in service.tick():        # ONE coalesced decode for all
        assert result.clean
    service.submit("fileA")
    assert service.tick()[0].cache_hit   # warm repeat: zero pipeline work

``put`` checks an object with ``DnaStore.check`` (the check every
decode runs), so a malformed object fails there, naming the field.
Re-``put``-ting an object (a store re-encode) bumps its cache epoch and
invalidates its cached result. A tick decodes its misses with the
store's public ``read_many``, which gives the same amortization without
the queue; the ``service.tick`` spans land in run manifests like every
other stage (trace with ``Tracer(metrics=service.metrics)`` to carry the
service's own counters too), and
``benchmarks/test_service_throughput.py`` records requests/sec and
p50/p99 latency vs the batch window.

A *live* service also answers "how is it doing right now", without any
recording tracer: the plane keeps an always-on metric registry
(request/answer counters, queue-depth gauge, bounded-memory
``TimingHistogram`` latency distributions with p50/p95/p99 estimates),
a structured JSON-lines ``EventLog`` (submit / coalesce / decode /
cache_hit / complete records keyed by monotonically assigned request
ids), and a ``SlidingWindow`` so rates, quantiles and the failure rate
cover the recent window rather than process lifetime::

    health = service.health()        # one SLO-checked snapshot
    health.verdict                   # "ok" | "degraded" | "unhealthy"
    health.requests_per_second, health.p99_seconds, health.cache_hit_rate
    render_prometheus(service.metrics)   # text exposition for a scraper

``python -m repro.cli metrics`` dumps the exposition (validated by a
render/parse round trip), ``repro.cli top`` is the refreshing console
view, and ``repro.cli serve`` closes with the health line. The
``NullTracer`` decode path is untouched: live telemetry lives beside
the tracer, not inside it.
"""

from repro.channel import (
    BatchedChannelEngine,
    CoverageModel,
    ErrorModel,
    ErrorRateMap,
    FixedCoverage,
    GammaCoverage,
    ReadBatch,
    ReadCluster,
    ReadPool,
    SequencingSimulator,
    TwoStageSequencer,
)
from repro.cluster import (
    BatchedGreedyClusterer,
    LSHClusterer,
    pair_precision_recall,
)
from repro.consensus import (
    IterativeReconstructor,
    OneWayReconstructor,
    OptimalMedianReconstructor,
    PosteriorReconstructor,
    TwoWayReconstructor,
)
from repro.core import (
    BaselineLayout,
    DecodeReport,
    DnaMapperLayout,
    DnaStore,
    DnaStoragePipeline,
    EncodedUnit,
    GiniLayout,
    MatrixConfig,
    PipelineConfig,
    ReadRequest,
    ReadResult,
    StoreImage,
    StoreReport,
    identity_ranking,
    oracle_ranking,
    proportional_share_ranking,
)
from repro.ecc import DecodeFailure, GaloisField, ReedSolomon, UnevenEccScheme
from repro.files import FileEntry, pack_archive, unpack_archive_robust
from repro.service import DecodedUnitCache, StoreService
from repro.media import JpegCodec, psnr, quality_loss_db, synth_image

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # channel
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
    # clustering
    "BatchedGreedyClusterer",
    "LSHClusterer",
    "pair_precision_recall",
    # consensus
    "OneWayReconstructor",
    "TwoWayReconstructor",
    "IterativeReconstructor",
    "OptimalMedianReconstructor",
    "PosteriorReconstructor",
    # core
    "MatrixConfig",
    "PipelineConfig",
    "DnaStoragePipeline",
    "DnaStore",
    "ReadRequest",
    "ReadResult",
    "StoreImage",
    "StoreReport",
    "EncodedUnit",
    "DecodeReport",
    # service plane
    "StoreService",
    "DecodedUnitCache",
    "BaselineLayout",
    "GiniLayout",
    "DnaMapperLayout",
    "identity_ranking",
    "proportional_share_ranking",
    "oracle_ranking",
    # ecc
    "GaloisField",
    "ReedSolomon",
    "DecodeFailure",
    "UnevenEccScheme",
    # files
    "FileEntry",
    "pack_archive",
    "unpack_archive_robust",
    # media
    "JpegCodec",
    "synth_image",
    "psnr",
    "quality_loss_db",
]
