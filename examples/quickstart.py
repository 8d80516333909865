#!/usr/bin/env python
"""Quickstart: store bits in simulated DNA and get them back.

Encodes a random payload into one encoding unit under each of the three
layouts (baseline, Gini, DnaMapper), pushes the synthesized strands
through a noisy sequencing channel, and decodes. Both hot stages are
batched and columnar:

* ``simulator.sequence_batch`` emits every read of every cluster in one
  vectorized IDS pass (a single RNG draw over all ~80k bases) into a
  ``ReadBatch`` — a flat base buffer plus per-read offsets;
* ``pipeline.decode`` feeds that batch straight into the consensus
  engine's batched scan, so all 120 clusters advance simultaneously and
  no DNA string is ever materialized between channel and decoder.

The finale shows the multi-unit store, where batching moves up to the
store plane: three units encode through one vectorized pass and decode
from one spanning batch with a single consensus call — through the
store's unified ``read(ReadRequest)`` entry point, ending with a traced
``read_many`` that coalesces a labeled and an unlabeled request into
that same single pass.

Run with::

    python examples/quickstart.py
"""

import time

import numpy as np

from repro import (
    DnaStoragePipeline,
    DnaStore,
    ErrorModel,
    GammaCoverage,
    IterativeReconstructor,
    MatrixConfig,
    PipelineConfig,
    PosteriorReconstructor,
    ReadRequest,
    SequencingSimulator,
    TwoWayReconstructor,
)


def main() -> None:
    rng = np.random.default_rng(7)

    # A small encoding unit: 120 molecules of 68 bases (4 index + 64
    # payload), 22 of them redundant -- an 18% overhead like the paper's.
    matrix = MatrixConfig(m=8, n_columns=120, nsym=22, payload_rows=16)
    payload = rng.integers(0, 2, matrix.data_bits, dtype=np.uint8)
    print(f"unit capacity : {matrix.data_bits // 8} bytes "
          f"({matrix.n_columns} molecules x {matrix.strand_length} bases)")

    # A mid-quality channel: 6% errors (uniform ins/del/sub mix), coverage
    # Gamma-distributed around 10 reads per molecule.
    simulator = SequencingSimulator(
        ErrorModel.uniform(0.06), GammaCoverage(10, shape=6)
    )

    for layout in ("baseline", "gini", "dnamapper"):
        pipeline = DnaStoragePipeline(
            PipelineConfig(matrix=matrix, layout=layout)
        )
        unit = pipeline.encode(payload)
        start = time.perf_counter()
        batch = simulator.sequence_batch(unit.strands, rng)
        channel_ms = 1000 * (time.perf_counter() - start)
        start = time.perf_counter()
        decoded, report = pipeline.decode(batch, payload.size)
        decode_ms = 1000 * (time.perf_counter() - start)
        ok = bool(np.array_equal(decoded, payload))
        print(f"{layout:10s}: exact={ok} clean={report.clean} "
              f"erasures={len(report.erased_columns)} "
              f"symbols_corrected={report.corrected_symbols} "
              f"channel={channel_ms:.1f}ms decode={decode_ms:.0f}ms "
              f"({batch.n_reads} reads, {batch.total_bases} bases)")

    # The batched consensus API can also be driven directly: one call
    # reconstructs every cluster of the unit through a single vectorized
    # scan (identical output to reconstructing clusters one at a time).
    # ``drop_lost`` compacts away clusters that received zero reads.
    live = batch.drop_lost()
    estimates = TwoWayReconstructor().reconstruct_batch(
        live, matrix.strand_length
    )
    print(f"batched consensus: {estimates.shape[0]} strands of "
          f"{estimates.shape[1]} bases reconstructed in one call")

    # The refinement layers ride the same columnar entry points: the
    # iterative realign-and-vote sweeps every read of every cluster as
    # one edit-DP stack, and the posterior lattice adds a per-position
    # confidence (the paper's reliability skew, seen as posterior mass) —
    # both bit-compatible with their per-cluster references but ~10x
    # faster on this unit.
    start = time.perf_counter()
    refined = IterativeReconstructor().reconstruct_batch(
        live, matrix.strand_length
    )
    iterative_ms = 1000 * (time.perf_counter() - start)
    start = time.perf_counter()
    with_confidence = PosteriorReconstructor(
        channel=ErrorModel.uniform(0.06)
    ).reconstruct_batch_with_confidence(live, matrix.strand_length)
    posterior_ms = 1000 * (time.perf_counter() - start)
    confidence = np.stack([c for _, c in with_confidence])
    print(f"batched refinement: iterative {iterative_ms:.0f}ms, "
          f"posterior {posterior_ms:.0f}ms for {refined.shape[0]} clusters "
          f"(mean posterior confidence {confidence.mean():.3f})")

    # Strings stay available at the edges, spelled out of the batch on
    # demand (read 0 of the compacted batch: Gamma coverage can drop a
    # cluster entirely, so index only the live ones):
    print(f"first read of cluster {live.source_indices[0]}: "
          f"{live.read_string(0)[:24]}... (decoded on demand)")

    # Payloads bigger than one unit go through the multi-unit store, and
    # the *store* is the batching boundary: encode assembles every unit's
    # matrix, parity and strands in single array passes, the channel
    # emits one spanning batch for all units (`sequence_store`), and
    # decode runs ONE consensus batch call over every surviving cluster
    # of every unit (`pipeline.receive_many` parses the whole estimate
    # stack segmented by unit) followed by ONE batched RS errata pass:
    # every dirty codeword of every unit moves through Berlekamp-Massey,
    # Chien and Forney in lockstep (`ReedSolomon.decode_many`). Reads
    # come back through the store's single entry point — `store.read`
    # takes a `ReadRequest` and answers with a `ReadResult` that still
    # unpacks as a `(bits, report)` tuple. The frozen per-unit loops the
    # batched paths are pinned byte-identical against live with the
    # tests (tests/oracles/).
    store = DnaStore(PipelineConfig(matrix=matrix, layout="gini"))
    payload = rng.integers(0, 2, 3 * store.unit_capacity_bits,
                           dtype=np.uint8)
    image = store.encode(payload)
    spanning = simulator.sequence_store(image, rng)
    start = time.perf_counter()
    decoded, report = store.read(ReadRequest(spanning, payload.size))
    store_ms = 1000 * (time.perf_counter() - start)
    print(f"multi-unit store: {image.n_units} units "
          f"({image.total_strands} strands) decoded in one consensus "
          f"pass: exact={bool(np.array_equal(decoded, payload))} "
          f"clean={report.clean} in {store_ms:.0f}ms")

    # Finally, drop the simulation's perfect cluster labels entirely —
    # the workload the paper assumes solved upstream. `labeled=False`
    # keeps one shuffled read pool per unit (units are separately
    # amplifiable pools; strand attribution inside a pool is gone), and
    # `ReadRequest(pool=True)` recovers the clusters on the columnar
    # plane with the batched greedy clusterer (q-gram signatures in one
    # pass, a stacked banded edit-DP per cluster round — assignment-
    # identical to the sequential string-plane greedy scan at ~30x its
    # speed),
    # then decodes all recovered clusters of all units through the same
    # one-pass receive_many as labeled reads.
    pool = simulator.sequence_store(image, rng, labeled=False)
    start = time.perf_counter()
    decoded, report = store.read(
        ReadRequest(pool, payload.size, pool=True)
    )
    pool_ms = 1000 * (time.perf_counter() - start)
    print(f"unlabeled-pool decode: {pool.n_reads} untagged reads in "
          f"{image.n_units} pools -> cluster + decode: "
          f"exact={bool(np.array_equal(decoded, payload))} "
          f"clean={report.clean} in {pool_ms:.0f}ms")

    # Past a few thousand reads per pool the greedy scan's pool x
    # clusters candidate set dominates the decode. `clusterer=` swaps
    # in the LSH-banded engine — minhash-band bin collisions propose
    # the pairs, the same exact banded edit DP verifies every one, so
    # precision stays 1.0 while candidates grow near-linearly with the
    # pool (>5x faster than greedy at 50k reads; see
    # benchmarks/test_fig_lsh_scaling.py). Same swap on
    # StoreService.put and `repro.cli serve --pool --clusterer lsh`.
    from repro import LSHClusterer

    lsh = LSHClusterer.for_strand_length(matrix.strand_length)
    start = time.perf_counter()
    decoded, report = store.read(
        ReadRequest(pool, payload.size, pool=True, clusterer=lsh)
    )
    lsh_ms = 1000 * (time.perf_counter() - start)
    print(f"unlabeled-pool decode (LSH): "
          f"exact={bool(np.array_equal(decoded, payload))} "
          f"clean={report.clean} in {lsh_ms:.0f}ms")

    # Every run above was silently instrumented: the decode path carries
    # stage spans and pipeline counters that the default NullTracer
    # no-ops away. Activate a real tracer, and `build_manifest` turns
    # what it recorded into a machine-checkable run manifest — per-stage
    # wall times, RS failure-reason histogram, cluster/consensus
    # counters, config fingerprint. `python -m repro.cli report <file>`
    # renders a saved one, and with two files diffs them stage by
    # stage. Here the finale also shows `read_many`, the serving plane's
    # coalescing entry: the labeled spanning batch AND the unlabeled pool
    # answer from ONE consensus pass and ONE RS errata pass, under one
    # traced manifest (`StoreService` serves every tick through this
    # call — see `python -m repro.cli serve`).
    from repro.observability import Tracer, build_manifest, use_tracer

    tracer = Tracer()
    tracer.context["seed"] = 7
    with use_tracer(tracer):
        pool = simulator.sequence_store(image, rng, labeled=False)
        results = store.read_many([
            ReadRequest(spanning, payload.size, object_id="labeled"),
            ReadRequest(pool, payload.size, pool=True, object_id="pooled"),
        ])
    exact = all(np.array_equal(r.bits, payload) for r in results)
    manifest = build_manifest(tracer, "store.read_many",
                              config=store.pipeline.config)
    heaviest = max(manifest.stages, key=manifest.stage_seconds)
    reasons = manifest.histogram("rs.failure_reasons")
    print(f"traced read_many: {len(results)} requests coalesced "
          f"(exact={exact}); {len(manifest.stages)} stages, heaviest "
          f"{heaviest} at {manifest.stage_share(heaviest):.0%} of "
          f"{manifest.total_seconds * 1000:.0f}ms; codeword outcomes "
          f"{reasons} (save with manifest.save('run.json'), render with "
          f"`python -m repro.cli report run.json`)")


if __name__ == "__main__":
    main()
