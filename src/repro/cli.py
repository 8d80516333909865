"""Command-line interface: encode files to DNA and decode them back.

The CLI wraps the archive + pipeline stack into six commands::

    python -m repro.cli encode --layout gini -o store.dna photo1.jpg notes.txt
    python -m repro.cli decode store.dna -d restored/
    python -m repro.cli report run.json [baseline.json]
    python -m repro.cli serve --objects 32 --window 8
    python -m repro.cli metrics --objects 8 -o metrics.prom
    python -m repro.cli top --frames 5 --interval 1

``encode`` packs the input files into an archive, encodes it into one or
more encoding units, and writes a textual ``.dna`` file with one strand
per line (plus a small JSON header describing the geometry). ``decode``
reads the strand file — optionally after simulated sequencing noise with
``--error-rate``/``--coverage`` — and restores the files. ``report``
renders a :class:`~repro.observability.manifest.RunManifest` JSON file
(what a traced decode emits) as a stage/metric report, or — given two
manifests — the stage-time and counter deltas between them. ``serve``
runs a synthetic random-access serving demo: it encodes and sequences a
corpus of objects, drives them through the coalescing
:class:`~repro.service.StoreService`, and prints requests/sec, p50/p99
latency and the cache hit rate per pass (pass 2+ answers from the
decoded-object cache), closing with a
:class:`~repro.observability.export.ServiceHealth` line. ``metrics``
runs the same demo and dumps the service's always-on metric registry in
Prometheus text exposition format — validated by a render/parse
round-trip before anything is printed. ``top`` is the live console
view: one corpus pass per frame, each frame printing the sliding-window
health snapshot (req/s, p50/p99, cache hit rate, SLO verdicts).

The strand file is deliberately human-readable: the point of the format
is to make the pipeline's output inspectable, not to be efficient.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List


from repro.channel import (
    ErrorModel, GammaCoverage, ReadBatch, SequencingSimulator,
)
from repro.core import DnaStoragePipeline, MatrixConfig, PipelineConfig
from repro.core.ranking import proportional_share_ranking
from repro.files import FileEntry, pack_archive, unpack_archive_robust
from repro.utils.bitio import bits_to_bytes, bytes_to_bits

_FORMAT_VERSION = 1


def _build_pipeline(args) -> DnaStoragePipeline:
    matrix = MatrixConfig(
        m=args.symbol_bits,
        n_columns=args.molecules,
        nsym=args.redundancy,
        payload_rows=args.rows,
    )
    return DnaStoragePipeline(
        PipelineConfig(matrix=matrix, layout=args.layout)
    )


def _encode(args) -> int:
    entries: List[FileEntry] = []
    for name in args.files:
        path = Path(name)
        if not path.is_file():
            print(f"error: {name} is not a file", file=sys.stderr)
            return 1
        entries.append(FileEntry(name=path.name, data=path.read_bytes()))
    archive = pack_archive(entries)

    pipeline = _build_pipeline(args)
    capacity = pipeline.capacity_bits
    if archive.n_bits > capacity:
        units_needed = -(-archive.n_bits // capacity)
        print(
            f"error: archive needs {archive.n_bits} bits but one unit holds "
            f"{capacity}; increase --molecules/--rows (needs ~{units_needed} "
            "units worth of capacity)",
            file=sys.stderr,
        )
        return 1

    ranking = None
    if args.layout == "dnamapper":
        ranking = proportional_share_ranking(
            archive.segment_bits, top_priority_segments=[0]
        )
    bits = bytes_to_bits(archive.data)
    unit = pipeline.encode(bits, ranking=ranking)

    header = {
        "format": _FORMAT_VERSION,
        "layout": args.layout,
        "m": args.symbol_bits,
        "n_columns": args.molecules,
        "nsym": args.redundancy,
        "payload_rows": args.rows,
        "n_data_bits": int(bits.size),
    }
    output = Path(args.output)
    with output.open("w", encoding="ascii") as handle:
        handle.write("#" + json.dumps(header) + "\n")
        for strand in unit.strands:
            handle.write(strand + "\n")
    total_bases = sum(len(s) for s in unit.strands)
    print(f"wrote {len(unit.strands)} strands ({total_bases} bases, "
          f"{len(entries)} files, layout={args.layout}) to {output}")
    if args.fasta:
        from repro.files.fasta import write_fasta

        fasta_path = output.with_suffix(".fasta")
        write_fasta(fasta_path, unit.strands)
        print(f"wrote synthesis order to {fasta_path}")
    return 0


def _decode(args) -> int:
    path = Path(args.store)
    if not path.is_file():
        print(f"error: {args.store} is not a file", file=sys.stderr)
        return 1
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or not lines[0].startswith("#"):
        print("error: missing header line", file=sys.stderr)
        return 1
    header = json.loads(lines[0][1:])
    if header.get("format") != _FORMAT_VERSION:
        print("error: unsupported format version", file=sys.stderr)
        return 1
    strands = [line.strip() for line in lines[1:] if line.strip()]

    matrix = MatrixConfig(
        m=header["m"], n_columns=header["n_columns"],
        nsym=header["nsym"], payload_rows=header["payload_rows"],
    )
    pipeline = DnaStoragePipeline(
        PipelineConfig(matrix=matrix, layout=header["layout"])
    )

    if args.error_rate > 0:
        simulator = SequencingSimulator(
            ErrorModel.uniform(args.error_rate),
            GammaCoverage(args.coverage, shape=6),
        )
        batch = simulator.sequence_batch(strands, rng=args.seed)
        print(f"simulated sequencing: {args.error_rate:.1%} errors, "
              f"coverage ~{args.coverage}")
    else:
        batch = ReadBatch.from_strings([[strand] for strand in strands])

    n_bits = header["n_data_bits"]
    if header["layout"] == "dnamapper":
        received = pipeline.receive(batch)
        corrected, report = pipeline.correct_matrix(received)
        prioritized = pipeline.prioritized_bits(corrected)
        data = _staged_unrank(pipeline, prioritized, n_bits)
    else:
        bits, report = pipeline.decode(batch, n_bits)
        data = bits_to_bytes(bits)

    if not report.clean:
        print(f"warning: {len(report.failed_codewords)} codewords failed to "
              "decode; output may be corrupt", file=sys.stderr)

    destination = Path(args.directory)
    destination.mkdir(parents=True, exist_ok=True)
    try:
        entries = unpack_archive_robust(data)
    except Exception:
        print("error: archive directory unusable", file=sys.stderr)
        return 1
    for entry in entries:
        target = destination / Path(entry.name).name
        target.write_bytes(entry.data)
        print(f"restored {target} ({len(entry.data)} bytes)")
    return 0


def _report(args) -> int:
    from repro.observability import (
        ManifestError, RunManifest, diff_manifests, render_manifest,
    )

    try:
        manifest = RunManifest.load(args.manifest)
    except FileNotFoundError:
        print(f"error: {args.manifest} is not a file", file=sys.stderr)
        return 1
    except (ManifestError, json.JSONDecodeError) as exc:
        print(f"error: {args.manifest}: {exc}", file=sys.stderr)
        return 1
    if args.baseline is None:
        print(render_manifest(manifest), end="")
        return 0
    try:
        baseline = RunManifest.load(args.baseline)
    except FileNotFoundError:
        print(f"error: {args.baseline} is not a file", file=sys.stderr)
        return 1
    except (ManifestError, json.JSONDecodeError) as exc:
        print(f"error: {args.baseline}: {exc}", file=sys.stderr)
        return 1
    print(diff_manifests(baseline, manifest), end="")
    return 0


def _build_demo_service(args, announce: bool = True):
    """The synthetic serving demo shared by serve/metrics/top.

    Builds a store + :class:`~repro.service.StoreService`, encodes and
    sequences ``args.objects`` single-unit objects, and registers them
    as ``obj0..objN-1``. Returns the service.
    """
    import numpy as np

    from repro.channel import FixedCoverage
    from repro.core.store import DnaStore
    from repro.service import StoreService

    matrix = MatrixConfig(
        m=args.symbol_bits,
        n_columns=args.molecules,
        nsym=args.redundancy,
        payload_rows=args.rows,
    )
    store = DnaStore(PipelineConfig(matrix=matrix))
    simulator = SequencingSimulator(
        ErrorModel.uniform(args.error_rate), FixedCoverage(args.coverage)
    )
    service = StoreService(store, cache_capacity=args.cache,
                           batch_window=args.window)
    clusterer = None
    if args.pool:
        from repro.cluster import BatchedGreedyClusterer, LSHClusterer

        kind = {"greedy": BatchedGreedyClusterer,
                "lsh": LSHClusterer}[args.clusterer]
        clusterer = kind.for_strand_length(
            store.pipeline.matrix_config.strand_length
        )
    rng = np.random.default_rng(args.seed)
    for k in range(args.objects):
        bits = rng.integers(0, 2, store.unit_capacity_bits, dtype=np.uint8)
        image = store.encode(bits)
        reads = simulator.sequence_store(image, rng=args.seed + 1 + k,
                                         labeled=not args.pool)
        service.put(f"obj{k}", reads, bits.size, pool=args.pool,
                    clusterer=clusterer)
    if announce:
        mode = (f"unlabeled pools, {args.clusterer} clusterer" if args.pool
                else "labeled reads")
        print(
            f"registered {args.objects} objects "
            f"({store.unit_capacity_bits} bits each, "
            f"{args.error_rate:.1%} errors, coverage {args.coverage}, "
            f"{mode}); window={args.window}, cache={args.cache}"
        )
    return service


def _run_demo_pass(service, n_objects: int):
    """Submit one full corpus pass and tick the queue dry."""
    for k in range(n_objects):
        service.submit(f"obj{k}")
    results = []
    while service.queue_depth:
        results.extend(service.tick())
    return results


def _serve(args) -> int:
    import time

    import numpy as np

    service = _build_demo_service(args)

    for pass_no in range(1, args.repeats + 1):
        start = time.perf_counter()
        results = _run_demo_pass(service, args.objects)
        elapsed = time.perf_counter() - start
        latencies = np.asarray([r.seconds for r in results]) * 1e3
        hits = sum(r.cache_hit for r in results)
        clean = sum(r.clean for r in results)
        print(
            f"pass {pass_no}: {len(results) / elapsed:9.0f} req/s"
            f"  p50 {np.percentile(latencies, 50):7.2f} ms"
            f"  p99 {np.percentile(latencies, 99):7.2f} ms"
            f"  cache {hits}/{len(results)}"
            f"  clean {clean}/{len(results)}"
        )
    print(service.health().summary())
    if args.events:
        path = service.events.save(args.events)
        print(f"wrote {service.events.emitted} events to {path}")
    return 0


def _metrics(args) -> int:
    """One-shot metrics exposition dump (render + parse validated)."""
    from repro.observability import verify_roundtrip

    service = _build_demo_service(args, announce=False)
    for _ in range(args.repeats):
        _run_demo_pass(service, args.objects)
    try:
        text = verify_roundtrip(service.metrics)
    except ValueError as exc:
        print(f"error: exposition round-trip failed: {exc}", file=sys.stderr)
        return 1
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(text.splitlines())} exposition lines "
              f"to {args.output}")
    else:
        print(text, end="")
    if args.events:
        service.events.save(args.events)
        print(f"wrote {service.events.emitted} events to {args.events}",
              file=sys.stderr)
    return 0


def _top(args) -> int:
    """Periodically refreshed console health view of the serving demo."""
    import time

    service = _build_demo_service(args)
    for frame in range(1, args.frames + 1):
        _run_demo_pass(service, args.objects)
        health = service.health()
        print(f"frame {frame}/{args.frames}  {health.summary()}")
        for check, verdict in sorted(health.checks.items()):
            print(f"    {check:10s} {verdict}")
        if args.interval > 0 and frame < args.frames:
            time.sleep(args.interval)
    return 0


def _staged_unrank(pipeline, prioritized, n_bits) -> bytes:
    """DnaMapper's metadata-free staged decode (directory first)."""
    from repro.files.archive import directory_file_sizes, directory_size_bits

    header_prefix = bits_to_bytes(prioritized[: 9 * 8])
    dir_bits = directory_size_bits(header_prefix)
    directory_blob = bits_to_bytes(prioritized[:dir_bits])
    sizes = directory_file_sizes(directory_blob)
    segment_bits = [dir_bits] + [size * 8 for size in sizes]
    ranking = proportional_share_ranking(segment_bits,
                                         top_priority_segments=[0])
    return bits_to_bytes(pipeline.unrank_bits(prioritized, n_bits, ranking))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DNA storage encode/decode (paper reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode = sub.add_parser("encode", help="encode files into a .dna store")
    encode.add_argument("files", nargs="+", help="input files")
    encode.add_argument("-o", "--output", required=True, help=".dna output path")
    encode.add_argument("--layout", default="gini",
                        choices=["baseline", "gini", "dnamapper"])
    encode.add_argument("--symbol-bits", type=int, default=8)
    encode.add_argument("--molecules", type=int, default=255)
    encode.add_argument("--redundancy", type=int, default=47,
                        help="parity symbols per codeword (nsym)")
    encode.add_argument("--rows", type=int, default=30,
                        help="payload symbols per molecule")
    encode.add_argument("--fasta", action="store_true",
                        help="also write the strands as a FASTA synthesis order")
    encode.set_defaults(func=_encode)

    decode = sub.add_parser("decode", help="decode a .dna store back to files")
    decode.add_argument("store", help=".dna file produced by encode")
    decode.add_argument("-d", "--directory", default=".",
                        help="destination directory")
    decode.add_argument("--error-rate", type=float, default=0.0,
                        help="simulate sequencing at this error rate")
    decode.add_argument("--coverage", type=float, default=10.0,
                        help="mean coverage for simulated sequencing")
    decode.add_argument("--seed", type=int, default=0)
    decode.set_defaults(func=_decode)

    report = sub.add_parser(
        "report",
        help="render a run-manifest JSON file, or diff two of them",
    )
    report.add_argument("manifest", help="RunManifest JSON to render")
    report.add_argument(
        "baseline", nargs="?", default=None,
        help="optional baseline manifest; when given, print the "
             "stage-time and counter deltas baseline -> manifest",
    )
    report.set_defaults(func=_report)

    def add_demo_options(command, objects: int = 32):
        """The synthetic serving-demo knobs shared by serve/metrics/top."""
        command.add_argument("--objects", type=int, default=objects,
                             help="corpus size (single-unit objects)")
        command.add_argument("--window", type=int, default=8,
                             help="requests coalesced into one decode "
                                  "per tick")
        command.add_argument("--repeats", type=int, default=2,
                             help="full passes over the corpus "
                                  "(pass 2+ answers from the cache)")
        command.add_argument("--cache", type=int, default=1024,
                             help="decoded-object cache capacity "
                                  "in units (0 disables)")
        command.add_argument("--symbol-bits", type=int, default=8)
        command.add_argument("--molecules", type=int, default=24)
        command.add_argument("--redundancy", type=int, default=4)
        command.add_argument("--rows", type=int, default=6)
        command.add_argument("--error-rate", type=float, default=0.01)
        command.add_argument("--coverage", type=int, default=5)
        command.add_argument("--pool", action="store_true",
                             help="register objects as unlabeled per-unit "
                                  "pools (reads are clustered at decode "
                                  "time)")
        command.add_argument("--clusterer", default="greedy",
                             choices=["greedy", "lsh"],
                             help="clusterer pooled objects ride (with "
                                  "--pool): the exact greedy scan, or "
                                  "sub-linear LSH banding for large pools")
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--events", default=None,
                             help="also write the service's structured "
                                  "event log (JSON lines) to this path")

    serve = sub.add_parser(
        "serve",
        help="demo the random-access serving plane on synthetic objects",
    )
    add_demo_options(serve)
    serve.set_defaults(func=_serve)

    metrics = sub.add_parser(
        "metrics",
        help="run the serving demo and dump its metrics registry in "
             "Prometheus text exposition format (round-trip validated)",
    )
    add_demo_options(metrics, objects=8)
    metrics.add_argument("-o", "--output", default=None,
                         help="write the exposition to this file instead "
                              "of stdout")
    metrics.set_defaults(func=_metrics)

    top = sub.add_parser(
        "top",
        help="periodically refreshed console health view of the "
             "serving demo",
    )
    add_demo_options(top, objects=8)
    top.add_argument("--frames", type=int, default=5,
                     help="health frames to print (one corpus pass each)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between frames (0 = no sleep)")
    top.set_defaults(func=_top)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
