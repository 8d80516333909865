"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same operations twice, first untraced and then
with the per-layer ledger (see ``ledger.py``), and reports the per-layer
metrics, the share of operation time no layer span accounts for, and the
tracing overhead. The last line of standard output is the JSON result;
the lines above it name every metric with its unit and the environment.
"""

import os

# Pin the BLAS/OpenMP pools before numpy loads: RS parity and syndromes
# run BLAS products, and the benchmark is one process, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Contiguous chunks of the timed operations; rates are chunk medians.
CHUNKS = 10


def _environment(np) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env: nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} "
            f"threads={os.environ['OPENBLAS_NUM_THREADS']}")


def _setup(workload, inputs):
    """Build the world once; returns (world, seconds)."""
    gc.collect()
    start = perf_counter()
    world = workload.setup(inputs)
    return world, perf_counter() - start


def _drive(workload, world, inputs, gate, n_ops=None, seconds=None,
           ledger=None):
    """Warm up, then run ``n_ops`` operations or for ``seconds``.

    Returns the timed :class:`Op` records and the clock reading they
    started at.
    """
    for i in range(workload.warmup_ops):
        if ledger is not None:
            ledger.op = -1 - i
        workload.op(world, inputs, gate)
    gc.collect()
    ops, calls = [], 0
    start = perf_counter()
    deadline = start + (seconds or 0.0)
    while (calls < n_ops) if n_ops is not None \
            else perf_counter() < deadline:
        if ledger is not None:
            ledger.op = calls
        ops += workload.op(world, inputs, gate)
        calls += 1
    return ops, start


def _chunk_median(ops, numerator, kinds=("read", "write")):
    """Median over contiguous chunks of sum(numerator) / sum(seconds)."""
    rates = []
    for i in range(CHUNKS):
        chunk = [op for op in ops[i * len(ops) // CHUNKS:
                                  (i + 1) * len(ops) // CHUNKS]
                 if op.kind in kinds]
        seconds = sum(op.seconds for op in chunk)
        if seconds > 0:
            rates.append(sum(numerator(op) for op in chunk) / seconds)
    return statistics.median(rates)


def end_to_end(workload, np, world, ops, setups):
    latencies = [t for op in ops for t in op.latencies]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "served_rps": (_chunk_median(ops, lambda op: op.requests), "1/s"),
        "read_p50_ms": (1e3 * float(np.percentile(latencies, 50)), "ms"),
        "read_tail_ms": (1e3 * float(np.percentile(
            latencies, workload.tail_percentile)), "ms"),
        "read_MBps": (1e-6 * _chunk_median(
            ops, lambda op: op.payload_bytes, ("read",)), "MB/s"),
        "write_MBps": (1e-6 * statistics.median(
            op.payload_bytes / op.seconds for op in ops
            if op.kind == "write"), "MB/s"),
        "bases_per_byte": (world.bases_written / world.bytes_written,
                           "bases/B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def run_untraced(workload, np, inputs, gate, seconds):
    setups = []
    for _ in range(SETUPS):
        world = None  # free the previous world before building the next
        world, took = _setup(workload, inputs)
        setups.append(took)
    ops, _ = _drive(workload, world, inputs, gate, seconds=seconds)
    workload.verify(world, inputs, gate)
    n_latencies = sum(len(op.latencies) for op in ops)
    print(f"{workload.name}: {len(ops)} timed reads/ticks and writes, "
          f"{n_latencies} read latencies (tail = "
          f"p{workload.tail_percentile}), {SETUPS} set-ups")
    return end_to_end(workload, np, world, ops, setups)


def run_traced(workload, inputs, gate, seconds):
    from ledger import Ledger, PREDICTIONS

    n_ops = max(2, round(seconds * workload.ops_per_s / 3))
    world, _ = _setup(workload, inputs)
    plain, _ = _drive(workload, world, inputs, gate, n_ops=n_ops)
    workload.verify(world, inputs, gate)
    world = None

    ledger = Ledger(workload.name, workload.matrix.n_columns)
    ledger.install()
    try:
        world, _ = _setup(workload, inputs)
        ledger.install_world(world)
        traced, pass_start = _drive(workload, world, inputs, gate,
                                    n_ops=n_ops, ledger=ledger)
    finally:
        ledger.uninstall()
    workload.verify(world, inputs, gate)
    ledger.counts.update(workload.layer_counts(world))
    ledger.check()

    op_time = sum(op.seconds for op in traced)
    shares = {layer: seconds / op_time
              for layer, seconds in ledger.layer_self(pass_start).items()}
    metrics = ledger.metrics()
    metrics["trace.unattributed_share"] = 1.0 - sum(shares.values())
    metrics["trace.overhead_share"] = (
        op_time / sum(op.seconds for op in plain) - 1.0)
    print(f"{workload.name}: {n_ops} ops per pass, traced pass "
          f"{op_time:.3f} s, {len(ledger.spans)} spans")
    print("layer self-time shares of the traced pass: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in sorted(
            shares.items(), key=lambda item: -item[1])))
    print(f"reconciliation: layers account for {sum(shares.values()):.1%} "
          f"of {op_time:.3f} s; unattributed_share "
          f"{metrics['trace.unattributed_share']:.4f}")
    for layer, (moves, absent) in PREDICTIONS.items():
        print(f"prediction {layer}: moves {moves}"
              + (f"; absent @{','.join(absent)}" if absent else ""))
    ledger.save(ROOT / ".perfbench_out"
                / f"{workload.name}-seed{inputs.seed}-spans.jsonl")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import numpy as np
        import repro
        from workloads import WORKLOADS, Gate
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    print(_environment(np))
    workload = WORKLOADS[args.workload]()
    inputs = workload.inputs(args.seed)
    inputs.seed = args.seed
    gate = Gate()
    if args.trace:
        from ledger import LedgerError, unit_of
        try:
            values = run_traced(workload, inputs, gate, args.seconds)
        except LedgerError as exc:
            print(f"perfbench: ledger check failed: {exc}", file=sys.stderr)
            return 3
        values["gate.failed_share"] = gate.failed / gate.attempted
        values["gate.silent_share"] = gate.silent / gate.attempted
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in values.items()}
    else:
        values = run_untraced(workload, np, inputs, gate, args.seconds)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in values.items()}
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_share {gate.failed}/{gate.attempted}, "
          f"silent_share {gate.silent}/{gate.attempted}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
