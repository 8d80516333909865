"""The per-layer ledger: spans recorded around the program's public entry points.

Nothing here touches ``src/``. :class:`Ledger` wraps the public methods
that bound each layer (the table :data:`SHIMS`), records one span per
call (name, layer, start, end, parent span, operation id) in memory,
and turns the span tree into the per-layer metrics the benchmark
reports. A layer's self time is its spans' durations minus the part
covered by their child spans.

The shims fail loudly: a wrapped attribute that no longer exists, a
shim never called on a workload where :data:`SHIMS` says it runs, or a
layer called on a workload where :data:`PREDICTIONS` says it is absent
all raise :class:`LedgerError`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from repro.channel import SequencingSimulator
from repro.cluster import BatchedGreedyClusterer, LSHClusterer
from repro.core.pipeline import DnaStoragePipeline
from repro.core.store import DnaStore
from repro.ecc.reed_solomon import ReedSolomon
from repro.service import DecodedUnitCache, StoreService

WORKLOADS = ("serve", "archive", "pool")
ALL = frozenset(WORKLOADS)

#: layer -> (the end-to-end metrics its numbers should move, on which
#: workload; the workloads on which it must not run at all).
PREDICTIONS = {
    "service": ("served_rps, read_p50_ms, read_tail_ms @serve",
                ("archive", "pool")),
    "store": ("read_MBps @archive,pool (self time: coalescing, assembly)",
              ()),
    "pipeline": ("write_MBps @archive; setup_s @serve,pool; read_MBps",
                 ()),
    "consensus": ("served_rps, read_p50_ms @serve; read_MBps @archive; "
                  "little @pool", ()),
    "ecc": ("read_MBps @archive; failed/silent share everywhere; "
            "write_MBps via ecc.parity_s", ()),
    "cluster": ("read_p50_ms, read_MBps @pool; no change @serve,archive",
                ("serve", "archive")),
    "channel": ("setup_s everywhere", ()),
}

#: (layer, owner, method, workloads that must call it). ``owner`` is a
#: class, or the name of a world attribute whose instance is wrapped.
SHIMS = (
    ("service", StoreService, "tick", {"serve"}),
    ("service", DecodedUnitCache, "get", {"serve"}),
    ("service", DecodedUnitCache, "put", {"serve"}),
    ("store", DnaStore, "read", {"archive", "pool"}),
    ("store", DnaStore, "encode", ALL),
    ("pipeline", DnaStoragePipeline, "encode_many", ALL),
    ("pipeline", DnaStoragePipeline, "receive_many", ALL),
    ("pipeline", DnaStoragePipeline, "correct_many", ALL),
    ("consensus", "reconstructor", "reconstruct_batch", ALL),
    ("ecc", ReedSolomon, "decode_many", ALL),
    ("ecc", ReedSolomon, "parity_many", ALL),
    ("cluster", LSHClusterer, "cluster_pools", {"pool"}),
    ("cluster", BatchedGreedyClusterer, "cluster_pools", set()),
    ("channel", SequencingSimulator, "sequence_store", ALL),
)


RATIOS = ("inflation", "calls_per_correct", "objects_per_tick",
          "cache_hit_rate")


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("per_s"):
        return "1/s"
    if suffix.endswith("_ms"):
        return "ms"
    if suffix.endswith("_s") or suffix == "s_per_call":
        return "s"
    if suffix in RATIOS or suffix.endswith("_share"):
        return "ratio"
    return "count"


class LedgerError(RuntimeError):
    """A shim is missing, never called where it must run, or called
    where its layer must be absent."""


def _key(owner, method: str) -> str:
    name = owner if isinstance(owner, str) else owner.__name__
    return f"{name}.{method}"


class Ledger:
    """In-memory span recorder plus per-call item counters.

    Spans are ``[key, layer, start, end, parent, op]`` lists; ``op`` is
    the benchmark operation id set through :attr:`op` (spans of one
    request share it). Class shims go in with :meth:`install` before
    the world is built, so set-up work (encode, channel) is traced;
    instance shims with :meth:`install_world` once the world exists.
    """

    def __init__(self, workload: str, n_columns: int) -> None:
        self.workload = workload
        self.n_columns = n_columns
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.op = None
        self._stack: list = []
        self._restore: list = []

    # -- shims ---------------------------------------------------------------

    def _shim(self, key: str, layer: str, fn, bound: bool = False):
        count = getattr(self, "_count_" + key.split(".")[-1], None)
        skip = 0 if bound else 1  # counters never see ``self``
        ledger = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = ledger._stack
            record = [key, layer, 0.0, 0.0,
                      stack[-1] if stack else -1, ledger.op]
            stack.append(len(ledger.spans))
            ledger.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            ledger.calls[key] += 1
            if count is not None:
                count(args[skip:], result)
            return result

        return shim

    def install(self) -> None:
        """Wrap every class-owned method in :data:`SHIMS`."""
        for layer, owner, method, _ in SHIMS:
            if isinstance(owner, str):
                continue
            original = getattr(owner, method, None)
            if original is None:
                raise LedgerError(f"shim target {_key(owner, method)} is "
                                  f"missing")
            # An inherited method is shadowed, then deleted on uninstall.
            self._restore.append((owner, method, owner.__dict__.get(method)))
            setattr(owner, method, self._shim(_key(owner, method), layer,
                                              original))

    def install_world(self, world) -> None:
        """Wrap the world's instance-owned methods (its reconstructor)."""
        for layer, owner, method, _ in SHIMS:
            if not isinstance(owner, str):
                continue
            target = getattr(world.store.pipeline, owner, None)
            original = getattr(target, method, None)
            if original is None:
                raise LedgerError(f"shim target {_key(owner, method)} is "
                                  f"missing")
            self._restore.append((target, method, None))
            setattr(target, method, self._shim(_key(owner, method), layer,
                                               original, bound=True))

    def uninstall(self) -> None:
        """Put every wrapped method back; shadowing shims are deleted."""
        for owner, method, original in reversed(self._restore):
            if original is None:
                delattr(owner, method)
            else:
                setattr(owner, method, original)
        self._restore.clear()

    # -- per-call item counters (args exclude ``self``) ------------------------

    def _count_tick(self, args, answers) -> None:
        self.counts["service.objects"] += len(
            {answer.object_id for answer in answers})

    def _count_get(self, args, entry) -> None:
        self.counts["service.hits" if entry is not None
                    else "service.misses"] += 1

    def _count_encode_many(self, args, units) -> None:
        self.counts["pipeline.encode_units"] += len(units)

    def _count_correct_many(self, args, corrected) -> None:
        for _, report in corrected:
            self.counts["ecc.corrected_symbols"] += report.corrected_symbols
            self.counts["ecc.failed_codewords"] += len(
                report.failed_codewords)

    def _count_reconstruct_batch(self, args, estimates) -> None:
        batch = args[0]
        self.counts["consensus.clusters"] += batch.n_clusters
        self.counts["consensus.reads"] += batch.n_reads
        self.counts["consensus.bases"] += batch.total_bases

    def _count_decode_many(self, args, result) -> None:
        self.counts["ecc.codewords"] += result.n_rows

    def _count_cluster_pools(self, args, result) -> None:
        boundaries = result[1]
        self.counts["cluster.reads"] += args[0].n_reads
        self.counts["cluster.recovered"] += int(boundaries[-1])
        self.counts["cluster.true_strands"] += \
            (len(boundaries) - 1) * self.n_columns

    def _count_sequence_store(self, args, batch) -> None:
        self.counts["channel.bases"] += batch.total_bases

    # -- checks and metrics -------------------------------------------------------

    def check(self) -> None:
        """Raise :class:`LedgerError` when a shim broke its prediction."""
        problems = []
        for layer, owner, method, runs_on in SHIMS:
            key = _key(owner, method)
            if self.workload in runs_on and not self.calls[key]:
                problems.append(f"{key} was never called on "
                                f"{self.workload}")
        for layer, (_, absent) in PREDICTIONS.items():
            if self.workload not in absent:
                continue
            called = sum(self.calls[_key(owner, method)]
                         for lay, owner, method, _ in SHIMS if lay == layer)
            if called:
                problems.append(f"layer {layer} ran {called} calls on "
                                f"{self.workload}, predicted absent")
        if problems:
            raise LedgerError("; ".join(problems))

    def self_times(self, since: float = float("-inf")) -> dict:
        """Per-span-key self seconds over spans starting at ``since`` or
        later (a span's duration minus its direct children's)."""
        child = [0.0] * len(self.spans)
        for key, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        for i, (key, layer, start, end, parent, _) in enumerate(self.spans):
            if start >= since:
                totals[key] += end - start - child[i]
        return totals

    def busy(self, key: str) -> float:
        return sum(end - start for k, _, start, end, _, _ in self.spans
                   if k == key)

    def layer_self(self, since: float = float("-inf")) -> dict:
        by_key = self.self_times(since)
        layers: dict = defaultdict(float)
        for layer, owner, method, _ in SHIMS:
            layers[layer] += by_key.get(_key(owner, method), 0.0)
        return layers

    def metrics(self) -> dict:
        """Every per-layer metric of the ``per_layer`` list, as numbers
        (zero where the layer did not run)."""
        c, calls, by_key = self.counts, self.calls, self.self_times()
        layer_self = self.layer_self()

        def ratio(a, b):
            return a / b if b else 0.0

        consensus_s = self.busy("reconstructor.reconstruct_batch")
        consensus_calls = calls["reconstructor.reconstruct_batch"]
        cluster_keys = ("LSHClusterer.cluster_pools",
                        "BatchedGreedyClusterer.cluster_pools")
        cluster_s = sum(self.busy(k) for k in cluster_keys)
        decode_s = self.busy("ReedSolomon.decode_many")
        parity_s = self.busy("ReedSolomon.parity_many")
        hits, misses = c["service.hits"], c["service.misses"]
        ticks = calls["StoreService.tick"]
        channel_s = self.busy("SequencingSimulator.sequence_store")
        return {
            "consensus.calls": consensus_calls,
            "consensus.clusters": int(c["consensus.clusters"]),
            "consensus.reads": int(c["consensus.reads"]),
            "consensus.bases": int(c["consensus.bases"]),
            "consensus.busy_s": consensus_s,
            "consensus.s_per_call": ratio(consensus_s, consensus_calls),
            "consensus.reads_per_s": ratio(c["consensus.reads"],
                                           consensus_s),
            "cluster.calls": sum(calls[k] for k in cluster_keys),
            "cluster.reads": int(c["cluster.reads"]),
            "cluster.busy_s": cluster_s,
            "cluster.reads_per_s": ratio(c["cluster.reads"], cluster_s),
            "cluster.inflation": ratio(c["cluster.recovered"],
                                       c["cluster.true_strands"]),
            "ecc.decode_calls": calls["ReedSolomon.decode_many"],
            "ecc.codewords": int(c["ecc.codewords"]),
            "ecc.corrected_symbols": int(c["ecc.corrected_symbols"]),
            "ecc.failed_codewords": int(c["ecc.failed_codewords"]),
            "ecc.busy_s": decode_s + parity_s,
            "ecc.calls_per_correct": ratio(
                calls["ReedSolomon.decode_many"],
                calls["DnaStoragePipeline.correct_many"]),
            "ecc.parity_s": parity_s,
            "pipeline.encode_s": self.busy("DnaStoragePipeline.encode_many"),
            "pipeline.encode_units": int(c["pipeline.encode_units"]),
            "pipeline.receive_self_s":
                by_key.get("DnaStoragePipeline.receive_many", 0.0),
            "pipeline.correct_self_s":
                by_key.get("DnaStoragePipeline.correct_many", 0.0),
            "service.ticks": ticks,
            "service.objects_per_tick": ratio(c["service.objects"], ticks),
            "service.cache_hit_rate": ratio(hits, hits + misses),
            "service.cache_evictions": int(c["service.evictions"]),
            "service.queue_wait_ms": 1e3 * ratio(c["service.queue_wait_s"],
                                                 c["service.requests"]),
            "service.self_s": layer_self["service"],
            "store.self_s": layer_self["store"],
            "channel.bases": int(c["channel.bases"]),
            "channel.busy_s": channel_s,
            "channel.bases_per_s": ratio(c["channel.bases"], channel_s),
        }

    def save(self, path: Path) -> None:
        """Write the spans, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "layer", "start", "end", "parent", "op")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")
