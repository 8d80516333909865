"""The three workloads: inputs from a seed, set-up, and one operation.

Each workload drives the program only through its public entry points
(``StoreService.submit``/``tick``, ``DnaStore.encode``/``read``) and
checks every answer byte for byte against the payload it stored:

* ``serve`` — the random-access service (the paper's key-value model):
  512 objects of 4 units at L=28, Zipf(1.1) popularity, a closed loop of
  16 clients in one thread (every tick answers all 16, then each client
  sends its next request), a decoded-unit cache of 256 units (1/8 of the
  corpus, so the Zipf head fits and the tail does not).
* ``archive`` — write-mostly storage at paper scale (L=664 over
  GF(2^16)): one sequential client, three 32 KB writes per 32 KB read.
* ``pool`` — unlabeled read pools at 6% error, clustered before
  consensus: one sequential client reading 1-unit objects.

Serve and pool also re-encode one corpus object after every tick or
read, so every workload times writes across its whole run.

An operation returns its timed :class:`Op` records. The correctness gate
counts every request: ``failed`` when the bytes differ or the call
raised, ``silent`` when the report said ``clean`` and the bytes are
wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter as _clock
from types import SimpleNamespace
from typing import List

import numpy as np

from repro.channel import ErrorModel, FixedCoverage, GammaCoverage, \
    SequencingSimulator
from repro.cluster import LSHClusterer
from repro.core import MatrixConfig, PipelineConfig
from repro.core.store import DnaStore, ReadRequest
from repro.service import StoreService


@dataclass
class Op:
    """One timed operation: a service tick, a read or a write."""

    kind: str  # "read" or "write"
    seconds: float
    requests: int
    payload_bytes: int
    latencies: List[float] = field(default_factory=list)


@dataclass
class Gate:
    """The correctness gate: requests attempted, failed and silent."""

    attempted: int = 0
    failed: int = 0
    silent: int = 0

    def judge(self, bits, expected, clean: bool) -> None:
        self.attempted += 1
        if not np.array_equal(bits, expected):
            self.failed += 1
            self.silent += bool(clean)

    def lost(self, n: int) -> None:
        """Requests that raised or were never answered."""
        self.attempted += n
        self.failed += n


class Workload:
    """Shared set-up plumbing; subclasses set the sizes and :meth:`op`."""

    name: str
    matrix: MatrixConfig
    layout: str
    units: int  # encoding units per object
    n_objects: int
    channel: tuple  # (ErrorModel, CoverageModel)
    pooled = False  # sequence unlabeled per-unit pools instead of clusters
    tail_percentile: float
    warmup_ops: int
    ops_per_s: float  # on a 2-core x86 box; sizes the traced passes
    # Writes cycle over this many payloads, so the error-free round trips
    # of verify() stay small however many writes a run makes.
    n_write_payloads = 8

    def inputs(self, seed: int) -> SimpleNamespace:
        rng = np.random.default_rng([seed, 1])
        n_bits = self.units * self.matrix.data_bits
        payloads = [rng.integers(0, 2, n_bits, dtype=np.uint8)
                    for _ in range(self.n_objects)]
        return SimpleNamespace(
            payloads=payloads,
            writes=payloads[:self.n_write_payloads],
            channel_seed=[seed, 2],
            traffic_seed=[seed, 3],
            rng=rng,
        )

    def setup(self, inputs) -> SimpleNamespace:
        """Build the store and sequence every object of the corpus."""
        world = SimpleNamespace(
            store=DnaStore(PipelineConfig(matrix=self.matrix,
                                          layout=self.layout)),
            traffic=np.random.default_rng(inputs.traffic_seed),
            bases_written=0,
            bytes_written=0,
            n_writes=0,
            # Write payload index -> [first image, writes that matched it].
            written={},
        )
        simulator = SequencingSimulator(*self.channel)
        rng = np.random.default_rng(inputs.channel_seed)
        world.reads = [
            simulator.sequence_store(self.encode(world, bits), rng=rng,
                                     labeled=not self.pooled)
            for bits in inputs.payloads
        ]
        return world

    def encode(self, world, bits):
        image = world.store.encode(bits)
        world.bytes_written += bits.size // 8
        world.bases_written += sum(len(strand) for unit in image.units
                                   for strand in unit.strands)
        return image

    def write(self, world, inputs, gate: Gate) -> Op:
        """One timed ``DnaStore.encode`` of the next write payload."""
        k = world.n_writes % len(inputs.writes)
        world.n_writes += 1
        bits = inputs.writes[k]
        start = _clock()
        try:
            image = self.encode(world, bits)
        except Exception:  # a raising write is a failed request
            gate.lost(1)
            return Op("write", _clock() - start, 0, 0)
        seconds = _clock() - start
        # Encoding is deterministic: a repeat must render the very strands
        # of the first write of its payload, which verify() round-trips.
        first = world.written.setdefault(k, [image, 0])
        if all(a.strands == b.strands
               for a, b in zip(first[0].units, image.units)):
            first[1] += 1
        else:
            gate.lost(1)
        return Op("write", seconds, 1, bits.size // 8)

    def read(self, world, inputs, gate: Gate, request) -> Op:
        """One timed ``DnaStore.read`` of a random corpus object."""
        oid = int(world.traffic.integers(self.n_objects))
        bits = inputs.payloads[oid]
        request = request(world.reads[oid], bits.size)
        start = _clock()
        try:
            result = world.store.read(request)
        except Exception:  # a raising read is a failed request
            seconds = _clock() - start
            gate.lost(1)
            return Op("read", seconds, 0, 0)
        seconds = _clock() - start
        gate.judge(result.bits, bits, result.clean)
        return Op("read", seconds, 1, bits.size // 8, [seconds])

    def verify(self, world, inputs, gate: Gate) -> None:
        """Round-trip the first image of every written payload through an
        error-free decode, after the timed section."""
        if not world.written:
            return
        exact = SequencingSimulator(ErrorModel.uniform(0.0),
                                    FixedCoverage(1))
        keys = sorted(world.written)
        results = world.store.read_many([
            ReadRequest(exact.sequence_store(world.written[k][0], rng=0),
                        inputs.writes[k].size)
            for k in keys
        ])
        for k, result in zip(keys, results):
            for _ in range(world.written[k][1]):
                gate.judge(result.bits, inputs.writes[k], result.clean)
        world.written.clear()

    def layer_counts(self, world) -> dict:
        """Layer counters only the workload can see (none by default)."""
        return {}


class Serve(Workload):
    name = "serve"
    matrix = MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=6)
    layout = "gini"
    units = 4
    n_objects = 512
    channel = (ErrorModel.uniform(0.01), GammaCoverage(16, shape=6))
    tail_percentile = 99
    warmup_ops = 32
    ops_per_s = 30.0
    clients = 16
    cache_units = 256
    zipf = 1.1

    def inputs(self, seed: int) -> SimpleNamespace:
        inputs = super().inputs(seed)
        weights = np.arange(1, self.n_objects + 1, dtype=np.float64) \
            ** -self.zipf
        inputs.cdf = np.cumsum(weights / weights.sum())
        # Popularity rank r belongs to a seeded random object.
        inputs.popularity = inputs.rng.permutation(self.n_objects)
        return inputs

    def setup(self, inputs) -> SimpleNamespace:
        world = super().setup(inputs)
        world.service = StoreService(world.store,
                                     cache_capacity=self.cache_units,
                                     batch_window=None)
        for oid, (reads, bits) in enumerate(zip(world.reads,
                                                inputs.payloads)):
            world.service.put(oid, reads, bits.size)
        world.queue_wait_s = 0.0
        world.requests = 0
        return world

    def op(self, world, inputs, gate: Gate) -> List[Op]:
        """One tick of the closed loop (every client sends one request),
        then one re-encode."""
        service = world.service
        draws = np.searchsorted(inputs.cdf,
                                world.traffic.random(self.clients))
        objects = inputs.popularity[np.minimum(draws, self.n_objects - 1)]
        start = _clock()
        submitted = {}
        for oid in objects.tolist():
            submitted[service.submit(oid)] = (oid, _clock())
        t_tick = _clock()
        try:
            answers = service.tick()
        except Exception:  # a raising tick loses all of its tickets
            answers = []
        end = _clock()
        world.queue_wait_s += sum(t_tick - t for _, t in submitted.values())
        world.requests += len(submitted)
        latencies = []
        for answer in answers:
            if answer.request_id not in submitted:
                continue  # a ticket of an earlier tick, already counted lost
            oid, t_submit = submitted.pop(answer.request_id)
            gate.judge(answer.bits, inputs.payloads[oid], answer.clean)
            latencies.append(end - t_submit)
        gate.lost(len(submitted))
        return [Op("read", end - start, len(answers),
                   len(answers) * inputs.payloads[0].size // 8, latencies),
                self.write(world, inputs, gate)]

    def layer_counts(self, world) -> dict:
        return {"service.evictions": world.service.cache.evictions,
                "service.queue_wait_s": world.queue_wait_s,
                "service.requests": world.requests}


class Archive(Workload):
    name = "archive"
    matrix = MatrixConfig(m=16, n_columns=120, nsym=22, payload_rows=82)
    layout = "dnamapper"
    units = 2
    n_objects = 8
    channel = (ErrorModel.uniform(0.01), GammaCoverage(8, shape=6))
    tail_percentile = 90
    warmup_ops = 4
    ops_per_s = 14.0
    writes_per_read = 3

    def inputs(self, seed: int) -> SimpleNamespace:
        inputs = super().inputs(seed)
        n_bits = self.units * self.matrix.data_bits
        inputs.writes = [inputs.rng.integers(0, 2, n_bits, dtype=np.uint8)
                         for _ in range(self.n_write_payloads)]
        return inputs

    def setup(self, inputs) -> SimpleNamespace:
        world = super().setup(inputs)
        world.step = 0
        return world

    def op(self, world, inputs, gate: Gate) -> List[Op]:
        step = world.step
        world.step += 1
        if step % (self.writes_per_read + 1) == self.writes_per_read:
            return [self.read(world, inputs, gate, ReadRequest)]
        return [self.write(world, inputs, gate)]


class Pool(Workload):
    name = "pool"
    matrix = MatrixConfig()
    layout = "gini"
    units = 1
    n_objects = 16
    channel = (ErrorModel.uniform(0.06), GammaCoverage(10, shape=6))
    tail_percentile = 90
    warmup_ops = 1
    ops_per_s = 2.9
    pooled = True

    def setup(self, inputs) -> SimpleNamespace:
        world = super().setup(inputs)
        world.clusterer = LSHClusterer.for_strand_length(
            self.matrix.strand_length)
        return world

    def op(self, world, inputs, gate: Gate) -> List[Op]:
        def request(reads, n_bits):
            return ReadRequest(reads, n_bits, pool=True,
                               clusterer=world.clusterer)
        return [self.read(world, inputs, gate, request),
                self.write(world, inputs, gate)]


WORKLOADS = {cls.name: cls for cls in (Serve, Archive, Pool)}
