"""Decode-path instrumentation: spans, counters and built manifests.

The acceptance bar for the telemetry layer: a pool decode run under an
active tracer records what :func:`build_manifest` turns into one
schema-valid :class:`RunManifest` covering the channel, clustering,
consensus, receive and RS stages with nonzero pipeline counters — and
the ``repro.cli report`` subcommand renders and diffs that evidence.
"""

import numpy as np
import pytest

from repro.channel import ErrorModel, FixedCoverage, SequencingSimulator
from repro.cli import main as cli_main
from repro.core import (
    DnaStoragePipeline,
    MatrixConfig,
    PipelineConfig,
    ReadRequest,
)
from repro.core.store import DnaStore
from repro.observability import (
    Tracer,
    build_manifest,
    use_tracer,
    validate_manifest,
)

MATRIX = MatrixConfig(m=8, n_columns=40, nsym=8, payload_rows=8)


def traced_pool_decode(seed=3, rate=0.05):
    """Run sequence_store + a pooled read under one tracer; return
    (manifest, decoded bits, report, payload bits, tracer)."""
    store = DnaStore(PipelineConfig(matrix=MATRIX))
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, 2 * store.unit_capacity_bits - 5)
    bits = bits.astype(np.uint8)
    image = store.encode(bits)
    simulator = SequencingSimulator(
        ErrorModel.uniform(rate), FixedCoverage(8)
    )
    tracer = Tracer()
    tracer.context["seed"] = seed
    with use_tracer(tracer):
        pool = simulator.sequence_store(image, rng=seed, labeled=False)
        decoded, report = store.read(
            ReadRequest(pool, bits.size, pool=True)
        )
    manifest = build_manifest(tracer, "store.read",
                              config=store.pipeline.config)
    return manifest, decoded, report, bits, tracer


@pytest.fixture(scope="module")
def traced_run():
    return traced_pool_decode()


class TestDecodePoolManifest:
    def test_decode_still_round_trips_under_tracing(self, traced_run):
        _, decoded, report, bits, _ = traced_run
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_manifest_built_on_request_and_schema_valid(self, traced_run):
        """Decoding leaves spans and counters on the tracer, no manifest;
        ``build_manifest`` makes one from them."""
        manifest, tracer = traced_run[0], traced_run[4]
        assert not hasattr(tracer, "manifests")
        assert manifest.name == "store.read"
        assert manifest.stages == tracer.stage_totals()
        assert validate_manifest(manifest.to_dict()) is not None

    def test_manifest_covers_every_pipeline_stage(self, traced_run):
        manifest = traced_run[0]
        for stage in (
            "channel.sequence",      # sequencing the pool
            "cluster.pools",         # recovering unlabeled clusters
            "consensus.reconstruct",  # trace reconstruction
            "pipeline.receive_many",  # index parse + column assembly
            "rs.decode_words",       # RS errata correction
            "store.read",            # the enclosing store span
        ):
            assert stage in manifest.stages, stage
            assert manifest.stages[stage]["seconds"] >= 0.0
            assert manifest.stages[stage]["calls"] >= 1

    def test_manifest_counters_are_nonzero(self, traced_run):
        manifest = traced_run[0]
        for counter in (
            "channel.strands_in",
            "channel.reads_out",
            "cluster.reads_in",
            "cluster.recovered_clusters",
            "consensus.clusters",
            "receive.clusters_in",
            "receive.units_out",
            "rs.codewords",
        ):
            assert manifest.counter(counter) > 0, counter
        reasons = manifest.histogram("rs.failure_reasons")
        assert sum(reasons.values()) == manifest.counter("rs.codewords")

    def test_manifest_carries_config_and_context(self, traced_run):
        manifest = traced_run[0]
        assert manifest.config["fingerprint"]
        assert manifest.config["values"]["matrix"]["n_columns"] == 40
        assert manifest.context["seed"] == 3

    def test_labeled_decode_builds_manifest_too(self):
        store = DnaStore(PipelineConfig(matrix=MATRIX))
        rng = np.random.default_rng(23)
        bits = rng.integers(0, 2, store.unit_capacity_bits).astype(np.uint8)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.03), FixedCoverage(6)
        )
        batch = simulator.sequence_store(image, rng=7)
        tracer = Tracer()
        with use_tracer(tracer):
            decoded, report = store.read(ReadRequest(batch, bits.size))
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)
        manifest = build_manifest(tracer, "store.read")
        assert manifest.name == "store.read"
        assert "rs.decode_words" in manifest.stages
        assert manifest.counter("rs.codewords") > 0

    def test_decode_loop_builds_one_aggregate_manifest(self):
        """A long decode loop (the benchmark harness) records spans and
        counters for every decode and builds one aggregate manifest at
        the end."""
        store = DnaStore(PipelineConfig(matrix=MATRIX))
        rng = np.random.default_rng(31)
        bits = rng.integers(0, 2, store.unit_capacity_bits).astype(np.uint8)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.03), FixedCoverage(6)
        )
        batch = simulator.sequence_store(image, rng=5)
        tracer = Tracer()
        with use_tracer(tracer):
            for _ in range(3):
                store.read(ReadRequest(batch, bits.size))
        aggregate = build_manifest(tracer, "sweep")
        assert aggregate.stages["store.read"]["calls"] == 3
        assert aggregate.counter("rs.codewords") > 0


class TestSingleUnitAttribution:
    """Single-unit pipeline calls ride ``receive_many``, so their
    consensus time and counters are attributed like a store read's."""

    @pytest.mark.parametrize("call", ["receive", "decode"])
    def test_consensus_span_and_counters(self, call):
        pipeline = DnaStoragePipeline(PipelineConfig(matrix=MATRIX))
        rng = np.random.default_rng(41)
        bits = rng.integers(0, 2, pipeline.capacity_bits).astype(np.uint8)
        batch = SequencingSimulator(
            ErrorModel.uniform(0.03), FixedCoverage(6)
        ).sequence_batch(pipeline.encode(bits).strands, rng)
        tracer = Tracer()
        with use_tracer(tracer):
            if call == "receive":
                pipeline.receive(batch)
            else:
                pipeline.decode(batch, bits.size)
        assert tracer.stage_totals()["consensus.reconstruct"]["calls"] == 1
        assert tracer.metrics.counter("consensus.clusters").value \
            == MATRIX.n_columns
        assert tracer.metrics.counter("consensus.reads").value \
            == 6 * MATRIX.n_columns


class TestCliReport:
    def test_report_renders_saved_manifest(self, traced_run, tmp_path,
                                           capsys):
        path = traced_run[0].save(tmp_path / "run.json")
        assert cli_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# Run manifest: store.read" in out
        assert "## Stages" in out
        assert "rs.decode_words" in out

    def test_report_diffs_two_manifests(self, traced_run, tmp_path, capsys):
        base = traced_run[0].save(tmp_path / "base.json")
        fresh_manifest = traced_pool_decode(seed=4, rate=0.06)[0]
        fresh = fresh_manifest.save(tmp_path / "fresh.json")
        assert cli_main(["report", str(fresh), str(base)]) == 0
        out = capsys.readouterr().out
        assert "# Manifest diff" in out
        assert "## Stage deltas" in out

    def test_report_rejects_invalid_manifest(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1}')
        assert cli_main(["report", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err.lower()

    def test_report_missing_file(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path / "nope.json")]) == 1
        assert capsys.readouterr().err
