"""Decode-path instrumentation: spans, counters and emitted manifests.

The acceptance bar for the telemetry layer: a pool decode run under an
active tracer leaves one schema-valid :class:`RunManifest` covering the
channel, clustering, consensus, receive and RS stages with nonzero
pipeline counters — and the ``repro.cli report`` subcommand renders and
diffs that evidence.
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
from repro.observability import Tracer, use_tracer, validate_manifest

MATRIX = MatrixConfig(m=8, n_columns=40, nsym=8, payload_rows=8)


def traced_pool_decode(seed=3, rate=0.05):
    """Run sequence_store + a pooled read under one tracer; return
    (tracer, decoded bits, report, payload bits)."""
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
    return tracer, decoded, report, bits


@pytest.fixture(scope="module")
def traced_run():
    return traced_pool_decode()


class TestDecodePoolManifest:
    def test_decode_still_round_trips_under_tracing(self, traced_run):
        _, decoded, report, bits = traced_run
        assert report.clean
        np.testing.assert_array_equal(decoded, bits)

    def test_manifest_emitted_and_schema_valid(self, traced_run):
        tracer = traced_run[0]
        assert len(tracer.manifests) == 1
        manifest = tracer.manifests[0]
        assert manifest.name == "store.read"
        assert validate_manifest(manifest.to_dict()) is not None

    def test_manifest_covers_every_pipeline_stage(self, traced_run):
        manifest = traced_run[0].manifests[0]
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
        manifest = traced_run[0].manifests[0]
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
        manifest = traced_run[0].manifests[0]
        assert manifest.config["fingerprint"]
        assert manifest.config["values"]["matrix"]["n_columns"] == 40
        assert manifest.context["seed"] == 3

    def test_labeled_decode_emits_manifest_too(self):
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
        manifest = tracer.manifests[0]
        assert manifest.name == "store.read"
        assert "rs.decode_words" in manifest.stages
        assert manifest.counter("rs.codewords") > 0

    def test_auto_manifest_off_records_spans_but_emits_nothing(self):
        """Long decode loops (the benchmark harness) switch off the
        per-decode store manifest and build one aggregate at the end —
        spans and counters must keep recording."""
        from repro.observability import build_manifest

        store = DnaStore(PipelineConfig(matrix=MATRIX))
        rng = np.random.default_rng(31)
        bits = rng.integers(0, 2, store.unit_capacity_bits).astype(np.uint8)
        image = store.encode(bits)
        simulator = SequencingSimulator(
            ErrorModel.uniform(0.03), FixedCoverage(6)
        )
        batch = simulator.sequence_store(image, rng=5)
        tracer = Tracer()
        tracer.auto_manifest = False
        with use_tracer(tracer):
            for _ in range(3):
                store.read(ReadRequest(batch, bits.size))
        assert tracer.manifests == []
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
        clusters = SequencingSimulator(
            ErrorModel.uniform(0.03), FixedCoverage(6)
        ).sequence(pipeline.encode(bits).strands, rng)
        tracer = Tracer()
        with use_tracer(tracer):
            if call == "receive":
                pipeline.receive(clusters)
            else:
                pipeline.decode(clusters, bits.size)
        assert tracer.stage_totals()["consensus.reconstruct"]["calls"] == 1
        assert tracer.metrics.counter("consensus.clusters").value \
            == MATRIX.n_columns
        assert tracer.metrics.counter("consensus.reads").value \
            == 6 * MATRIX.n_columns


class TestCliReport:
    def test_report_renders_saved_manifest(self, traced_run, tmp_path,
                                           capsys):
        path = traced_run[0].manifests[0].save(tmp_path / "run.json")
        assert cli_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# Run manifest: store.read" in out
        assert "## Stages" in out
        assert "rs.decode_words" in out

    def test_report_diffs_two_manifests(self, traced_run, tmp_path, capsys):
        base = traced_run[0].manifests[0].save(tmp_path / "base.json")
        fresh_tracer = traced_pool_decode(seed=4, rate=0.06)[0]
        fresh = fresh_tracer.manifests[0].save(tmp_path / "fresh.json")
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
