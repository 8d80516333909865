"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "a.bin").write_bytes(bytes(range(256)) * 3)
    (tmp_path / "b.txt").write_text("dna storage cli test")
    return tmp_path


def _encode(workspace, layout, rng_files=("a.bin", "b.txt")):
    store = workspace / "store.dna"
    code = main([
        "encode", "--layout", layout,
        "--molecules", "120", "--redundancy", "22", "--rows", "16",
        "-o", str(store),
        *[str(workspace / name) for name in rng_files],
    ])
    assert code == 0
    return store


class TestEncode:
    @pytest.mark.parametrize("layout", ["baseline", "gini", "dnamapper"])
    def test_store_file_format(self, workspace, layout):
        store = _encode(workspace, layout)
        lines = store.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + 120
        assert set("".join(lines[1:])) <= set("ACGT")

    def test_missing_input_fails(self, workspace, capsys):
        code = main(["encode", "-o", str(workspace / "x.dna"),
                     str(workspace / "missing.bin")])
        assert code == 1
        assert "not a file" in capsys.readouterr().err

    def test_capacity_overflow_fails(self, workspace, capsys):
        big = workspace / "big.bin"
        big.write_bytes(b"\x00" * 50_000)
        code = main(["encode", "--molecules", "60", "--redundancy", "12",
                     "--rows", "8", "-o", str(workspace / "x.dna"), str(big)])
        assert code == 1
        assert "capacity" in capsys.readouterr().err or True

    def test_fasta_export(self, workspace):
        store = workspace / "store.dna"
        code = main([
            "encode", "--layout", "gini",
            "--molecules", "120", "--redundancy", "22", "--rows", "16",
            "--fasta", "-o", str(store), str(workspace / "a.bin"),
        ])
        assert code == 0
        lines = (workspace / "store.fasta").read_text().splitlines()
        assert lines[0::2] == [f">strand_{i}" for i in range(120)]
        store_strands = store.read_text().splitlines()[1:]
        assert lines[1::2] == store_strands


class TestDecode:
    @pytest.mark.parametrize("layout", ["baseline", "gini", "dnamapper"])
    def test_noiseless_roundtrip(self, workspace, layout):
        store = _encode(workspace, layout)
        out = workspace / "restored"
        code = main(["decode", str(store), "-d", str(out)])
        assert code == 0
        assert (out / "a.bin").read_bytes() == (workspace / "a.bin").read_bytes()
        assert (out / "b.txt").read_text() == (workspace / "b.txt").read_text()

    def test_noisy_roundtrip(self, workspace):
        store = _encode(workspace, "gini")
        out = workspace / "restored"
        code = main(["decode", str(store), "-d", str(out),
                     "--error-rate", "0.05", "--coverage", "10",
                     "--seed", "1"])
        assert code == 0
        assert (out / "a.bin").read_bytes() == (workspace / "a.bin").read_bytes()

    def test_dnamapper_noisy_roundtrip(self, workspace):
        store = _encode(workspace, "dnamapper")
        out = workspace / "restored"
        code = main(["decode", str(store), "-d", str(out),
                     "--error-rate", "0.04", "--coverage", "10",
                     "--seed", "2"])
        assert code == 0
        assert (out / "b.txt").read_text() == (workspace / "b.txt").read_text()

    def test_missing_store_fails(self, workspace):
        assert main(["decode", str(workspace / "nope.dna")]) == 1

    def test_header_required(self, workspace):
        bad = workspace / "bad.dna"
        bad.write_text("ACGT\n")
        assert main(["decode", str(bad)]) == 1


class TestServe:
    def test_labeled_serve_runs_clean(self, capsys):
        code = main(["serve", "--objects", "2", "--repeats", "1",
                     "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "labeled reads" in out
        assert "clean 2/2" in out

    @pytest.mark.parametrize("kind", ["greedy", "lsh"])
    def test_pooled_serve_rides_selected_clusterer(self, capsys, kind):
        code = main(["serve", "--objects", "2", "--repeats", "2",
                     "--pool", "--clusterer", kind, "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"unlabeled pools, {kind} clusterer" in out
        # Both passes answer every request correctly; the second from
        # the cache.
        assert out.count("clean 2/2") == 2
        assert "cache 2/2" in out


class TestServeTelemetry:
    def test_serve_prints_stats_and_health_line(self, capsys):
        code = main(["serve", "--objects", "2", "--repeats", "2",
                     "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        # Per-pass stats: cold pass decodes, warm pass hits the cache.
        assert "pass 1:" in out and "pass 2:" in out
        assert "cache 0/2" in out and "cache 2/2" in out
        assert out.count("clean 2/2") == 2
        # The closing health line carries the SLO verdict.
        assert "health: ok" in out
        assert "req/s" in out and "p99" in out

    def test_serve_writes_event_log(self, tmp_path, capsys):
        from repro.observability import EventLog

        events = tmp_path / "events.jsonl"
        code = main(["serve", "--objects", "2", "--repeats", "1",
                     "--seed", "3", "--events", str(events)])
        assert code == 0
        records = EventLog.load_jsonl(events)
        kinds = {r["event"] for r in records}
        assert {"submit", "coalesce", "decode", "complete"} <= kinds
        completes = [r for r in records if r["event"] == "complete"]
        assert sorted(r["request_id"] for r in completes) == [0, 1]


class TestMetricsCommand:
    def test_exposition_parses_back(self, capsys):
        from repro.observability import parse_prometheus

        code = main(["metrics", "--objects", "2", "--repeats", "2",
                     "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        parsed = parse_prometheus(out)
        assert parsed["counters"]["repro_service_requests"] == 4
        assert parsed["counters"]["repro_service_ticks"] == 2
        timing = parsed["timings"]["repro_service_request_seconds"]
        assert timing["count"] == 4
        assert parsed["histograms"]["repro_service_read_outcomes"] == {
            "clean": 4,
        }

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "metrics.prom"
        code = main(["metrics", "--objects", "2", "--repeats", "1",
                     "--seed", "3", "-o", str(target)])
        assert code == 0
        assert "# TYPE repro_service_requests counter" in target.read_text()
        assert str(target) in capsys.readouterr().out


class TestTopCommand:
    def test_frames_print_health_and_checks(self, capsys):
        code = main(["top", "--objects", "2", "--frames", "2",
                     "--interval", "0", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "frame 1/2" in out and "frame 2/2" in out
        assert out.count("health:") == 2
        for check in ("latency", "queue", "failures"):
            assert check in out


class TestReportServiceManifests:
    def _service_manifest(self, path, repeats):
        """Run the serving demo under a recording tracer that shares the
        service's registry; build and save one service.tick manifest."""
        from repro.channel import (
            ErrorModel, FixedCoverage, SequencingSimulator,
        )
        from repro.core import MatrixConfig, PipelineConfig
        from repro.core.store import DnaStore
        from repro.observability import Tracer, build_manifest, use_tracer
        from repro.service import StoreService

        matrix = MatrixConfig(m=8, n_columns=24, nsym=4, payload_rows=6)
        store = DnaStore(PipelineConfig(matrix=matrix))
        simulator = SequencingSimulator(ErrorModel.uniform(0.01),
                                        FixedCoverage(5))
        service = StoreService(store, cache_capacity=64)
        rng = np.random.default_rng(3)
        for k in range(2):
            bits = rng.integers(0, 2, store.unit_capacity_bits,
                                dtype=np.uint8)
            reads = simulator.sequence_store(store.encode(bits), rng=4 + k)
            service.put(f"obj{k}", reads, bits.size)
        tracer = Tracer(metrics=service.metrics)
        with use_tracer(tracer):
            for _ in range(repeats):
                for k in range(2):
                    service.submit(f"obj{k}")
                service.tick()
        manifest = build_manifest(tracer, "service.tick",
                                  config=store.pipeline.config)
        manifest.save(path)
        return manifest

    def test_report_renders_one_service_manifest(self, tmp_path, capsys):
        path = tmp_path / "service.json"
        self._service_manifest(path, repeats=1)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# Run manifest: service.tick" in out
        assert "service.tick" in out
        assert "service.requests" in out

    def test_report_diffs_two_service_manifests(self, tmp_path, capsys):
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        self._service_manifest(cold, repeats=1)
        self._service_manifest(warm, repeats=2)
        assert main(["report", str(warm), str(cold)]) == 0
        out = capsys.readouterr().out
        assert "# Manifest diff: service.tick -> service.tick" in out
        # The two-pass run answered twice the requests and its second
        # tick hit the decoded-unit cache.
        assert "service.requests" in out
        assert "service.cache_unit_hits" in out
