"""Tests for the CI perf-trend gate (``benchmarks/check_trend.py``).

The script is the guard rail that keeps the committed
``benchmarks/out/BENCH_*.json`` evidence honest: these tests drive it
over synthetic baseline/fresh evidence directories and pin the gate's
behavior — what regresses, what is noise, what is informational.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = (Path(__file__).resolve().parents[2] / "benchmarks"
          / "check_trend.py")
spec = importlib.util.spec_from_file_location("check_trend", SCRIPT)
check_trend = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_trend)


def write_evidence(directory, timings, series=None):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_timings.json").write_text(json.dumps(timings))
    for name, payload in (series or {}).items():
        (directory / name).write_text(json.dumps(payload))


def write_manifest(directory, name, stages):
    """A minimal run manifest: stages as ``{name: seconds}``."""
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": 1,
        "name": name,
        "stages": {
            stage: {"seconds": seconds, "calls": 1}
            for stage, seconds in stages.items()
        },
        "total_seconds": sum(stages.values()),
    }
    (directory / f"MANIFEST_{name}.json").write_text(json.dumps(payload))


@pytest.fixture
def evidence(tmp_path):
    baseline = tmp_path / "baseline"
    fresh = tmp_path / "fresh"
    return baseline, fresh


class TestCompareTimings:
    def test_regression_detected(self):
        rows = check_trend.compare_timings(
            {"a": 10.0}, {"a": 16.0}, tolerance=0.5, min_seconds=1.0
        )
        assert rows == [("regression", "a", 10.0, 16.0)]

    def test_within_tolerance_is_ok(self):
        rows = check_trend.compare_timings(
            {"a": 10.0}, {"a": 14.9}, tolerance=0.5, min_seconds=1.0
        )
        assert rows[0][0] == "ok"

    def test_improvement_reported(self):
        rows = check_trend.compare_timings(
            {"a": 10.0}, {"a": 4.0}, tolerance=0.5, min_seconds=1.0
        )
        assert rows[0][0] == "improvement"

    def test_noise_floor_ignores_fast_tests(self):
        """A 35ms test tripling is noise, not a regression."""
        rows = check_trend.compare_timings(
            {"a": 0.035}, {"a": 0.110}, tolerance=0.5, min_seconds=1.0
        )
        assert rows[0][0] == "ignored"

    def test_fast_test_regressing_to_scalar_speed_counts(self):
        """The absolute-growth floor must not exempt a fast figure from a
        real regression: 37ms -> 0.9s is the scalar-loop failure mode."""
        rows = check_trend.compare_timings(
            {"a": 0.037}, {"a": 0.9}, tolerance=0.5, min_seconds=0.5
        )
        assert rows[0][0] == "regression"

    def test_small_absolute_improvement_is_noise(self):
        rows = check_trend.compare_timings(
            {"a": 0.110}, {"a": 0.035}, tolerance=0.5, min_seconds=1.0
        )
        assert rows[0][0] == "ignored"

    def test_crossing_noise_floor_counts(self):
        rows = check_trend.compare_timings(
            {"a": 0.9}, {"a": 5.0}, tolerance=0.5, min_seconds=1.0
        )
        assert rows[0][0] == "regression"

    def test_one_sided_tests_never_fail(self):
        rows = check_trend.compare_timings(
            {"old": 9.0}, {"new": 9.0}, tolerance=0.5, min_seconds=1.0
        )
        assert {row[0] for row in rows} == {"baseline-only", "fresh-only"}

    def test_only_filter(self):
        rows = check_trend.compare_timings(
            {"fig03": 5.0, "fig12": 5.0}, {"fig03": 50.0, "fig12": 50.0},
            tolerance=0.5, min_seconds=1.0, only=["fig12"],
        )
        assert [row[1] for row in rows] == ["fig12"]


class TestCompareSeries:
    def test_drift_detected(self, evidence):
        baseline, fresh = evidence
        payload = {"title": "t", "x": [1, 2],
                   "series": {"s": [0.5, 0.25]}}
        drifted = {"title": "t", "x": [1, 2],
                   "series": {"s": [0.5, 0.30]}}
        write_evidence(baseline, {"a": 1.0}, {"BENCH_t.json": payload})
        write_evidence(fresh, {"a": 1.0}, {"BENCH_t.json": drifted})
        problems, notes = check_trend.compare_series(baseline, fresh,
                                                     rtol=1e-9)
        assert len(problems) == 1
        assert problems[0][1] == "s[x=2]"
        assert notes == []

    def test_identical_series_pass(self, evidence):
        baseline, fresh = evidence
        payload = {"title": "t", "x": ["0", "1"],
                   "series": {"s": [0.1, 0.2]}}
        write_evidence(baseline, {"a": 1.0}, {"BENCH_t.json": payload})
        write_evidence(fresh, {"a": 1.0}, {"BENCH_t.json": payload})
        assert check_trend.compare_series(baseline, fresh,
                                          rtol=1e-9) == ([], [])

    def test_missing_fresh_file_is_noted_not_drift(self, evidence):
        baseline, fresh = evidence
        payload = {"title": "t", "x": [1], "series": {"s": [1.0]}}
        write_evidence(baseline, {"a": 1.0}, {"BENCH_t.json": payload})
        write_evidence(fresh, {"a": 1.0})
        problems, notes = check_trend.compare_series(baseline, fresh,
                                                     rtol=1e-9)
        assert problems == []
        assert notes and "not produced" in notes[0]

    def test_vanished_series_is_noted_not_drift(self, evidence):
        """A renamed/dropped series key must not silently pass the gate."""
        baseline, fresh = evidence
        write_evidence(baseline, {"a": 1.0}, {"BENCH_t.json": {
            "title": "t", "x": [1], "series": {"old": [1.0]}}})
        write_evidence(fresh, {"a": 1.0}, {"BENCH_t.json": {
            "title": "t", "x": [1], "series": {"new": [1.0]}}})
        problems, notes = check_trend.compare_series(baseline, fresh,
                                                     rtol=1e-9)
        assert problems == []
        assert notes and "'old' missing" in notes[0]

    def test_x_mismatch_is_drift(self, evidence):
        baseline, fresh = evidence
        write_evidence(baseline, {"a": 1.0}, {"BENCH_t.json": {
            "title": "t", "x": [1, 2], "series": {"s": [1, 2]}}})
        write_evidence(fresh, {"a": 1.0}, {"BENCH_t.json": {
            "title": "t", "x": [1, 3], "series": {"s": [1, 2]}}})
        problems, _ = check_trend.compare_series(baseline, fresh, rtol=1e-9)
        assert problems and problems[0][1] == "x"

    def test_stringified_x_compares_numerically(self, evidence):
        """Older evidence stringified numpy-integer x values; the format
        transition to numeric axes must not read as drift."""
        baseline, fresh = evidence
        write_evidence(baseline, {"a": 1.0}, {"BENCH_t.json": {
            "title": "t", "x": ["0", "10"], "series": {"s": [1.0, 2.0]}}})
        write_evidence(fresh, {"a": 1.0}, {"BENCH_t.json": {
            "title": "t", "x": [0, 10], "series": {"s": [1.0, 2.0]}}})
        assert check_trend.compare_series(baseline, fresh,
                                          rtol=1e-9) == ([], [])

    def test_timing_series_noted_not_drift(self, evidence):
        """Wall-clock-valued series (requests/sec, latency percentiles)
        vary run to run; the baseline's ``timing_series`` list exempts
        them from the rtol gate — noted, never failed."""
        baseline, fresh = evidence
        write_evidence(baseline, {"a": 1.0}, {"BENCH_service.json": {
            "title": "service", "x": [1, 8],
            "series": {"requests_per_sec": [110.0, 800.0],
                       "consensus_passes": [8.0, 1.0]},
            "timing_series": ["requests_per_sec"]}})
        write_evidence(fresh, {"a": 1.0}, {"BENCH_service.json": {
            "title": "service", "x": [1, 8],
            "series": {"requests_per_sec": [95.0, 1200.0],
                       "consensus_passes": [8.0, 1.0]},
            "timing_series": ["requests_per_sec"]}})
        problems, notes = check_trend.compare_series(baseline, fresh,
                                                     rtol=1e-9)
        assert problems == []
        assert notes and "requests_per_sec" in notes[0]
        assert "not drift-gated" in notes[0]

    def test_timing_series_exemption_leaves_others_gated(self, evidence):
        """The exemption is per series name: a deterministic series in
        the same file still drift-gates."""
        baseline, fresh = evidence
        write_evidence(baseline, {"a": 1.0}, {"BENCH_service.json": {
            "title": "service", "x": [8],
            "series": {"p99_ms": [4.0], "consensus_passes": [1.0]},
            "timing_series": ["p99_ms"]}})
        write_evidence(fresh, {"a": 1.0}, {"BENCH_service.json": {
            "title": "service", "x": [8],
            "series": {"p99_ms": [9.0], "consensus_passes": [8.0]},
            "timing_series": ["p99_ms"]}})
        problems, notes = check_trend.compare_series(baseline, fresh,
                                                     rtol=1e-9)
        assert len(problems) == 1
        assert problems[0][1] == "consensus_passes[x=8]"
        assert any("p99_ms" in note for note in notes)


class TestCompareStages:
    def test_share_drift_detected(self, evidence):
        """Clustering eating the budget consensus freed trips the gate:
        the run total barely moves, the stage's share of it does."""
        baseline, fresh = evidence
        write_manifest(baseline, "fig", {"cluster": 1.0, "consensus": 4.0})
        write_manifest(fresh, "fig", {"cluster": 4.0, "consensus": 1.0})
        problems, notes = check_trend.compare_stages(
            baseline, fresh, share_tolerance=0.15, min_seconds=0.5
        )
        assert notes == []
        assert len(problems) == 1
        file, stage, base_share, fresh_share, base_s, fresh_s = problems[0]
        assert stage == "cluster"
        assert base_share == pytest.approx(0.2)
        assert fresh_share == pytest.approx(0.8)
        assert (base_s, fresh_s) == (1.0, 4.0)

    def test_share_growth_within_tolerance_passes(self, evidence):
        baseline, fresh = evidence
        write_manifest(baseline, "fig", {"cluster": 2.0, "consensus": 8.0})
        write_manifest(fresh, "fig", {"cluster": 3.0, "consensus": 8.0})
        problems, _ = check_trend.compare_stages(
            baseline, fresh, share_tolerance=0.15, min_seconds=0.5
        )
        assert problems == []  # share grew 20% -> ~27%, inside 15 points

    def test_fast_run_share_jitter_is_noise(self, evidence):
        """Both bars must fail: a millisecond stage tripling its share
        stays under the absolute min-seconds floor."""
        baseline, fresh = evidence
        write_manifest(baseline, "fig", {"cluster": 0.01, "rs": 0.09})
        write_manifest(fresh, "fig", {"cluster": 0.05, "rs": 0.05})
        problems, _ = check_trend.compare_stages(
            baseline, fresh, share_tolerance=0.15, min_seconds=0.5
        )
        assert problems == []

    def test_proportional_slowdown_is_not_stage_drift(self, evidence):
        """Everything 2x slower keeps every share flat — that is the
        wall-clock gate's job, not the stage gate's."""
        baseline, fresh = evidence
        write_manifest(baseline, "fig", {"cluster": 2.0, "consensus": 6.0})
        write_manifest(fresh, "fig", {"cluster": 4.0, "consensus": 12.0})
        problems, _ = check_trend.compare_stages(
            baseline, fresh, share_tolerance=0.15, min_seconds=0.5
        )
        assert problems == []

    def test_one_sided_manifests_and_stages_are_notes(self, evidence):
        baseline, fresh = evidence
        write_manifest(baseline, "gone", {"cluster": 1.0})
        write_manifest(baseline, "fig", {"old_stage": 1.0})
        write_manifest(fresh, "fig", {"new_stage": 1.0})
        problems, notes = check_trend.compare_stages(
            baseline, fresh, share_tolerance=0.15, min_seconds=0.5
        )
        assert problems == []
        assert any("not produced" in note for note in notes)
        assert any("'old_stage' missing" in note for note in notes)
        assert any("'new_stage' new" in note for note in notes)

    def test_no_manifests_is_clean(self, evidence):
        baseline, fresh = evidence
        baseline.mkdir()
        fresh.mkdir()
        assert check_trend.compare_stages(
            baseline, fresh, share_tolerance=0.15, min_seconds=0.5
        ) == ([], [])


class TestMain:
    def test_clean_run_exits_zero(self, evidence, capsys):
        baseline, fresh = evidence
        write_evidence(baseline, {"a": 5.0})
        write_evidence(fresh, {"a": 5.2})
        code = check_trend.main([
            "--baseline", str(baseline), "--fresh", str(fresh),
        ])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_one(self, evidence, capsys):
        baseline, fresh = evidence
        write_evidence(baseline, {"a": 5.0})
        write_evidence(fresh, {"a": 12.0})
        code = check_trend.main([
            "--baseline", str(baseline), "--fresh", str(fresh),
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_series_drift_exits_one(self, evidence):
        baseline, fresh = evidence
        write_evidence(baseline, {"a": 1.0}, {"BENCH_t.json": {
            "title": "t", "x": [1], "series": {"s": [1.0]}}})
        write_evidence(fresh, {"a": 1.0}, {"BENCH_t.json": {
            "title": "t", "x": [1], "series": {"s": [2.0]}}})
        assert check_trend.main([
            "--baseline", str(baseline), "--fresh", str(fresh),
        ]) == 1
        assert check_trend.main([
            "--baseline", str(baseline), "--fresh", str(fresh),
            "--skip-series",
        ]) == 0

    def test_skip_timings_gates_series_and_stages_only(self, evidence,
                                                      capsys):
        """The per-PR figure-series gate: a wall-clock regression with
        stable series passes only with ``--skip-timings``, and a series
        or stage drift still fails with it."""
        baseline, fresh = evidence
        stable = {"BENCH_t.json": {"title": "t", "x": [1],
                                   "series": {"s": [1.0]}}}
        write_evidence(baseline, {"a": 5.0}, stable)
        write_evidence(fresh, {"a": 12.0}, stable)
        argv = ["--baseline", str(baseline), "--fresh", str(fresh)]
        assert check_trend.main(argv) == 1
        capsys.readouterr()
        assert check_trend.main(argv + ["--skip-timings"]) == 0
        out = capsys.readouterr().out
        assert "regression" not in out
        assert "OK: timings not compared" in out

        write_manifest(baseline, "fig", {"cluster": 1.0, "consensus": 4.0})
        write_manifest(fresh, "fig", {"cluster": 4.0, "consensus": 1.0})
        assert check_trend.main(argv + ["--skip-timings"]) == 0
        assert check_trend.main(argv + ["--skip-timings", "--stage"]) == 1

        write_evidence(fresh, {"a": 12.0}, {"BENCH_t.json": {
            "title": "t", "x": [1], "series": {"s": [2.0]}}})
        capsys.readouterr()
        assert check_trend.main(argv + ["--skip-timings"]) == 1
        assert "series-drift" in capsys.readouterr().out

    def test_missing_directory_exits_two(self, tmp_path):
        assert check_trend.main([
            "--baseline", str(tmp_path / "nope"),
            "--fresh", str(tmp_path / "nope"),
        ]) == 2

    def test_missing_timings_exits_two(self, evidence):
        baseline, fresh = evidence
        baseline.mkdir()
        fresh.mkdir()
        assert check_trend.main([
            "--baseline", str(baseline), "--fresh", str(fresh),
        ]) == 2

    def test_stage_drift_exits_one_only_with_stage_flag(self, evidence,
                                                        capsys):
        baseline, fresh = evidence
        write_evidence(baseline, {"a": 1.0})
        write_evidence(fresh, {"a": 1.0})
        write_manifest(baseline, "fig", {"cluster": 1.0, "consensus": 4.0})
        write_manifest(fresh, "fig", {"cluster": 4.0, "consensus": 1.0})
        argv = ["--baseline", str(baseline), "--fresh", str(fresh)]
        assert check_trend.main(argv) == 0  # manifests ignored by default
        capsys.readouterr()
        assert check_trend.main(argv + ["--stage"]) == 1
        out = capsys.readouterr().out
        assert "stage-drift" in out
        assert "cluster" in out
        assert "FAIL" in out

    def test_stage_share_flag_loosens_the_gate(self, evidence):
        baseline, fresh = evidence
        write_evidence(baseline, {"a": 1.0})
        write_evidence(fresh, {"a": 1.0})
        write_manifest(baseline, "fig", {"cluster": 1.0, "consensus": 4.0})
        write_manifest(fresh, "fig", {"cluster": 4.0, "consensus": 1.0})
        assert check_trend.main([
            "--baseline", str(baseline), "--fresh", str(fresh),
            "--stage", "--stage-share", "0.9",
        ]) == 0

    def test_against_committed_evidence(self, capsys):
        """The real committed baseline compared against itself is clean —
        the invariant the CI job starts from."""
        out_dir = SCRIPT.parent / "out"
        code = check_trend.main([
            "--baseline", str(out_dir), "--fresh", str(out_dir),
        ])
        assert code == 0
