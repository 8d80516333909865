#!/usr/bin/env python
"""CI perf-trend gate over the committed benchmark evidence.

The figure benchmarks leave machine-readable evidence in
``benchmarks/out/``: per-test wall-clock timings (``BENCH_timings.json``)
and the printed series of every figure (``BENCH_<slug>.json``). This
script compares a *fresh* run of that evidence against the *committed
baseline* and fails when a tracked stage regressed:

* **timings** — a test regresses when its fresh wall clock exceeds the
  baseline by more than ``--tolerance`` (a fraction; default 0.3 =
  +30%) *and* by at least ``--min-seconds`` of absolute growth. The
  shared-runner noise floor lives in the absolute band, not the
  fraction: a 40ms figure tripling to 120ms is timer noise and stays
  under ``--min-seconds``, but the same figure climbing to a full
  second is the scalar-loop regression the gate exists to catch —
  which is why the fraction can sit at a tight 30% without flaking.
  Tests present on only one side are reported but never fail the gate
  (benchmarks come and go with the repo).
* **series** — the figures are seeded simulations, so their series are
  expected to reproduce; any value drifting past ``--series-rtol``
  relative tolerance fails the gate (a silent accuracy change is as much
  a regression as a slow decode).
* **stages** (``--stage``) — every benchmark run also leaves one run
  manifest (``MANIFEST_<slug>.json``, see ``benchmarks/conftest.py``)
  with per-stage wall times. A stage regresses when its *share* of the
  run's traced wall time grows by more than ``--stage-share`` points
  *and* its absolute time grows by ``--min-seconds`` — this catches one
  stage (say, clustering) quietly eating the budget another stage freed,
  which the total-wall-clock gate cannot see. Stages or manifests
  present on only one side are reported but never fail the gate.

Usage (what the ``perf-trend`` workflow job runs; the tracked selection
spans the consensus-bound figures, the min-coverage sweep, the skew
figure, the clustering and LSH-scaling figures and the ablation
suite)::

    cp -r benchmarks/out /tmp/baseline        # committed evidence
    python -m pytest benchmarks -q \
        -k "fig03 or fig04 or fig05 or fig11 or fig12 or fig_skew \
            or fig_clustering or fig_lsh or ablation"
    python benchmarks/check_trend.py --baseline /tmp/baseline \
        --fresh benchmarks/out

``--skip-timings`` is the mirror of ``--skip-series``: series are checked
(and stages with ``--stage``), wall clock is not. The per-PR
``figure-series`` CI job uses it, since a shared runner's speed varies
from run to run but a seeded figure's series must not.

Exit code 0 = no regression, 1 = regression, 2 = bad invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

TIMINGS_NAME = "BENCH_timings.json"
MANIFEST_GLOB = "MANIFEST_*.json"


def load_timings(directory: Path) -> dict:
    """The ``{test_id: seconds}`` table of one evidence directory."""
    path = Path(directory) / TIMINGS_NAME
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def compare_timings(baseline, fresh, tolerance, min_seconds, only=()):
    """Classify every test's timing movement.

    A movement must clear *both* bars to count: the relative band
    (``tolerance``, a fraction of the baseline) and the absolute band
    (``min_seconds`` of wall-clock change) — the relative bar alone would
    flag millisecond jitter on fast figures, the absolute bar alone would
    hide a slow benchmark creeping by seconds.

    Returns a list of ``(kind, test_id, base_s, fresh_s)`` rows where
    ``kind`` is one of ``regression``, ``improvement``, ``ok``,
    ``ignored`` (past the relative band but under the absolute one — i.e.
    noise), ``baseline-only`` or ``fresh-only``. Only ``regression`` rows
    fail the gate.
    """
    rows = []

    def tracked(test_id):
        return not only or any(token in test_id for token in only)

    for test_id in sorted(set(baseline) | set(fresh)):
        if not tracked(test_id):
            continue
        if test_id not in fresh:
            rows.append(("baseline-only", test_id, baseline[test_id], None))
            continue
        if test_id not in baseline:
            rows.append(("fresh-only", test_id, None, fresh[test_id]))
            continue
        base_s, fresh_s = float(baseline[test_id]), float(fresh[test_id])
        if fresh_s > base_s * (1.0 + tolerance):
            kind = ("regression" if fresh_s - base_s >= min_seconds
                    else "ignored")
        elif base_s > fresh_s * (1.0 + tolerance):
            kind = ("improvement" if base_s - fresh_s >= min_seconds
                    else "ignored")
        else:
            kind = "ok"
        rows.append((kind, test_id, base_s, fresh_s))
    return rows


def _coerce(value):
    """Numbers stored as strings compare as numbers (older evidence
    files stringified numpy-integer x values)."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return value


def _values_match(a, b, rtol):
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-12)
    return a == b


def compare_series(baseline_dir, fresh_dir, rtol):
    """Series comparison between the two evidence directories.

    Compares every ``BENCH_*.json`` (except the timings table) present in
    *both* directories. Returns ``(problems, notes)``: ``problems`` are
    ``(file, where, baseline, fresh)`` drift rows that fail the gate;
    ``notes`` report evidence present only in the baseline (a file the
    fresh run did not produce, or a series name that vanished from a
    figure it did) — informational, like the timings' one-sided rows,
    but never silent.

    Series the baseline payload lists under ``timing_series`` hold
    wall-clock measurements (requests/sec, latency percentiles); they
    legitimately vary run to run, so they are noted rather than
    drift-gated — ``BENCH_timings.json`` still gates the test's total
    wall clock.
    """
    problems = []
    notes = []
    baseline_dir, fresh_dir = Path(baseline_dir), Path(fresh_dir)
    for base_path in sorted(baseline_dir.glob("BENCH_*.json")):
        if base_path.name == TIMINGS_NAME:
            continue
        fresh_path = fresh_dir / base_path.name
        if not fresh_path.exists():
            notes.append(f"{base_path.name}: not produced by the fresh run")
            continue
        base = json.loads(base_path.read_text())
        new = json.loads(fresh_path.read_text())
        base_x, new_x = base.get("x", []), new.get("x", [])
        if len(base_x) != len(new_x) or not all(
            _values_match(a, b, rtol) for a, b in zip(base_x, new_x)
        ):
            problems.append((base_path.name, "x", base_x, new_x))
            continue
        base_series = base.get("series", {})
        new_series = new.get("series", {})
        for name in sorted(set(base_series) - set(new_series)):
            notes.append(
                f"{base_path.name}: series {name!r} missing from fresh run"
            )
        timing_names = set(base.get("timing_series", []))
        for name in sorted(set(base_series) & set(new_series)):
            if name in timing_names:
                notes.append(
                    f"{base_path.name}: timing series {name!r} not "
                    f"drift-gated (wall-clock measurement)"
                )
                continue
            for i, (a, b) in enumerate(zip(base_series[name],
                                           new_series[name])):
                if not _values_match(a, b, rtol):
                    problems.append(
                        (base_path.name, f"{name}[x={base_x[i]}]", a, b)
                    )
    return problems, notes


def compare_stages(baseline_dir, fresh_dir, share_tolerance, min_seconds):
    """Per-stage wall-time comparison over the run manifests.

    Compares every ``MANIFEST_*.json`` present in *both* directories. A
    stage drifts when its share of the run's ``total_seconds`` grows by
    more than ``share_tolerance`` (an absolute fraction: 0.15 = 15
    percentage points) *and* its own wall time grows by at least
    ``min_seconds`` — the share bar catches rebalancing the total-time
    gate cannot see, the absolute bar keeps fast runs' share jitter out.

    Returns ``(problems, notes)``: ``problems`` are ``(file, stage,
    base_share, fresh_share, base_s, fresh_s)`` rows that fail the gate;
    ``notes`` report manifests or stages present on only one side.
    """
    problems = []
    notes = []
    baseline_dir, fresh_dir = Path(baseline_dir), Path(fresh_dir)
    for base_path in sorted(baseline_dir.glob(MANIFEST_GLOB)):
        fresh_path = fresh_dir / base_path.name
        if not fresh_path.exists():
            notes.append(f"{base_path.name}: not produced by the fresh run")
            continue
        base = json.loads(base_path.read_text())
        new = json.loads(fresh_path.read_text())
        base_total = float(base.get("total_seconds", 0.0))
        new_total = float(new.get("total_seconds", 0.0))
        base_stages = base.get("stages", {})
        new_stages = new.get("stages", {})
        for name in sorted(set(base_stages) | set(new_stages)):
            if name not in new_stages:
                notes.append(
                    f"{base_path.name}: stage {name!r} missing from "
                    "fresh run"
                )
                continue
            if name not in base_stages:
                notes.append(
                    f"{base_path.name}: stage {name!r} new in fresh run"
                )
                continue
            base_s = float(base_stages[name].get("seconds", 0.0))
            fresh_s = float(new_stages[name].get("seconds", 0.0))
            base_share = base_s / base_total if base_total > 0 else 0.0
            fresh_share = fresh_s / new_total if new_total > 0 else 0.0
            if (fresh_share - base_share > share_tolerance
                    and fresh_s - base_s >= min_seconds):
                problems.append((base_path.name, name, base_share,
                                 fresh_share, base_s, fresh_s))
    return problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when fresh benchmark evidence regresses past "
                    "the committed baseline."
    )
    parser.add_argument("--baseline", required=True, type=Path,
                        help="directory holding the baseline BENCH_*.json")
    parser.add_argument("--fresh", required=True, type=Path,
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.3,
                        help="allowed fractional wall-clock growth "
                             "(default 0.3 = +30%%; --min-seconds "
                             "absorbs the small-figure noise floor)")
    parser.add_argument("--min-seconds", type=float, default=0.5,
                        help="minimum absolute wall-clock change (seconds) "
                             "for a movement to count; smaller deltas are "
                             "timer noise even when past the tolerance")
    parser.add_argument("--series-rtol", type=float, default=1e-9,
                        help="relative tolerance for series values")
    parser.add_argument("--only", nargs="*", default=(),
                        help="track only test ids containing any of these "
                             "substrings (default: all)")
    parser.add_argument("--skip-series", action="store_true",
                        help="compare timings only")
    parser.add_argument("--skip-timings", action="store_true",
                        help="compare series (and stages with --stage) "
                             "only")
    parser.add_argument("--stage", action="store_true",
                        help="also compare per-stage wall-time shares "
                             "from the MANIFEST_*.json run manifests")
    parser.add_argument("--stage-share", type=float, default=0.15,
                        help="allowed growth of a stage's share of traced "
                             "wall time, in absolute fraction "
                             "(default 0.15 = 15 percentage points)")
    args = parser.parse_args(argv)

    for directory in (args.baseline, args.fresh):
        if not directory.is_dir():
            print(f"error: {directory} is not a directory", file=sys.stderr)
            return 2
    rows = []
    if not args.skip_timings:
        baseline = load_timings(args.baseline)
        fresh = load_timings(args.fresh)
        if not baseline or not fresh:
            print("error: missing BENCH_timings.json on one side",
                  file=sys.stderr)
            return 2
        rows = compare_timings(baseline, fresh, args.tolerance,
                               args.min_seconds, args.only)
    width = max((len(r[1]) for r in rows), default=10)
    for kind, test_id, base_s, fresh_s in rows:
        base_txt = "-" if base_s is None else f"{base_s:8.3f}s"
        fresh_txt = "-" if fresh_s is None else f"{fresh_s:8.3f}s"
        print(f"{kind:13s} {test_id.ljust(width)} {base_txt:>10} "
              f"-> {fresh_txt:>10}")
    regressions = [r for r in rows if r[0] == "regression"]

    series_problems = []
    if not args.skip_series:
        series_problems, notes = compare_series(args.baseline, args.fresh,
                                                args.series_rtol)
        for note in notes:
            print(f"series-note   {note}")
        for name, where, a, b in series_problems:
            print(f"series-drift  {name}: {where}: {a!r} -> {b!r}")

    stage_problems = []
    if args.stage:
        stage_problems, stage_notes = compare_stages(
            args.baseline, args.fresh, args.stage_share, args.min_seconds
        )
        for note in stage_notes:
            print(f"stage-note    {note}")
        for name, stage, base_share, fresh_share, base_s, fresh_s in \
                stage_problems:
            print(f"stage-drift   {name}: {stage}: "
                  f"{base_share:.1%} ({base_s:.3f}s) -> "
                  f"{fresh_share:.1%} ({fresh_s:.3f}s)")

    if regressions or series_problems or stage_problems:
        print(f"\nFAIL: {len(regressions)} timing regression(s), "
              f"{len(series_problems)} series drift(s), "
              f"{len(stage_problems)} stage drift(s) past tolerance")
        return 1
    timings = ("timings not compared" if args.skip_timings else
               f"{sum(1 for r in rows if r[0] in ('ok', 'improvement'))} "
               f"tracked timings within +{args.tolerance:.0%}")
    print(f"\nOK: {timings}, series stable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
