"""Shared helpers for the figure-reproduction benchmarks.

Every benchmark regenerates one figure of the paper at reduced scale (see
DESIGN.md's substitution table) and prints the series the paper plots, so
the run log doubles as the reproduction record in EXPERIMENTS.md.

Besides the printed tables, every run leaves machine-readable evidence in
``benchmarks/out/``:

* ``BENCH_<slug>.json`` — the x values and series of each printed table
  (written by :func:`print_series`);
* ``BENCH_timings.json`` — wall-clock seconds per benchmark test,
  merge-updated across runs so partial reruns refresh only their rows;
* ``MANIFEST_<slug>.json`` — one run manifest per benchmark test (the
  :func:`bench_tracer` autouse fixture activates a tracer around every
  test): per-stage wall times and pipeline counters, so
  ``check_trend.py --stage`` can flag a single stage's share of wall
  time drifting even when the total stays within tolerance.

The artifacts are committed deliberately: like EXPERIMENTS.md, they are
the reproduction record (and the perf evidence PRs point at), so series
and timing changes show up in review diffs.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

OUT_DIR = Path(__file__).parent / "out"


def _slugify(title):
    slug = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")
    if len(slug) > 60:
        # Keep long titles collision-free: two titles sharing a 60-char
        # prefix must not overwrite each other's evidence file.
        digest = hashlib.md5(slug.encode("ascii")).hexdigest()[:8]
        slug = f"{slug[:60].rstrip('_')}_{digest}"
    return slug


def print_series(title, xs, series, timing_series=()):
    """Print an aligned table: one x column plus one column per series.

    Also dumps the table to ``benchmarks/out/BENCH_<slug>.json`` so runs
    can be diffed and plotted without scraping the log.

    ``timing_series`` names the series whose values are wall-clock
    measurements (requests/sec, latency percentiles): they vary run to
    run, so ``check_trend.py`` reports them as notes instead of
    drift-gating them at ``rtol`` like the deterministic series (the
    per-test wall clock in ``BENCH_timings.json`` still gates gross
    regressions).
    """
    print(f"\n=== {title} ===")
    names = list(series)
    header = "x".ljust(10) + "".join(name.rjust(16) for name in names)
    print(header)
    for i, x in enumerate(xs):
        row = str(x).ljust(10)
        for name in names:
            value = series[name][i]
            row += (f"{value:.4f}" if isinstance(value, float) else str(value)).rjust(16)
        print(row)

    OUT_DIR.mkdir(exist_ok=True)

    def jsonify_x(value):
        # numpy scalars are not JSON types but must not stringify either:
        # the evidence keeps numeric axes numeric so the trend gate and
        # plotting can compare them as numbers.
        if isinstance(value, (int, np.integer)):
            return int(value)
        if isinstance(value, (float, np.floating)):
            return float(value)
        return str(value)

    payload = {
        "title": title,
        "x": [jsonify_x(x) for x in xs],
        "series": {
            name: [float(v) if isinstance(v, (int, float, np.integer,
                                              np.floating)) else str(v)
                   for v in values]
            for name, values in series.items()
        },
    }
    timing_series = [name for name in timing_series if name in series]
    if timing_series:
        payload["timing_series"] = timing_series
    path = OUT_DIR / f"BENCH_{_slugify(title)}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _merge_timing(test_id, seconds):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_timings.json"
    try:
        timings = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        timings = {}
    timings[test_id] = round(seconds, 3)
    path.write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n")


def pytest_runtest_logreport(report):
    """Record each benchmark's call-phase wall clock as JSON.

    The hook fires for every test in the session, so it filters to this
    directory's tests — a combined ``pytest benchmarks tests`` run must
    not leak unit-test timings into the benchmark record.
    """
    if (report.when == "call" and report.passed
            and report.nodeid.startswith("benchmarks/")):
        _merge_timing(report.nodeid, report.duration)


@pytest.fixture
def bench_rng():
    return np.random.default_rng(2022)


@pytest.fixture(autouse=True)
def bench_tracer(request):
    """Trace every benchmark test and write its manifest next to the
    series evidence.

    The manifest (``MANIFEST_<slug>.json``) records the per-stage wall
    times and pipeline counters of everything the test decoded, which is
    what ``check_trend.py --stage`` gates on. Tests that never touch an
    instrumented path leave no spans and no manifest. The manifest is
    the end-of-test aggregate: a sweep decodes hundreds of times under
    one tracer, and nothing else builds manifests.
    """
    from repro.observability import Tracer, build_manifest, use_tracer

    tracer = Tracer()
    tracer.context["nodeid"] = request.node.nodeid
    tracer.context["bench_seed"] = 2022
    with use_tracer(tracer):
        yield tracer
    if not tracer.roots:
        return
    OUT_DIR.mkdir(exist_ok=True)
    manifest = build_manifest(tracer, request.node.nodeid)
    manifest.save(OUT_DIR / f"MANIFEST_{_slugify(request.node.nodeid)}.json")
