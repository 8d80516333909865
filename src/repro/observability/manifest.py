"""Machine-checkable run manifests: the evidence a traced run leaves.

A :class:`RunManifest` captures everything needed to compare two runs of
the decode pipeline without re-running either: a config fingerprint (and
the config values behind it), the caller's seed/context notes, the
aggregated per-stage wall times, the full span tree (truncated for very
long runs), a metric snapshot, and environment info. Manifests are
serialized as schema-versioned JSON; :func:`validate_manifest` is the
machine check — ``benchmarks/check_trend.py --stage`` and the
``repro.cli report`` differ both consume validated manifests.

The store plane emits one manifest per ``DnaStore.read`` /
``read_many`` call when a tracer is active; ``benchmarks/conftest.py``
writes one per figure run next to the ``BENCH_*.json`` evidence.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Bump on any breaking change to the manifest layout; the validator
#: rejects other versions so downstream tooling never misreads a field.
SCHEMA_VERSION = 1

#: Root spans kept verbatim in the manifest's span tree. Benchmark runs
#: decode hundreds of times; their evidence is the aggregated ``stages``
#: table, so the tree is capped and the cut recorded in
#: ``truncated_roots``.
DEFAULT_MAX_ROOT_SPANS = 25


class ManifestError(ValueError):
    """A manifest failed schema validation; ``problems`` lists why."""

    def __init__(self, problems: List[str]) -> None:
        self.problems = list(problems)
        super().__init__(
            "invalid run manifest: " + "; ".join(self.problems)
        )


def config_fingerprint(config) -> str:
    """Stable hex fingerprint of a configuration object.

    Accepts a dataclass (e.g. :class:`~repro.core.pipeline.
    PipelineConfig`), a mapping, or anything JSON-serializable after
    ``repr`` fallback; equal configs always hash equal, so manifests of
    comparable runs carry comparable fingerprints.
    """
    values = _config_values(config)
    blob = json.dumps(values, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _config_values(config) -> dict:
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    if isinstance(config, dict):
        return dict(config)
    return {"repr": repr(config)}


def environment_info() -> dict:
    """The environment block every manifest carries."""
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


@dataclass
class RunManifest:
    """One traced run, ready to serialize, validate, render and diff.

    Attributes:
        name: what ran (``"store.read"``, a pytest node id...).
        config: ``{"fingerprint": ..., "values": {...}}``.
        context: caller notes — RNG seeds, payload sizes, scenario knobs.
        stages: aggregated ``{span name: {"seconds", "calls"}}``.
        total_seconds: summed root-span wall time.
        spans: root span trees (possibly truncated, see
            ``truncated_roots``).
        metrics: the registry snapshot
            (``{"counters", "gauges", "histograms"}``).
        environment: python/numpy/platform versions.
    """

    name: str
    config: dict = field(default_factory=lambda: {"fingerprint": "",
                                                  "values": {}})
    context: dict = field(default_factory=dict)
    stages: Dict[str, dict] = field(default_factory=dict)
    total_seconds: float = 0.0
    spans: List[dict] = field(default_factory=list)
    truncated_roots: int = 0
    metrics: dict = field(default_factory=lambda: {
        "counters": {}, "gauges": {}, "histograms": {}, "timings": {},
    })
    environment: dict = field(default_factory=environment_info)
    schema: int = SCHEMA_VERSION

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "name": self.name,
            "config": self.config,
            "context": self.context,
            "stages": self.stages,
            "total_seconds": self.total_seconds,
            "spans": self.spans,
            "truncated_roots": self.truncated_roots,
            "metrics": self.metrics,
            "environment": self.environment,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        validate_manifest(data)
        return cls(
            name=data["name"],
            config=data["config"],
            context=data.get("context", {}),
            stages=data["stages"],
            total_seconds=data["total_seconds"],
            spans=data.get("spans", []),
            truncated_roots=data.get("truncated_roots", 0),
            metrics=data["metrics"],
            environment=data["environment"],
            schema=data["schema"],
        )

    @classmethod
    def load(cls, path) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- convenience accessors ----------------------------------------------

    def stage_seconds(self, name: str) -> float:
        return float(self.stages.get(name, {}).get("seconds", 0.0))

    def stage_share(self, name: str) -> float:
        """The stage's fraction of the run's total traced wall time."""
        if self.total_seconds <= 0:
            return 0.0
        return self.stage_seconds(name) / self.total_seconds

    def counter(self, name: str, default=0):
        return self.metrics.get("counters", {}).get(name, default)

    def histogram(self, name: str) -> dict:
        return self.metrics.get("histograms", {}).get(name, {})


def build_manifest(
    tracer,
    name: str,
    config=None,
    context: Optional[dict] = None,
    max_root_spans: int = DEFAULT_MAX_ROOT_SPANS,
) -> RunManifest:
    """Snapshot a :class:`~repro.observability.trace.Tracer` into a
    validated :class:`RunManifest`.

    ``config`` is fingerprinted via :func:`config_fingerprint`;
    ``context`` merges over the tracer's own ``context`` dict (where
    callers park RNG seeds). The span tree keeps at most
    ``max_root_spans`` roots — the aggregated ``stages`` table always
    covers every span regardless.
    """
    merged_context = dict(getattr(tracer, "context", {}))
    if context:
        merged_context.update(context)
    config_block = {"fingerprint": "", "values": {}}
    if config is not None:
        config_block = {
            "fingerprint": config_fingerprint(config),
            "values": _jsonable(_config_values(config)),
        }
    roots = list(getattr(tracer, "roots", []))
    kept = roots[:max_root_spans]
    manifest = RunManifest(
        name=name,
        config=config_block,
        context=_jsonable(merged_context),
        stages=tracer.stage_totals(),
        total_seconds=tracer.total_seconds(),
        spans=[root.to_dict() for root in kept],
        truncated_roots=len(roots) - len(kept),
        metrics=tracer.metrics.snapshot(),
    )
    validate_manifest(manifest.to_dict())
    return manifest


def _jsonable(value):
    """Round-trip through JSON semantics (numpy scalars -> plain types)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (AttributeError, ValueError):
            pass
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


# -- the validator -----------------------------------------------------------

def _check(problems, condition, message) -> bool:
    if not condition:
        problems.append(message)
    return bool(condition)


def _validate_span(problems, span, where) -> None:
    if not _check(problems, isinstance(span, dict), f"{where}: not a dict"):
        return
    _check(problems, isinstance(span.get("name"), str) and span.get("name"),
           f"{where}: missing span name")
    seconds = span.get("seconds")
    _check(problems, isinstance(seconds, (int, float)) and seconds >= 0,
           f"{where}: seconds must be a non-negative number")
    _check(problems, isinstance(span.get("attributes", {}), dict),
           f"{where}: attributes must be a dict")
    children = span.get("children", [])
    if _check(problems, isinstance(children, list),
              f"{where}: children must be a list"):
        for i, child in enumerate(children):
            _validate_span(problems, child, f"{where}.children[{i}]")


def validate_manifest(data: dict) -> dict:
    """Validate a manifest dict against the schema; raise
    :class:`ManifestError` listing every problem, else return ``data``.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        raise ManifestError(["manifest must be a JSON object"])
    if not _check(problems, data.get("schema") == SCHEMA_VERSION,
                  f"schema must be {SCHEMA_VERSION}, "
                  f"got {data.get('schema')!r}"):
        raise ManifestError(problems)

    _check(problems, isinstance(data.get("name"), str) and data.get("name"),
           "name must be a non-empty string")

    config = data.get("config")
    if _check(problems, isinstance(config, dict), "config must be a dict"):
        _check(problems, isinstance(config.get("fingerprint"), str),
               "config.fingerprint must be a string")
        _check(problems, isinstance(config.get("values"), dict),
               "config.values must be a dict")

    _check(problems, isinstance(data.get("context", {}), dict),
           "context must be a dict")

    stages = data.get("stages")
    if _check(problems, isinstance(stages, dict), "stages must be a dict"):
        for name, entry in stages.items():
            where = f"stages[{name!r}]"
            if not _check(problems, isinstance(entry, dict),
                          f"{where}: not a dict"):
                continue
            seconds = entry.get("seconds")
            _check(problems,
                   isinstance(seconds, (int, float)) and seconds >= 0,
                   f"{where}: seconds must be a non-negative number")
            calls = entry.get("calls")
            _check(problems, isinstance(calls, int) and calls >= 1,
                   f"{where}: calls must be a positive integer")

    total = data.get("total_seconds")
    _check(problems, isinstance(total, (int, float)) and total >= 0,
           "total_seconds must be a non-negative number")

    spans = data.get("spans", [])
    if _check(problems, isinstance(spans, list), "spans must be a list"):
        for i, span in enumerate(spans):
            _validate_span(problems, span, f"spans[{i}]")
    truncated = data.get("truncated_roots", 0)
    _check(problems, isinstance(truncated, int) and truncated >= 0,
           "truncated_roots must be a non-negative integer")

    metrics = data.get("metrics")
    if _check(problems, isinstance(metrics, dict), "metrics must be a dict"):
        for kind in ("counters", "gauges", "histograms"):
            block = metrics.get(kind)
            if not _check(problems, isinstance(block, dict),
                          f"metrics.{kind} must be a dict"):
                continue
            for name, value in block.items():
                where = f"metrics.{kind}[{name!r}]"
                if kind == "histograms":
                    ok = isinstance(value, dict) and all(
                        isinstance(v, int) for v in value.values()
                    )
                    _check(problems, ok,
                           f"{where}: must map labels to integer counts")
                else:
                    _check(problems, isinstance(value, (int, float)),
                           f"{where}: must be a number")
        # The timing-histogram block is optional (older manifests
        # predate it) but must be well-formed when present.
        timings = metrics.get("timings") if isinstance(metrics, dict) \
            else None
        if timings is not None and _check(
            problems, isinstance(timings, dict),
            "metrics.timings must be a dict",
        ):
            for name, entry in timings.items():
                where = f"metrics.timings[{name!r}]"
                if not _check(problems, isinstance(entry, dict),
                              f"{where}: not a dict"):
                    continue
                count = entry.get("count")
                _check(problems, isinstance(count, int) and count >= 0,
                       f"{where}: count must be a non-negative integer")
                _check(problems,
                       isinstance(entry.get("sum"), (int, float)),
                       f"{where}: sum must be a number")
                buckets = entry.get("buckets", {})
                ok = isinstance(buckets, dict) and all(
                    isinstance(v, int) for v in buckets.values()
                )
                _check(problems, ok,
                       f"{where}: buckets must map boundaries to "
                       "integer counts")

    env = data.get("environment")
    if _check(problems, isinstance(env, dict),
              "environment must be a dict"):
        for key in ("python", "numpy", "platform"):
            _check(problems, isinstance(env.get(key), str),
                   f"environment.{key} must be a string")

    if problems:
        raise ManifestError(problems)
    return data
