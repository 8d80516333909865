"""The package keeps one live path per layer.

Frozen differential oracles live in ``tests/oracles/``: nothing under
``src/repro`` may define one, steer callers off a deprecated front door,
or reach into the test tree — and every exported name must resolve.
A consensus engine implements one method, ``reconstruct_batch`` (plus
the posterior's ``reconstruct_batch_with_confidence``), so the retired
per-cluster and list entry points may not come back.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ROOT = SRC.parent.parent

#: Consensus entry points retired in favour of ``reconstruct_batch``.
RETIRED_ENTRY_POINTS = frozenset({
    "reconstruct_indices",
    "reconstruct_many",
    "reconstruct_many_indices",
    "reconstruct_with_confidence",
    "reconstruct_many_with_confidence",
    "positional_confidence",
})


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def _problems(path):
    where = path.relative_to(SRC.parent)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef) and node.name.startswith("Reference"):
            yield f"{where}:{node.lineno} defines oracle class {node.name}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name.endswith("_reference"):
            yield f"{where}:{node.lineno} defines oracle {node.name}()"
        if isinstance(node, ast.Call) \
                and _dotted(node.func).split(".")[-1] == "warn" \
                and any(_dotted(arg).endswith("DeprecationWarning")
                        for arg in node.args
                        + [kw.value for kw in node.keywords]):
            yield f"{where}:{node.lineno} warns DeprecationWarning"
        modules = []
        if isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        for module in modules:
            if module.split(".")[0] in ("tests", "oracles"):
                yield f"{where}:{node.lineno} imports test code ({module})"


def test_no_oracles_or_deprecated_front_doors_in_package():
    problems = [problem for path in sorted(SRC.rglob("*.py"))
                for problem in _problems(path)]
    assert problems == []


def test_every_exported_name_resolves():
    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    missing = [
        f"{package.__name__}.{name}"
        for package in packages
        for name in getattr(package, "__all__", ())
        if not hasattr(package, name)
    ]
    assert missing == []


def _retired_entry_points(path):
    """Definitions (in ``src/repro`` classes), calls and by-name probes
    (``hasattr(x, "...")``) of a retired entry point. Names must match
    exactly: ``positional_confidence_profile`` is not retired."""
    where = path.relative_to(ROOT)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef) and path.is_relative_to(SRC):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and item.name in RETIRED_ENTRY_POINTS:
                    yield f"{where}:{item.lineno} defines " \
                          f"{node.name}.{item.name}"
        if isinstance(node, ast.Call):
            name = _dotted(node.func).split(".")[-1]
            if name in RETIRED_ENTRY_POINTS:
                yield f"{where}:{node.lineno} calls {name}"
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and node.value in RETIRED_ENTRY_POINTS:
            yield f"{where}:{node.lineno} names {node.value}"


def test_no_retired_consensus_entry_points():
    paths = [path for top in ("src", "benchmarks", "examples")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert SRC / "consensus" / "base.py" in paths
    assert ROOT / "benchmarks" / "test_ablation_consensus.py" in paths
    problems = [problem for path in paths
                for problem in _retired_entry_points(path)]
    assert problems == []
