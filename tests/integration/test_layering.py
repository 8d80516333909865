"""The package keeps one live path per layer.

Frozen differential oracles live in ``tests/oracles/``: nothing under
``src/repro`` may define one, steer callers off a deprecated front door,
or reach into the test tree — and every exported name must resolve.
A consensus engine implements one method, ``reconstruct_batch`` (plus
the posterior's ``reconstruct_batch_with_confidence``), so the retired
per-cluster and list entry points may not come back. The serving plane
is a plain client of ``DnaStore.read_many`` and ``DnaStore.check``: the
private read engine, the per-request check helpers, the service's copy
of ``ReadRequest`` and the automatic manifests are gone for good, and no
service module reads another object's private attributes.
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

#: The store's private read engine and check helpers, the service's
#: field-for-field copy of ``ReadRequest``, and automatic manifests —
#: retired in favour of ``DnaStore.read_many``, ``DnaStore.check`` and
#: ``build_manifest``.
RETIRED_READ_PATH = frozenset({
    "_read_many_impl",
    "_emit_manifest",
    "auto_manifest",
    "attach_manifest",
    "_CatalogEntry",
    "check_request",
    "_validate_reads",
    "_validate_pool",
})

RETIRED = RETIRED_ENTRY_POINTS | RETIRED_READ_PATH


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


def _retired_names(path):
    """Definitions (functions, methods, classes), uses (names, attributes,
    imports) and by-name probes (``hasattr(x, "...")``) of a retired
    name. Names must match exactly: ``positional_confidence_profile`` is
    not retired."""
    where = path.relative_to(ROOT)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name in RETIRED:
            yield f"{where}:{node.lineno} defines {node.name}"
        if isinstance(node, ast.Attribute) and node.attr in RETIRED:
            yield f"{where}:{node.lineno} uses .{node.attr}"
        if isinstance(node, ast.Name) and node.id in RETIRED:
            yield f"{where}:{node.lineno} uses {node.id}"
        if isinstance(node, ast.alias) and node.name in RETIRED:
            yield f"{where}:{node.lineno} imports {node.name}"
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and node.value in RETIRED:
            yield f"{where}:{node.lineno} names {node.value}"


def test_no_retired_names():
    paths = [path for top in ("src", "benchmarks", "examples")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert SRC / "consensus" / "base.py" in paths
    assert SRC / "service" / "plane.py" in paths
    assert ROOT / "benchmarks" / "test_ablation_consensus.py" in paths
    assert ROOT / "benchmarks" / "conftest.py" in paths
    problems = [problem for path in paths
                for problem in _retired_names(path)]
    assert problems == []


def _private_reads(source, where):
    """Reads of a ``_``-prefixed attribute off anything but ``self``,
    directly or by ``getattr`` name."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) \
                and node.attr.startswith("_") \
                and not node.attr.startswith("__") \
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "self"):
            yield f"{where}:{node.lineno} reads {_dotted(node)}"
        if isinstance(node, ast.Call) and _dotted(node.func) == "getattr" \
                and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant) \
                and str(node.args[1].value).startswith("_"):
            yield f"{where}:{node.lineno} getattr {node.args[1].value}"


def test_private_read_scan_catches_store_internals():
    source = (
        "def tick(self, store):\n"
        "    self._queue.clear()\n"
        "    self.store._read_many_impl([])\n"
        "    store.pipeline._rs\n"
        "    getattr(self.store, '_emit_manifest')\n"
    )
    assert sorted(problem.split(" ", 1)[1]
                  for problem in _private_reads(source, "x")) == [
        "getattr _emit_manifest",
        "reads self.store._read_many_impl",
        "reads store.pipeline._rs",
    ]


def test_service_reads_no_private_store_attribute():
    """The service uses only the store's public surface: no module under
    ``src/repro/service`` reads a private attribute of a ``DnaStore``
    (or of anything else that is not its own ``self``)."""
    paths = sorted((SRC / "service").rglob("*.py"))
    assert SRC / "service" / "plane.py" in paths
    problems = [problem for path in paths
                for problem in _private_reads(path.read_text(),
                                              path.relative_to(ROOT))]
    assert problems == []
