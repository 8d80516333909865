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
service module reads another object's private attributes. scipy is
imported only inside the functions that call it, so importing ``repro``
loads none of it. Every definition in the package has a caller outside
``tests/``: code that only tests reach is deleted or, when a test uses
it as a reference, moved into ``tests/oracles/``.
"""

import ast
import importlib
import pkgutil
from collections import Counter
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


def _module_level_imports(tree):
    """Import statements that run when the module is imported: those
    outside any function body (class bodies and top-level ``if``/``try``
    blocks included)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _module_level_imports(node)


def _scipy_imports(source, where):
    for node in _module_level_imports(ast.parse(source)):
        names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                 else [alias.name for alias in node.names])
        for name in names:
            if name.split(".")[0] == "scipy":
                yield f"{where}:{node.lineno} imports {name} at module level"


def test_scipy_import_scan_skips_function_bodies():
    source = (
        "import scipy\n"
        "from scipy.signal import lfilter\n"
        "try:\n"
        "    import scipy.fft as fft\n"
        "except ImportError:\n"
        "    pass\n"
        "class A:\n"
        "    from scipy import ndimage\n"
        "def f():\n"
        "    from scipy import ndimage\n"
        "    return ndimage\n"
    )
    assert [problem.split(" ", 1)[1]
            for problem in _scipy_imports(source, "x")] == [
        "imports scipy at module level",
        "imports scipy.signal at module level",
        "imports scipy.fft at module level",
        "imports scipy at module level",
    ]


def test_no_module_level_scipy_import_in_package():
    """scipy serves only posterior consensus and the JPEG/image helpers;
    each imports it on first use, so a storage process never loads it
    (``tests/integration/test_storage_without_scipy.py`` runs one)."""
    problems = [problem for path in sorted(SRC.rglob("*.py"))
                for problem in _scipy_imports(path.read_text(),
                                              path.relative_to(ROOT))]
    assert problems == []


#: Trees whose code counts as a caller. ``tests/`` does not: a definition
#: only tests reach is not part of the system.
CALLER_TREES = ("src/repro", "benchmarks", "perfbench", "examples")

#: Definitions with no caller outside ``tests/``, each with the reason it
#: stays. The list may only shrink: the scan fails on an entry that is
#: referenced again or no longer defined.
UNREFERENCED = {
    "ErrorModel.apply": "one strand's string form of apply_indices; the "
                        "channel, primer and clustering tests draw noisy "
                        "reads with it",
    "ReadBatch.read_string": "one read as a base string; tests compare "
                             "batch contents with strings through it",
    "EventLog.load_jsonl": "parses the file EventLog.save writes; the "
                           "event, service and CLI tests read logs back "
                           "with it",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _covered_definitions(sources):
    """``(qualified, name)`` of every top-level function or class, and of
    every method whose name is defined once across ``sources`` (a map of
    path to source). Dunder methods are skipped."""
    definitions = []
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
                definitions.append((node.name, node.name, False))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{node.name}.{item.name}", item.name, True)
                                for item in node.body
                                if isinstance(item, _FUNCTIONS)]
    counts = Counter(name for _, name, _ in definitions)
    return [(qualified, name) for qualified, name, method in definitions
            if not (name.startswith("__") and name.endswith("__"))
            and (not method or counts[name] == 1)]


def _not_references(tree):
    """Nodes whose names do not count: docstrings and ``__all__`` lists."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef) + _FUNCTIONS) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant):
            skipped.add(id(node.body[0].value))
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            skipped.update(id(sub) for sub in ast.walk(node.value))
    return skipped


def _referenced_names(sources):
    """Every name ``sources`` reference: ``Name`` nodes, attributes,
    imported names (except re-exports in a package ``__init__.py``) and
    string constants."""
    names = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        skipped = _not_references(tree)
        package_init = Path(path).name == "__init__.py"
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias) and not package_init:
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                names.add(node.value)
    return names


def _unreferenced(defining, referencing):
    """Covered definitions of ``defining`` that nothing in ``referencing``
    names, as sorted qualified names."""
    names = _referenced_names(referencing)
    return sorted(qualified
                  for qualified, name in _covered_definitions(defining)
                  if name not in names)


def _sources(*trees):
    return {str(path.relative_to(ROOT)): path.read_text()
            for top in trees for path in sorted((ROOT / top).rglob("*.py"))}


def test_definition_scan_flags_a_planted_function():
    module = (
        '"""planted is named in this docstring."""\n'
        "def planted():\n"
        "    return 1  # planted\n"
        "def used():\n"
        "    return 2\n"
        "def by_name():\n"
        "    return 3\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return used()\n"
        "    def unique(self):\n"
        "        return getattr(self, 'by_name')\n"
        "    def shared(self):\n"
        "        return None\n"
        "class Other:\n"
        "    def shared(self):\n"
        "        return Box()\n"
    )
    package = (
        "from repro.pkg.mod import planted\n"
        "__all__ = ['planted']\n"
    )
    sources = {"src/repro/pkg/__init__.py": package,
               "src/repro/pkg/mod.py": module}
    assert _unreferenced(sources, sources) == [
        "Box.unique", "Other", "planted",
    ]
    caller = {"examples/demo.py": "from repro.pkg.mod import planted\n"}
    assert "planted" not in _unreferenced(sources, {**sources, **caller})


def test_every_definition_has_a_caller():
    """Each top-level function or class in ``src/repro``, and each method
    whose name is defined once there, is named by code under
    ``CALLER_TREES``, or listed in ``UNREFERENCED`` with its reason."""
    referencing = _sources(*CALLER_TREES)
    assert {"perfbench/run.py", "examples/random_access.py",
            "benchmarks/conftest.py"} <= set(referencing)
    unreferenced = _unreferenced(_sources("src/repro"), referencing)
    assert [name for name in unreferenced if name not in UNREFERENCED] == []
    assert [name for name in UNREFERENCED if name not in unreferenced] == []
