"""The package's names: exports resolve, traced names exist, no dead imports.

A deletion that leaves a stale ``__all__`` entry, a benchmark target that
no longer resolves, or an import nothing uses fails here rather than in
a traced benchmark run.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import expsum

SRC = Path(expsum.__file__).resolve().parent
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# the submodules; __init__ is not one, and it imports names only to re-export them
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(SRC)]))


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(target: str):
    module, _, name = target.partition(".")
    return getattr(importlib.import_module(f"expsum.{module}"), name)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"expsum.{module}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert missing == [], module


def test_benchmark_targets_resolve_and_caches_report():
    wl = _workloads()
    for target in wl.TARGETS:
        assert callable(_resolve(target)), target
    for target in wl.CACHED:
        assert hasattr(_resolve(target), "cache_info"), target


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    assert _unused_imports((SRC / f"{module}.py").read_text()) == [], module


def test_unused_import_scan_sees_a_dead_import():
    assert _unused_imports("import math\nimport os\nos.getcwd()\n") == ["math (line 1)"]
    assert _unused_imports("from a import b as c\n__all__ = ['c']\n") == []


def _imported_modules(source: str) -> set[str]:
    tree = ast.parse(source)
    mods = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    return mods | {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module}


def test_parallelism_is_processes_and_the_two_fft_pool_only():
    # --jobs runs in forked processes, so no module needs threading or a
    # lock; concurrent.futures serves families' process pool and the
    # two-FFT thread pool of voronoi._build_grid
    users = {}
    for path in sorted(SRC.glob("*.py")):
        mods = _imported_modules(path.read_text())
        assert "threading" not in mods, path.name
        if any(m.startswith("concurrent") for m in mods):
            users[path.stem] = sorted(m for m in mods if m.startswith("concurrent"))
    assert users == {"families": ["concurrent.futures"], "voronoi": ["concurrent.futures"]}
