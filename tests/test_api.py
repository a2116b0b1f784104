"""The package's names: exports resolve, traced names exist, no dead imports.

A deletion that leaves a stale ``__all__`` entry, a benchmark target that
no longer resolves, or an import nothing uses fails here rather than in
a traced benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
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


def _sibling_imports(source: str) -> set[tuple[str, str]]:
    """(sibling, name) for each name a module imports by a relative import."""
    return {(n.module, a.name) for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.ImportFrom) and n.level == 1 for a in n.names}


def test_every_name_imported_from_a_sibling_is_in_its_all():
    # a name that another module imports is part of its module's interface
    assert (_sibling_imports("from .a import b, c as d\nfrom x import y\n")
            == {("a", "b"), ("a", "c")})
    outside = sorted(f"{path.stem} imports {mod}.{name}" for path in sorted(SRC.glob("*.py"))
                     for mod, name in _sibling_imports(path.read_text())
                     if name not in importlib.import_module(f"expsum.{mod}").__all__)
    assert outside == []


def _imported_modules(source: str) -> set[str]:
    tree = ast.parse(source)
    mods = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    return mods | {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module}


def test_parallelism_is_processes_only():
    # --jobs runs in forked processes, so no module needs threading or a
    # lock; concurrent.futures serves families' process pool alone (and
    # voronoi._grid runs its moment FFTs on one scipy.fft worker)
    users = {}
    for path in sorted(SRC.glob("*.py")):
        mods = _imported_modules(path.read_text())
        assert "threading" not in mods, path.name
        if any(m.startswith("concurrent") for m in mods):
            users[path.stem] = sorted(m for m in mods if m.startswith("concurrent"))
    assert users == {"families": ["concurrent.futures"]}


def _lru_caches(source: str) -> int:
    """Uses of lru_cache, as a decorator or a call, and of functools.cache."""
    return sum((isinstance(n, ast.Name) and n.id == "lru_cache")
               or (isinstance(n, ast.Attribute) and n.attr in ("lru_cache", "cache"))
               for n in ast.walk(ast.parse(source)))


def test_lru_caches_do_not_grow():
    # every memo of the package is in the memo store (memo.stored), and none
    # may be added beside it
    assert _lru_caches("@lru_cache(maxsize=2)\ndef f(): pass\n"
                       "g = functools.cache(f)\nfrom functools import lru_cache\n") == 2
    assert sum(_lru_caches(p.read_text()) for p in SRC.glob("*.py")) == 0


def _bound_reports(source: str) -> int:
    """Calls that build a BoundReport, by its name or as an attribute."""
    return sum(isinstance(n, ast.Call)
               and ((isinstance(n.func, ast.Name) and n.func.id == "BoundReport")
                    or (isinstance(n.func, ast.Attribute) and n.func.attr == "BoundReport"))
               for n in ast.walk(ast.parse(source)))


def test_bound_reports_are_built_in_charsums_alone():
    # a BoundReport is one correlation sum against its bound; a scan's
    # maxima and where they fall travel in rows, not in a report's fields
    assert _bound_reports("BoundReport(1j, 2.0)\nx = expsums.BoundReport(0j, 1.0)\n"
                          "BoundReport\nf(BoundReport)\n") == 2
    built = {p.stem for p in SRC.glob("*.py") if _bound_reports(p.read_text())}
    assert built == {"charsums"}



def _named_functions(path: Path) -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every function defined in a module."""
    out = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        for const in todo.pop().co_consts:
            if isinstance(const, types.CodeType):
                todo.append(const)
                # a class body is not a function, nor is a lambda or a comprehension
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    out[(str(path), const.co_firstlineno)] = f"{path.stem}.{const.co_qualname}"
    return out


# the CLI's paths, run in one fresh interpreter under a profile hook set
# before expsum is imported: the quick gate with its self-test, one small
# call of each subcommand and a --jobs 2 run; it prints
# (file, first line) of every code object called
_REACH = """
import json, sys
calls = {}
sys.setprofile(lambda frame, event, arg: event == "call"
               and calls.setdefault(id(frame.f_code), frame.f_code))
from expsum.cli import main
runs = [
    ["verify-all", "--quick", "--self-test"],
    ["kloosterman", "--q", "6"], ["hyperkl3", "--q", "6"],
    ["charsum-pp", "--p", "3", "--gamma-max", "2"], ["charsum-prime", "--p", "5"],
    ["df", "--p", "3", "--gamma-max", "2"], ["calC", "--q", "2..12"],
    ["glue", "--q", "30"], ["voronoi", "--q", "3", "--X", "50"],
    ["bilinear", "--q", "27", "--N", "2"], ["distribution", "--q", "3,4", "--X", "1000"],
    ["kloosterman", "--q", "5,7", "--jobs", "2"],
]
codes = [main(argv) for argv in runs]
sys.setprofile(None)
assert codes == [0] * len(runs), codes
print(json.dumps([[c.co_filename, c.co_firstlineno] for c in calls.values()]))
"""

# the bodies that run only in forked --jobs workers, whose profile records
# are lost with the worker: none, as pmap runs its workers' loop inline
_UNREACHED: set[str] = set()


def test_every_function_is_reached_from_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", _REACH], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    reached = {(str(Path(f).resolve()), line) for f, line in calls}
    functions = {}
    for path in sorted(SRC.glob("*.py")):
        functions |= _named_functions(path.resolve())
    unreached = {name for key, name in functions.items() if key not in reached}
    assert unreached == _UNREACHED
