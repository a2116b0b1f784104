"""Tests of the benchmark's own code: spans, wrappers, golden checks, names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import workloads
from run import op_failure
from spans import Tracer, covered_length

HERE = Path(__file__).resolve().parent

FAKE_A = """
import threading
from functools import lru_cache

import numpy as np

GATE = threading.Barrier(2, timeout=10)


class Clock:
    now = 0.0


def tick(n):
    Clock.now += n


def leaf():
    tick(5)


def inner():
    tick(3)
    leaf()


def outer():
    tick(1)
    inner()
    tick(2)
    inner()
    tick(1)


def nap():
    GATE.wait()  # both workers are inside nap at once


@lru_cache(maxsize=2)
def table(q):
    return np.zeros(q)
"""

FAKE_B = """
from concurrent.futures import ThreadPoolExecutor

from .a import leaf, table


def use_tables(qs):
    return [table(q) for q in qs]


def fan_out(fn, n):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda _: fn(), range(n)))
"""


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(textwrap.dedent(FAKE_A))
    (pkg / "b.py").write_text(textwrap.dedent(FAKE_B))
    monkeypatch.syspath_prepend(str(tmp_path))
    a = importlib.import_module("fakepkg.a")
    b = importlib.import_module("fakepkg.b")
    yield a, b
    for name in [n for n in sys.modules if n.split(".")[0] == "fakepkg"]:
        del sys.modules[name]


def test_self_time_on_nested_call_tree(fakepkg):
    a, _ = fakepkg
    tracer = Tracer("fakepkg", clock=lambda: a.Clock.now)
    with tracer:
        tracer.install(["a.outer", "a.inner", "a.leaf"])
        a.outer()
    # outer spans 1+8+2+8+1 = 20; each inner spans 3+5; each leaf 5
    assert tracer.calls == {"a.outer": 1, "a.inner": 2, "a.leaf": 2}
    assert tracer.self_s == {"a.outer": 4.0, "a.inner": 6.0, "a.leaf": 10.0}
    assert sum(tracer.self_s.values()) == 20.0


def test_covered_length_counts_overlap_once():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_install_patches_every_binding_and_uninstall_restores(fakepkg):
    a, b = fakepkg
    originals = {"table": a.table, "leaf": a.leaf, "pool": b.ThreadPoolExecutor}
    tracer = Tracer("fakepkg")
    tracer.install(["a.table", "a.leaf"])
    assert a.table is b.table and a.table is not originals["table"]
    assert a.leaf is b.leaf and a.leaf is not originals["leaf"]
    assert b.ThreadPoolExecutor is not ThreadPoolExecutor
    b.use_tables([3, 4, 4, 5, 3])  # called from inside module b; 5 evicts 3
    assert tracer.calls["a.table"] == 4  # a cached target spans its builds only
    assert (tracer.builds("a.table"), tracer.hits("a.table")) == (4, 1)
    assert tracer.bytes_built["a.table"] == 8 * (3 + 4 + 5 + 3)
    assert a.table.cache_info().misses == 4
    tracer.uninstall()
    assert a.table is originals["table"] and b.table is originals["table"]
    assert a.leaf is originals["leaf"] and b.leaf is originals["leaf"]
    assert b.ThreadPoolExecutor is ThreadPoolExecutor
    b.use_tables([3])
    a.leaf()
    assert tracer.calls["a.table"] == 4 and tracer.calls["a.leaf"] == 0


class ScriptedClock:
    """Each thread reads its own two instants in turn: the main thread
    (0, 10), every other thread (1, 4)."""

    def __init__(self) -> None:
        self.main = threading.main_thread()
        self.local = threading.local()

    def __call__(self) -> float:
        n = getattr(self.local, "n", 0)
        self.local.n = n + 1
        times = (0.0, 10.0) if threading.current_thread() is self.main else (1.0, 4.0)
        return times[n % 2]


def test_pool_work_is_adopted_by_the_submitting_span(fakepkg):
    a, b = fakepkg
    with Tracer("fakepkg", clock=ScriptedClock()) as tracer:
        tracer.install(["a.nap", "b.fan_out"])
        b.fan_out(a.nap, 2)
    assert tracer.calls == {"a.nap": 2, "b.fan_out": 1}
    # the two naps, [1, 4] each on its own worker, overlap: fan_out's
    # children cover 3 of its 10, not 6
    assert tracer.self_s == {"a.nap": 6.0, "b.fan_out": 7.0}


def test_golden_comparison_flags_changed_details():
    golden = {
        "criteria": {"verify.df": {"passed": True, "details": "1300 pairs; max 3.9"}},
        "scans": {"df --p 3 --jobs 2": "ab" * 32},
    }
    rec = {"kind": "criterion", "key": "verify.df", "passed": True,
           "details": "1300 pairs; max 3.9"}
    assert op_failure(rec, golden) is None
    assert "details differ" in op_failure(dict(rec, details="1300 pairs; max 4.0"), golden)
    assert op_failure(dict(rec, passed=False), golden) == "passed=False"
    assert "raised" in op_failure(dict(rec, error="ValueError: x"), golden)
    scan = {"kind": "scan", "key": "df --p 3 --jobs 2", "code": 0, "sha256": "ab" * 32}
    assert op_failure(scan, golden) is None
    assert op_failure(dict(scan, sha256="cd" * 32), golden) == "output differs from golden"
    assert op_failure(dict(scan, code=1), golden) == "exit code 1"


def test_names_match_benchmark_json_and_golden():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == workloads.WORKLOADS
    golden = json.loads((HERE / "golden.json").read_text())
    assert set(golden["criteria"]) == {f"verify.{c}" for c in workloads.ALL_CRITERIA}
    for argv in workloads.scan_variants():
        assert workloads.scan_key(argv + ["--jobs", str(workloads.SCAN_JOBS)]) in golden["scans"]


def test_scan_mix_is_drawn_from_the_seed():
    assert workloads.scan_mix(3) == workloads.scan_mix(3)
    assert workloads.scan_mix(3) != workloads.scan_mix(4)
    subs = sorted(argv[0] for argv in workloads.scan_mix(3))
    assert subs == sorted(workloads.SCAN_SUBCOMMANDS * 2)


def test_criteria_partition_the_gate():
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        from expsum.verify import ALL_CHECKS
    finally:
        sys.path.remove(str(HERE.parent / "src"))
    gate = [f.__name__.removeprefix("criterion_") for f in ALL_CHECKS]
    assert sorted(workloads.ALL_CRITERIA) == sorted(gate)
    for names in workloads.CRITERIA.values():
        assert names == [g for g in gate if g in names]  # canonical order
