"""Gate-partition benchmark for expsum: one workload, one seed, one result line.

    python3 perfbench/run.py --workload kl-tables --seed 1 --seconds 15 --trace 0

Run from anywhere; it measures the source tree that holds this directory
(``src/expsum``) and fails with exit code 2 if there is none.  Each
repetition of the workload runs in a fresh interpreter, because users pay
every table and kernel build on each invocation.  Repetitions continue
until --seconds of measured time have passed (at least one), and
set-up-only launches top the set-up samples up to SETUP_SAMPLES.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
repetitions); --trace 1 runs once with spans installed and reports the
per-layer metrics.  Every operation -- one gate criterion or one CLI
scan -- is checked against golden.json; a mismatch counts as failed.
The last line of stdout is the JSON result; a human-readable summary
and the machine record go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
BUDGET_S = 150  # start no repetition that could end after this


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_child(workload: str, seed: int, trace: int, setup_only: bool = False) -> dict:
    """One fresh interpreter; its record plus ``setup_s`` measured from launch."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["t_first"] - t_launch
    return rec


def op_failure(rec: dict, golden: dict) -> str | None:
    """Why an operation failed, or None if it matches its golden copy."""
    if "error" in rec:
        return f"raised {rec['error']}"
    if rec["kind"] == "criterion":
        want = golden["criteria"].get(rec["key"])
        if not rec["passed"]:
            return "passed=False"
        if want is None or rec["details"] != want["details"]:
            return f"details differ from golden: {rec['details']!r}"
        return None
    if rec["code"] != 0:
        return f"exit code {rec['code']}"
    if rec["sha256"] != golden["scans"].get(rec["key"]):
        return "output differs from golden"
    return None


def machine() -> dict:
    """Where the numbers were taken: cores, versions, BLAS, source revision."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev, dirty = "unknown", None

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=10, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() == ROOT:
            rev = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        pass  # a checkout without git history
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_rev": rev,
        "tracked_files_modified": dirty,
    }


def _blas_threads() -> int | None:
    """OpenBLAS's thread limit, asked of the library numpy has loaded."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run and check the workload; main() prints the result line from this."""
    if not (ROOT / "src" / "expsum" / "__init__.py").is_file():
        raise BenchError(f"no expsum source tree under {ROOT}")
    golden = json.loads(GOLDEN.read_text())
    t_start = time.monotonic()
    reps: list[dict] = []
    while True:
        reps.append(run_child(workload, seed, trace))
        measured = sum(r["wall_s"] for r in reps)
        elapsed = time.monotonic() - t_start
        if trace or measured >= seconds or elapsed + elapsed / len(reps) > BUDGET_S:
            break
    setups = [r["setup_s"] for r in reps]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, 0, setup_only=True)["setup_s"])

    ops = [op for r in reps for op in r["ops"]]
    failures = [(op["key"], why) for op in ops if (why := op_failure(op, golden))]
    if trace:
        from workloads import PER_LAYER

        units = dict(PER_LAYER)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in reps[0]["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in reps), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in reps), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ok_share": {"value": 1.0 - len(failures) / len(ops), "unit": "ratio"},
        }
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures,
        "repetitions": len(reps),
        "wall_s_runs": [r["wall_s"] for r in reps],
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace)
        info = machine()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"machine {json.dumps(info)}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {res['repetitions']} "
          f"repetition(s), {res['attempted']} operations, failed_share "
          f"{res['failed'] / res['attempted']:.4f}", file=sys.stderr)
    for key, why in res["failures"]:
        print(f"  FAILED {key}: {why}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
