"""Run one workload in this fresh interpreter and print its record as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  The
record's ``t_first`` is CLOCK_MONOTONIC at the first timed call, so the
parent can take set-up time from the moment it launched this process.
With --setup-only it stops there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import workloads


def _run_op(kind: str, arg, verify, cli) -> dict:
    rec: dict = {"kind": kind}
    if kind == "criterion":
        rec["key"] = f"verify.{arg}"
        clock = time.thread_time  # excludes BLAS helper threads, as per criterion
        fn = getattr(verify, f"criterion_{arg}")
    else:
        rec["key"] = workloads.scan_key(arg)
        rec["subcommand"] = arg[0]
        clock = time.process_time  # all threads: shows whether --jobs works
    w0, c0 = time.perf_counter(), clock()
    try:
        if kind == "criterion":
            res = fn(False)
            rec.update(passed=bool(res.passed), details=res.details)
        else:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rec["code"] = cli.main(list(arg))
    except Exception as exc:  # an operation that raises is a failed operation
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["wall_s"] = time.perf_counter() - w0
    rec["cpu_s"] = clock() - c0
    if kind == "scan":
        rec["sha256"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import expsum.cli as cli
    import expsum.verify as verify

    ops = workloads.operations(args.workload, args.seed)
    tracer = cells = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer("expsum")
        cells = workloads.VoronoiCells()
        tracer.observe("voronoi.voronoi_residual", cells)
        tracer.install(workloads.TARGETS)

    t_first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_first": t_first}))
        return 0
    w0, c0 = time.perf_counter(), time.process_time()
    records = [_run_op(kind, arg, verify, cli) for kind, arg in ops]
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "t_first": t_first,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "ops": records,
    }
    if tracer is not None:
        tracer.uninstall()
        op_times: dict[str, tuple[float, float]] = {}
        for rec in records:
            layer = rec["key"] if rec["kind"] == "criterion" else f"cli.{rec['subcommand']}"
            w, c = op_times.get(layer, (0.0, 0.0))
            op_times[layer] = (w + rec["wall_s"], c + rec["cpu_s"])
        out["layers"] = workloads.layer_metrics(tracer, cells, op_times)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
