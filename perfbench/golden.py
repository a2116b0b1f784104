"""Record the golden outputs every benchmark operation is checked against.

    python3 perfbench/golden.py            # rewrite perfbench/golden.json

For each gate criterion: its ``passed`` flag and ``details`` string.  For
each CLI scan in the pool: the sha256 of its stdout at ``--jobs`` =
SCAN_JOBS.  Each scan's seconds go to stderr, which shows whether the
pool's variants cost about the same.  Rewrite the file only when an output is
meant to change: a speed-up must leave every byte identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def record() -> dict:
    import expsum.cli as cli
    import expsum.verify as verify

    criteria = {}
    for name in workloads.ALL_CRITERIA:
        res = getattr(verify, f"criterion_{name}")(False)
        criteria[f"verify.{name}"] = {"passed": res.passed, "details": res.details}
        print(f"{name}: passed={res.passed} {res.elapsed:.2f}s", file=sys.stderr)
    scans = {}
    for argv in workloads.scan_variants():
        argv = argv + ["--jobs", str(workloads.SCAN_JOBS)]
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        key = workloads.scan_key(argv)
        if code != 0:
            raise SystemExit(f"scan {key!r} exited {code}")
        scans[key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(f"{key}: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return {"criteria": criteria, "scans": scans}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    path = HERE / "golden.json"
    path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
