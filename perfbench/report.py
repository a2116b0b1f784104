"""Every workload, untraced and traced, from one command.

    python3 perfbench/report.py [--seed 0] [--seconds 15] [--out FILE]

Prints the end-to-end metrics of each workload with their units, plus
failed_share, the tracing overhead (traced wall_s minus untraced wall_s)
and whether every count of the traced run (builds, hits, calls, Voronoi
terms) repeats exactly in a second traced run with the same seed.
Writes all of it, per-layer metrics and the machine record included, to
--out (default perfbench/results/latest.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import BenchError, machine, measure
from workloads import PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
COUNTS = [name for name, unit in PER_LAYER if unit == "count"]
COLUMNS = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
           ("failed_share", "ratio"), ("trace_overhead_s", "s")]


def report(workload: str, seed: int, seconds: float) -> dict:
    plain = measure(workload, seed, seconds, 0)
    traced = [measure(workload, seed, 0, 1) for _ in range(2)]
    layers = [{k: m["value"] for k, m in t["metrics"].items()} for t in traced]
    end = {k: m["value"] for k, m in plain["metrics"].items()}
    end["failed_share"] = plain["failed"] / plain["attempted"]
    end["trace_overhead_s"] = statistics.median(traced[0]["wall_s_runs"]) - end["wall_s"]
    return {
        "end_to_end": end,
        "attempted": plain["attempted"],
        "failures": plain["failures"] + traced[0]["failures"] + traced[1]["failures"],
        "count_mismatches": [k for k in COUNTS if layers[0][k] != layers[1][k]],
        "per_layer": layers[0],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--out", default=str(HERE / "results" / "latest.json"))
    args = ap.parse_args()
    results = {}
    try:
        info = machine()
        for w in WORKLOADS:
            results[w] = report(w, args.seed, args.seconds)
            print(f"done {w}", file=sys.stderr)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"machine: {json.dumps(info)}")
    print(f"{'workload':<14}" + "".join(f"{f'{n} [{u}]':>24}" for n, u in COLUMNS)
          + "  counts repeat")
    for w, res in results.items():
        row = "".join(f"{res['end_to_end'][n]:>24.6g}" for n, _ in COLUMNS)
        repeat = "yes" if not res["count_mismatches"] else ", ".join(res["count_mismatches"])
        print(f"{w:<14}{row}  {repeat}")
        for key, why in res["failures"]:
            print(f"  FAILED {key}: {why}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": info, "seed": args.seed, "seconds": args.seconds,
                               "workloads": results}, indent=1, sort_keys=True) + "\n")
    failed = any(res["failures"] for res in results.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
