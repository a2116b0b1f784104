"""What each workload runs, and the per-layer metrics its traced run reports.

The four workloads partition the acceptance gate: together they run each
criterion of ``expsum verify-all`` once, at full scale, in canonical
order, single-threaded.  Their inputs are the gate's own fixed ranges
and seeds; re-seeding them would change what the gate means.  Only the
CLI scan mix of ``correlations`` is drawn from the workload seed.
"""

from __future__ import annotations

import random
import statistics

CRITERIA = {
    # build-heavy: crt_split asks for tables over ~10^4 moduli and the
    # lru_cache(16) table caches thrash
    "kl-tables": ["explicit_pp", "crt_split", "weil_deligne"],
    # Voronoi kernel builds and dual sums; no expsums tables at all
    "voronoi": ["voronoi"],
    # d3 sieve at X = 10^6, evicted and rebuilt; coprime means; sigma00 grid
    "divisor-sums": ["sigma00", "distribution"],
    # the same tables looked up rather than built; the only workload that
    # reaches charsums, bilinear and the CLI thread pool
    "correlations": ["charsum_pp", "charsum_prime", "df", "calc_glue", "bilinear"],
}
WORKLOADS = list(CRITERIA)

SCAN_JOBS = 2  # = nproc of the reference box
SCAN_PAIRS = 3  # variant pairs per subcommand in the pool; each variant has a golden hash
_POOL_SEED = 20261017
# Run order of the scans.  It is fixed, so that the tables each scan leaves
# in the caches, and with them the peak RSS, do not depend on the seed.
SCAN_SUBCOMMANDS = [
    "kloosterman", "hyperkl3", "calC", "glue", "bilinear", "df",
    "charsum-prime", "charsum-pp",
]


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi) if all(n % d for d in range(2, int(n**0.5) + 1))]


def _antithetic(rng: random.Random, lo: int, hi: int, width: int,
                pool: list[int] | None = None) -> tuple[str, str]:
    """Two parameter lists, each with one value from every stratum of [lo, hi).

    Where one list takes the i-th smallest choice of a stratum, the other
    takes the i-th largest, so the pair costs about the same whatever is
    drawn: the seed changes the parameters, not the size of the run.
    """
    a, b = [], []
    for start in range(lo, hi, width):
        choices = [v for v in (pool or range(start, start + width))
                   if start <= v < start + width]
        if choices:
            i = rng.randrange(len(choices))
            a.append(choices[i])
            b.append(choices[-1 - i])
    return ",".join(map(str, a)), ",".join(map(str, sorted(b)))


def _pair(sub: str, rng: random.Random) -> list[list[str]]:
    """Two parameter lists for ``sub`` of about equal joint cost, inside the CLI caps."""
    if sub in ("kloosterman", "hyperkl3"):
        qs = _antithetic(rng, 1000, 5000, 500)
    elif sub == "calC":
        qs = _antithetic(rng, 2, 602, 3)
    elif sub == "glue":
        qs = _antithetic(rng, 2, 402, 4)
    elif sub == "bilinear":
        return [[sub, "--q", q, "--N", "2,3,4"] for q in _antithetic(rng, 500, 2500, 500)]
    elif sub == "charsum-prime":
        return [[sub, "--p", p] for p in _antithetic(rng, 50, 500, 50, _primes(50, 500))]
    elif sub == "df":
        return [[sub, "--p", p, "--gamma-max", "3"]
                for p in _antithetic(rng, 3, 53, 10, _primes(3, 53))]
    elif sub == "charsum-pp":
        ps = rng.sample(_primes(5, 30), 8)  # the pair splits all eight
        return [[sub, "--p", ",".join(map(str, sorted(half))), "--gamma-max", "3"]
                for half in (ps[:4], ps[4:])]
    else:
        raise ValueError(f"no scan variants for {sub!r}")
    return [[sub, "--q", q] for q in qs]


def scan_pool() -> dict[str, list[list[list[str]]]]:
    """The fixed variant pairs of each scanned subcommand, without ``--jobs``."""
    rng = random.Random(_POOL_SEED)
    return {sub: [_pair(sub, rng) for _ in range(SCAN_PAIRS)] for sub in SCAN_SUBCOMMANDS}


def scan_variants() -> list[list[str]]:
    return [argv for pairs in scan_pool().values() for pair in pairs for argv in pair]


def scan_mix(seed: int) -> list[list[str]]:
    """One variant pair of every subcommand, drawn from seed, in SCAN_SUBCOMMANDS order."""
    rng = random.Random(seed)
    return [argv for pairs in scan_pool().values() for argv in rng.choice(pairs)]


def scan_key(argv: list[str]) -> str:
    return " ".join(argv)


def operations(workload: str, seed: int) -> list[tuple[str, object]]:
    """("criterion", name) and ("scan", argv) operations, in run order."""
    ops: list[tuple[str, object]] = [("criterion", c) for c in CRITERIA[workload]]
    if workload == "correlations":
        ops += [("scan", argv + ["--jobs", str(SCAN_JOBS)]) for argv in scan_mix(seed)]
    return ops


# ---------------------------------------------------------------- tracing

TABLES = [
    "expsums.kloosterman_table",
    "expsums.unit_inverse_table",
    "expsums.hyper_kl3_table",
    "expsums.kloosterman_explicit_pp_table",
]
EXPSUMS_CACHES = TABLES + ["expsums.unit_mask"]
CACHED = EXPSUMS_CACHES + ["arith.divisor_table", "arith.factorize"]
MODARITH = ["modarith.is_prime", "modarith.legendre", "modarith.sqrt_mod_pp",
            "modarith.valuation_capped"]
EXPSUMS_CALLS = ["expsums.kloosterman_split", "expsums.kloosterman_direct",
                 "expsums.hyper_kl3_table_direct"]
DISTRIBUTION = ["distribution.coprime_mean", "distribution.d3_ap_sum",
                "distribution.ramanujan_decomposition", "distribution.d3_to_bilinear"]
CHARSUMS = ["charsums.ppower_bound", "charsums.frakC_11", "charsums.moebius_correlation",
            "charsums.df_correlation", "charsums.calC", "charsums.frakC2_glue"]
BILINEAR = ["bilinear.cancellation_scan", "bilinear.bilinear_sum",
            "bilinear.bilinear_grouped", "bilinear.trivial_bound"]
SELF_ONLY = ["expsums.weil_audit", "arith.divisors", "distribution.discrepancy_scan",
             "voronoi.voronoi_lhs", "cli.main"]
TARGETS = (CACHED + EXPSUMS_CALLS + ["arith.sigma00"] + DISTRIBUTION
           + ["voronoi.voronoi_residual"] + CHARSUMS + BILINEAR + SELF_ONLY + MODARITH)

ALL_CRITERIA = [c for cs in CRITERIA.values() for c in cs]
_UNITS = {"builds": "count", "hits": "count", "calls": "count", "self_s": "s"}


def _stats(names: list[str], *stats: str) -> list[tuple[str, str]]:
    return [(f"{n}.{s}", _UNITS[s]) for n in names for s in stats]


# Which end-to-end metric each should move, and where: table builds move
# wall_s and peak_rss_mb on kl-tables and hits move wall_s on correlations;
# arith and distribution move wall_s (and cpu_s) on divisor-sums, and
# divisor_table also on voronoi; voronoi moves wall_s and peak_rss_mb on
# voronoi; charsums, bilinear and cli move wall_s on correlations; modarith
# moves wall_s on kl-tables and correlations; each verify criterion moves
# wall_s on the workload that runs it.
PER_LAYER: list[tuple[str, str]] = (
    _stats(TABLES, "builds", "hits", "self_s")
    + _stats(["expsums.unit_mask"], "builds", "hits")
    + _stats(EXPSUMS_CALLS, "calls", "self_s")
    + _stats(["expsums.weil_audit"], "self_s")
    + [("expsums.table_hit_ratio", "ratio"), ("expsums.table_bytes_built", "bytes")]
    + _stats(["arith.divisor_table", "arith.factorize"], "builds", "hits", "self_s")
    + _stats(["arith.sigma00"], "calls", "self_s")
    + _stats(["arith.divisors"], "self_s")
    + _stats(DISTRIBUTION, "calls", "self_s")
    + _stats(["distribution.discrepancy_scan"], "self_s")
    + _stats(["voronoi.voronoi_residual"], "calls", "self_s")
    + _stats(["voronoi.voronoi_lhs"], "self_s")
    + [("voronoi.cell_cold_ms.p50", "ms"), ("voronoi.cell_cold_ms.p80", "ms"),
       ("voronoi.cell_warm_ms.p50", "ms"), ("voronoi.cell_warm_ms.p95", "ms"),
       ("voronoi.dual_terms", "count"), ("voronoi.kernel_terms", "count")]
    + _stats(CHARSUMS + BILINEAR, "calls", "self_s")
    + [("modarith.calls", "count"), ("modarith.self_s", "s")]
    + [(f"verify.{c}.{s}", "s") for c in ALL_CRITERIA for s in ("wall_s", "cpu_s")]
    + [(f"cli.{sub}.{s}", "s") for sub in SCAN_SUBCOMMANDS for s in ("wall_s", "cpu_s")]
    + _stats(["cli.main"], "self_s")
)


class VoronoiCells:
    """Per-cell latencies and truncation levels of voronoi_residual calls.

    A cell is cold when it is the first of its (q, X): it pays the
    kernel build.  The others are warm.
    """

    def __init__(self) -> None:
        self.cold_ms: list[float] = []
        self.warm_ms: list[float] = []
        self.levels: dict[tuple[int, float], int] = {}
        self.dual_terms = 0

    def __call__(self, args, report, seconds: float) -> None:
        key = (args[1], args[2].X)
        (self.warm_ms if key in self.levels else self.cold_ms).append(1e3 * seconds)
        self.levels[key] = max(self.levels.get(key, 0), report.truncation_level)
        self.dual_terms += report.truncation_level


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile; 0.0 for a workload with no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer, cells: VoronoiCells, op_times: dict[str, tuple[float, float]]
                  ) -> dict[str, float]:
    """Every PER_LAYER metric from a finished traced run.

    ``op_times`` maps ``verify.<criterion>`` and ``cli.<subcommand>`` to
    summed (wall_s, cpu_s); layers a workload never reaches read 0.
    """
    flat: dict[str, float] = {}
    for name in TARGETS:
        flat[f"{name}.calls"] = tracer.calls[name]
        flat[f"{name}.self_s"] = tracer.self_s[name]
    for name in CACHED:
        flat[f"{name}.builds"] = tracer.builds(name)
        flat[f"{name}.hits"] = tracer.hits(name)
    builds = sum(tracer.builds(n) for n in EXPSUMS_CACHES)
    hits = sum(tracer.hits(n) for n in EXPSUMS_CACHES)
    flat["expsums.table_hit_ratio"] = hits / (hits + builds) if hits + builds else 0.0
    flat["expsums.table_bytes_built"] = sum(tracer.bytes_built[n] for n in EXPSUMS_CACHES)
    flat["modarith.calls"] = sum(tracer.calls[n] for n in MODARITH)
    flat["modarith.self_s"] = sum(tracer.self_s[n] for n in MODARITH)
    flat["voronoi.cell_cold_ms.p50"] = percentile(cells.cold_ms, 50)
    flat["voronoi.cell_cold_ms.p80"] = percentile(cells.cold_ms, 80)
    flat["voronoi.cell_warm_ms.p50"] = percentile(cells.warm_ms, 50)
    flat["voronoi.cell_warm_ms.p95"] = percentile(cells.warm_ms, 95)
    flat["voronoi.dual_terms"] = cells.dual_terms
    flat["voronoi.kernel_terms"] = sum(cells.levels.values())
    for name, unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer.startswith(("verify.", "cli.")) and stat in ("wall_s", "cpu_s"):
            wall, cpu = op_times.get(layer, (0.0, 0.0))
            flat[name] = wall if stat == "wall_s" else cpu
    return {name: flat[name] for name, _ in PER_LAYER}
