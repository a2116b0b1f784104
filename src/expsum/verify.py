"""The full verification suite: one check per acceptance criterion.

Each criterion function computes a family of sums two independent ways
(or against a frozen bound/oracle) and returns a CheckResult whose
details string is deterministic: fixed ranges, fixed seeds, fixed float
formatting, no timings (the wall and CPU seconds of the check travel
beside it).  run_checks runs checks 1-11, at jobs > 1 in forked worker
processes; the determinism check 12 runs verify-all itself twice in a
subprocess and compares bytes, so it is invoked separately (by the
acceptance test or `expsum verify-all --self-test`).

Quick mode shrinks ranges so the whole suite finishes in well under a
minute; full mode enforces the stated desk-scale ranges.
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

import numpy as np

from .arith import divisor_table, factorize, sigma00, sigma00_grid
from .bilinear import BilinearConfig, cancellation_scan
from .charsums import RATIO_CAP, df_correlation, frakC2_glue
from .distribution import d3_to_bilinear, discrepancy_scan
from .expsums import (
    hyper_kl3_table,
    hyper_kl3_table_direct,
    kloosterman_direct,
    kloosterman_explicit_pp_table,
    kloosterman_split,
    kloosterman_split_row,
    kloosterman_table,
    unit_mask,
    weil_audit,
)
from .families import (
    bilinear_config,
    calc_tuples,
    charsum_pp,
    charsum_pp_cells,
    charsum_prime,
    df_pairs,
    fmt,
    glue_tuples,
    modulus_rng,
    pmap,
    render,
)
from .memo import SMALL_Q
from .modarith import PrimePower, is_prime, legendre
from .voronoi import scale_residuals

__all__ = [
    "SPLIT_TOL",
    "ROUTE_TOL",
    "VORONOI_TOL",
    "CheckResult",
    "ALL_CHECKS",
    "run_checks",
    "criterion_explicit_pp",
    "criterion_sigma00",
    "criterion_crt_split",
    "criterion_weil_deligne",
    "criterion_charsum_pp",
    "criterion_charsum_prime",
    "criterion_df",
    "criterion_calc_glue",
    "criterion_voronoi",
    "criterion_distribution",
    "criterion_bilinear",
    "criterion_determinism",
]


# the limits that a criterion and its CLI scan both read: a two-path
# difference per unit of q (criterion 3, kloosterman), the c_{1,1} route
# difference per p^2 (criterion 6, charsum-prime) and the Voronoi relative
# residual (criterion 9, voronoi)
SPLIT_TOL = 1e-9
ROUTE_TOL = 1e-6
VORONOI_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str
    elapsed: float
    cpu: float  # CPU seconds of the process running the check, helper threads included


def _criterion(name: str):
    """Make a check that returns (passed, details) return its timed CheckResult.

    The result is named name whether the check passes, fails or raises; a
    check that raises gives a failed result whose details name the exception.
    """

    def decorate(check: Callable[[bool], tuple[bool, str]]) -> Callable[[bool], CheckResult]:
        @functools.wraps(check)
        def run(*args, **kwargs) -> CheckResult:
            t0, c0 = perf_counter(), process_time()
            try:
                passed, details = check(*args, **kwargs)
            except Exception as exc:  # invariant violations become failed rows
                passed, details = False, f"raised {type(exc).__name__}: {exc}"
            return CheckResult(name, passed, details, perf_counter() - t0, process_time() - c0)

        return run

    return decorate


def _worst(values) -> float:
    """The largest of values, 0.0 if there are none, nan if any is nan.

    max() would keep its running value against a nan, and a nan passes no
    limit: a gate never passes on a nan.
    """
    worst = 0.0
    for x in values:
        if x > worst or x != x:
            worst = x
    return worst


# ------------------------------------------------------------------ 1


def _explicit_pp_errors(p: int, gamma: int) -> tuple[float, float, int]:
    """Worst |explicit - FFT| at the units mod p^gamma, worst |FFT| at the
    non-residues, and the number of units; the first is inf where the
    formula is not exactly 0 at a non-residue.  The modulus' arrays are
    freed on return, before the next modulus is built."""
    q = p**gamma
    direct = kloosterman_table(q)
    expl = kloosterman_explicit_pp_table(PrimePower(p, gamma))
    leg = np.array([legendre(r, p) if r % p else 0 for r in range(p)])
    unit = np.tile(leg != 0, q // p)
    nonres = np.tile(leg == -1, q // p)
    buf = np.subtract(expl, direct)
    err = float(np.max(np.abs(buf, out=buf), where=unit, initial=0.0))
    if np.any(expl, where=nonres):
        err = math.inf  # formula must give exact zeros
    zero = float(np.max(np.abs(direct, out=buf), where=nonres, initial=0.0))
    return err, zero, int(unit.sum())


@_criterion("explicit_pp_formula")
def criterion_explicit_pp(quick: bool = False) -> tuple[bool, str]:
    """Explicit prime-power formula vs the FFT Kloosterman tables, scaled 1e-9."""
    cap = 10**4 if quick else 10**6
    moduli = [(p, g) for p in (3, 5, 7, 11, 13) for g in range(2, 64) if p**g <= cap]
    # A modulus above SMALL_Q is stored alone, and the FFT of the largest
    # one sets this check's peak memory.  Built first, before any other
    # large table, that peak does not depend on where earlier builds left
    # free memory; the tables stored at the end are those of p, gamma order.
    largest = max(moduli, key=lambda m: m[0] ** m[1])
    if largest[0] ** largest[1] > SMALL_Q:
        moduli.remove(largest)
        moduli.insert(0, largest)
    errs, zeros, count = [], [], 0
    for p, gamma in moduli:
        err, zero, units = _explicit_pp_errors(p, gamma)
        scale = 2 * math.sqrt(p**gamma)
        errs.append(err / scale)
        zeros.append(zero / scale)
        count += units
    worst, worst_zero = _worst(errs), _worst(zeros)
    passed = worst <= 1e-9 and worst_zero <= 1e-9
    return passed, (
        f"{count} coprime (beta,p,gamma) values to p^gamma<={cap}; "
        f"worst scaled error {fmt(worst)}; "
        f"worst direct value at predicted zeros {fmt(worst_zero)}"
    )


# ------------------------------------------------------------------ 2


@_criterion("sigma00_identity")
def criterion_sigma00(quick: bool = False) -> tuple[bool, str]:
    """Double-divisor route equals the Moebius route, exactly."""
    cap = 120 if quick else 500
    spots = {(1, 12): 18, (2, 4): 3, (6, 1): 1}
    bad = 0
    sigma00_grid(cap)  # raises IdentityViolation on mismatch
    for (k, l), expect in spots.items():
        if sigma00(k, l) != expect:
            bad += 1
    return bad == 0, (
        f"all 1<=k,l<={cap} agree on both routes; "
        f"{len(spots) - bad}/{len(spots)} spot values exact"
    )


# ------------------------------------------------------------------ 3


@_criterion("crt_split_two_path")
def criterion_crt_split(quick: bool = False) -> tuple[bool, str]:
    """CRT splitting and hyper-Kloosterman two-path agreement, 1e-9*q."""
    qcap = 120 if quick else 500
    comp_cap = 1000 if quick else 10**4
    deg_cap = 500 if quick else 2000
    split_errs, hyper_errs = [], []
    for q in range(1, qcap + 1):
        tab = kloosterman_table(q)
        split = kloosterman_split_row(q)
        split_errs.append(float(np.max(np.abs(split - tab))) / q)
        h1 = hyper_kl3_table(q)
        h2 = hyper_kl3_table_direct(q)
        hyper_errs.append(float(np.max(np.abs(h1 - h2))) / q)
    rng = np.random.default_rng(20260814)
    n_comp = 0
    for q in range(4, comp_cap + 1):
        if is_prime(q):
            continue
        tab = kloosterman_table(q)
        units = np.flatnonzero(unit_mask(q))
        for _ in range(2):
            a = int(units[rng.integers(len(units))])
            b = int(rng.integers(q))
            diff = abs(kloosterman_split(a, b, q) - tab[(a * b) % q])
            split_errs.append(diff / q)
            n_comp += 1
        if q <= deg_cap and factorize(q).omega() > 1:
            # degenerate first argument: compare against the literal sum
            a = int(rng.integers(1, q))
            if math.gcd(a, q) == 1:
                a = q - factorize(q).pairs[0][0]  # force a common factor
            b = int(rng.integers(q))
            diff = abs(kloosterman_split(a, b, q) - kloosterman_direct(a, b, q))
            split_errs.append(diff / q)
            n_comp += 1
    worst_split, worst_hyper = _worst(split_errs), _worst(hyper_errs)
    passed = worst_split <= SPLIT_TOL and worst_hyper <= SPLIT_TOL
    return passed, (
        f"q<={qcap} all m plus {n_comp} sampled composite pairs to q<={comp_cap}; "
        f"worst split error {fmt(worst_split)}*q, "
        f"worst hyper two-path error {fmt(worst_hyper)}*q"
    )


# ------------------------------------------------------------------ 4


@_criterion("weil_deligne_audit")
def criterion_weil_deligne(quick: bool = False) -> tuple[bool, str]:
    """|S(a,b;p)| <= 2 sqrt p and |Kl3~(m,p)| <= 3, exhaustively."""
    cap = 50 if quick else 200
    rows = weil_audit(cap)
    worst = {col: _worst(r[col] for r in rows) for col in ("weil", "deligne")}
    # the first prime at each maximum, or the first with a nan
    at = {col: next(r["p"] for r in rows if r[col] == w or r[col] != r[col])
          for col, w in worst.items()}
    fraction = _worst(worst.values())
    return fraction <= 1.0, (
        f"primes p<={cap}; worst bound fraction {fmt(fraction)} "
        f"(Weil at p={at['weil']}, Deligne at p={at['deligne']})"
    )


# ------------------------------------------------------------------ 5


@_criterion("charsum_prime_power")
def criterion_charsum_pp(quick: bool = False) -> tuple[bool, str]:
    """c_{gamma,u} scan: predicted vanishing is real; ratios <= 16."""
    gmax = 4 if quick else 6
    per_cell = 40 if quick else 200
    cells = charsum_pp_cells((3, 5), gmax)
    rows = [r for cell in cells for r in charsum_pp(*cell, per_cell)]
    worst_ratio = _worst(r["ratio"] for r in rows)
    predicted = [r for r in rows if r["predicted_vanishing"]]
    violated = sum(not r["vanished"] for r in predicted)
    passed = violated == 0 and worst_ratio <= RATIO_CAP
    return passed, (
        f"{len(rows)} tuples over {len(cells)} cells (p in 3,5; gamma<={gmax}); "
        f"max ratio {fmt(worst_ratio)}; {len(predicted)} predicted "
        f"vanishings, {violated} violated"
    )


# ------------------------------------------------------------------ 6


@_criterion("charsum_prime_moebius")
def criterion_charsum_prime(quick: bool = False) -> tuple[bool, str]:
    """c_{1,1}: projective completion equals the Moebius route."""
    pcap = 13 if quick else 31
    per_p = 15 if quick else 50
    rows = [r for p in range(3, pcap + 1) if is_prime(p) for r in charsum_prime(p, per_p)]
    worst_diff = _worst(r["route_diff"] / (r["p"] * r["p"]) for r in rows)
    worst_ratio = _worst(r["ratio"] for r in rows)
    passed = worst_diff <= ROUTE_TOL and worst_ratio <= RATIO_CAP
    return passed, (
        f"{len(rows)} tuples over primes p<={pcap}; worst scaled route "
        f"difference {fmt(worst_diff)}; max ratio {fmt(worst_ratio)}"
    )


# ------------------------------------------------------------------ 7


@_criterion("df_second_moment")
def criterion_df(quick: bool = False) -> tuple[bool, str]:
    """Second-moment correlation bound; |S(1,x;5)|^2 spot value 19."""
    caps = {3: 4, 5: 3, 7: 2} if quick else {3: 6, 5: 4, 7: 3}
    per_mod = 30 if quick else 100
    rows = [r for p, gmax in caps.items() for gamma in range(1, gmax + 1)
            for r in df_pairs(p, gamma, per_mod)]
    worst_ratio = _worst(r["ratio"] for r in rows)
    spot = df_correlation(1, 0, PrimePower(5, 1)).sum_value
    spot_err = abs(spot - 19)
    passed = worst_ratio <= RATIO_CAP and spot_err <= 1e-6
    return passed, (
        f"{len(rows)} pairs over {sum(caps.values())} moduli; max ratio "
        f"{fmt(worst_ratio)}; spot sum|S(1,x;5)|^2 error {fmt(spot_err)}"
    )


# ------------------------------------------------------------------ 8


@_criterion("calc_glue_crt")
def criterion_calc_glue(quick: bool = False) -> tuple[bool, str]:
    """calC and glue sums: CRT equals direct; ratios <= 16; deltas exact."""
    qcap = 60 if quick else 200
    calc, glue = [], []
    for q in range(2, qcap + 1):
        rng = modulus_rng(q)  # the glue tuples continue the calC stream
        calc += calc_tuples(q, rng)  # CRT checked inside
        glue += glue_tuples(q, rng)
    worst_calc = _worst(r["ratio"] for r in calc)
    worst_glue = _worst(r["ratio"] for r in glue)
    n_crt = sum(r["crt_residual"] is not None for r in glue)
    # hand-checked predicate spots: symmetric tuple activates every k | d
    sym = frakC2_glue(15, 15, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1)
    single = frakC2_glue(1, 15, 2, 7, 1, 4, 2, 1, 3, 5, 0, 2)
    predicates_ok = sym.aux["active_k"] == [1, 3, 5, 15] and single.aux["active_k"] == [1]
    passed = worst_calc <= RATIO_CAP and worst_glue <= RATIO_CAP and predicates_ok
    return passed, (
        f"{len(calc)} calC tuples and {len(glue)} glue tuples (q<={qcap}, "
        f"{n_crt} with coprime-split cross-check); max calC ratio "
        f"{fmt(worst_calc)}; max glue ratio {fmt(worst_glue)}; "
        f"congruence predicates exact: {predicates_ok}"
    )


# ------------------------------------------------------------------ 9


@_criterion("voronoi_identity")
def criterion_voronoi(quick: bool = False) -> tuple[bool, str]:
    """Voronoi identity residual <= 1e-6 relative across the grid."""
    qcap = 6 if quick else 20
    xs = (50.0,) if quick else (50.0, 100.0, 200.0)
    cells = [cell for x in xs for cell in scale_residuals(range(1, qcap + 1), x)]
    worst = _worst(rep.relative_residual for _, _, rep in cells)
    return worst <= VORONOI_TOL, (
        f"{len(cells)} cells (q<={qcap}, X in {'{50}' if quick else '{50,100,200}'}); "
        f"worst relative residual {fmt(worst)}"
    )


# ------------------------------------------------------------------ 10


_TRIPLE_BLOCK = 1 << 12  # triples a block of _d3_triple_loop counts; more moves the peak RSS


def _d3_triple_loop(X: int) -> np.ndarray:
    """out[n] = #{(a, b, c) : a*b*c = n}, counted over the ordered triples
    with a*b*c <= X one by one: the sieve's oracle, reading no table.

    The pairs (a, b) with a*b <= X are numbered a-major, b = 1..X//a.  A
    block takes the next pairs until their multiples c = 1..X//(ab) reach
    _TRIPLE_BLOCK triples (or one pair, if it alone has more), spells out
    each triple's a*b*c by repeat/cumsum index arithmetic and bincounts
    them, so the memory stays at one block whatever X is.  The next
    window of pairs is at most twice the pairs the last block kept, so a
    block reads few pairs that it does not count.
    """
    out = np.zeros(X + 1, dtype=np.int64)
    per_a = X // np.arange(1, X + 1)  # the number of b for each a
    a_ends = np.cumsum(per_a)
    i, n_pairs, window = 0, int(a_ends[-1]), 64
    while i < n_pairs:
        j = min(i + window, n_pairs)
        lo, hi = np.searchsorted(a_ends, (i, j - 1), side="right")  # a - 1
        seg = np.diff(np.minimum(a_ends[lo : hi + 1], j), prepend=i)
        a = np.repeat(np.arange(lo + 1, hi + 2), seg)
        firsts = a_ends[lo : hi + 1] - per_a[lo : hi + 1]  # the first pair of each a
        b = np.arange(i + 1, j + 1) - np.repeat(firsts, seg)
        ab = a * b
        cs = X // ab  # the number of c for each pair
        c_ends = np.cumsum(cs)
        k = max(1, int(np.searchsorted(c_ends, _TRIPLE_BLOCK, side="right")))
        ab, cs, c_ends = ab[:k], cs[:k], c_ends[:k]
        abc = np.arange(1, int(c_ends[-1]) + 1) - np.repeat(c_ends - cs, cs)  # c
        abc *= np.repeat(ab, cs)
        out += np.bincount(abc, minlength=X + 1)
        i += k
        window = min(_TRIPLE_BLOCK, 2 * k + 64)
    return out


@_criterion("d3_distribution")
def criterion_distribution(quick: bool = False) -> tuple[bool, str]:
    """Zero-sum exactness, Ramanujan splitting, sieve vs triple loop."""
    big_x = 10**4 if quick else 10**6
    sf_cap = 30 if quick else 200
    powers = [9, 27] if quick else [9, 27, 81, 243]
    loop_x = 2000 if quick else 10**4
    moduli = [
        q for q in range(2, sf_cap + 1) if factorize(q).is_squarefree()
    ] + powers
    # raises on any zero-sum or splitting violation
    rows = discrepancy_scan(big_x, moduli)
    sieve = divisor_table(3, loop_x).astype(np.int64)
    loop = _d3_triple_loop(loop_x)
    sieve_ok = bool(np.array_equal(sieve, loop))
    # re-bracketing identity of sharp-window sums
    rng = np.random.default_rng(99)
    glue_errs = []
    for _ in range(20 if quick else 100):
        y = int(rng.integers(4, 400))
        q = int(rng.integers(1, 50))
        b = int(rng.integers(1, q + 1))
        direct, glued = d3_to_bilinear(y, q, b)
        glue_errs.append(abs(direct - glued) / max(1.0, abs(direct)))
    worst_glue = _worst(glue_errs)
    passed = sieve_ok and worst_glue <= 1e-9
    n_pairs = sum(1 for r in rows if r["a"] != "*")
    return passed, (
        f"zero-sum and Ramanujan splitting verified for {n_pairs} (q,a) "
        f"pairs at X={big_x}; sieve equals triple loop to X={loop_x}: "
        f"{sieve_ok}; worst re-bracketing error {fmt(worst_glue)}"
    )


# ------------------------------------------------------------------ 11


def _bilinear_grid(quick: bool) -> list[BilinearConfig]:
    moduli = [1, 2, 5, 12, 30, 49, 121, 169, 210, 243, 343, 625, 729, 1024,
              1331, 2310, 2401, 101, 211, 503, 1009, 2003, 27, 125, 64]
    if quick:
        moduli = [1, 5, 12, 49, 210, 343, 27, 64, 121, 101]
    configs = []
    for i, q in enumerate(moduli):
        n = 2 + i % 4
        phase = np.exp(2j * np.pi * 0.37 * np.arange(n))
        alpha = tuple(0.9 * phase)
        plain = bilinear_config(q, n)
        configs.append(plain)
        configs.append(
            BilinearConfig(
                q=q, M=max(4, min(2 * q, 4000)), N=n, b=plain.b, alpha=alpha,
                shift=-0.02, s2=-0.01,
            )
        )
    return configs[: 10 if quick else 50]


@_criterion("bilinear_paths")
def criterion_bilinear(quick: bool = False) -> tuple[bool, str]:
    """Path agreement, trivial bound, and the hypothesis-flag CSV."""
    configs = _bilinear_grid(quick)
    rows = cancellation_scan(configs)  # raises on split
    exceed = [r for r in rows if not r["_within_trivial"]]
    csv_text = render(rows)
    header_ok = csv_text.splitlines()[0] == (
        "q,p,M,N,abs_S,trivial,thm_squarefree,thm_primepower,thm_alt,"
        "exponent,hypothesis_ok"
    )
    passed = not exceed and header_ok
    return passed, (
        f"{len(rows)} configs (q up to {max(c.q for c in configs)}); "
        f"paths agree at 1e-9; {len(exceed)} trivial-bound violations; "
        f"CSV rows {len(csv_text.splitlines()) - 1} with hypothesis flags"
    )


# ------------------------------------------------------------------ 12


@_criterion("verify_all_determinism")
def criterion_determinism(quick: bool = True) -> tuple[bool, str]:
    """verify-all twice: byte-identical output files, exit code 0."""
    src_root = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        codes = []
        for i in (1, 2):
            out = Path(tmp) / f"run{i}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "expsum.cli", "verify-all", "--quick",
                 "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
            )
            codes.append(proc.returncode)
            outs.append(out.read_bytes() if out.exists() else b"")
        identical = outs[0] == outs[1] and len(outs[0]) > 0
        passed = identical and codes == [0, 0]
    return passed, (
        f"two quick runs: exit codes {codes[0]},{codes[1]}; outputs "
        f"byte-identical: {identical} ({len(outs[0])} bytes)"
    )


ALL_CHECKS: list[Callable[[bool], CheckResult]] = [
    criterion_explicit_pp,
    criterion_sigma00,
    criterion_crt_split,
    criterion_weil_deligne,
    criterion_charsum_pp,
    criterion_charsum_prime,
    criterion_df,
    criterion_calc_glue,
    criterion_voronoi,
    criterion_distribution,
    criterion_bilinear,
]


def run_checks(quick: bool = False, jobs: int = 1) -> list[CheckResult]:
    """Run checks 1-11 and return results in canonical order.

    At jobs > 1 the checks run in worker processes (families.pmap), so the
    CPU time of each result counts its own check alone, as at jobs=1.
    """
    return pmap(lambda f: f(quick), ALL_CHECKS, jobs)
