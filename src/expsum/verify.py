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
from .bilinear import BilinearConfig, CancellationReport, cancellation_scan
from .charsums import RATIO_CAP, df_correlation, frakC2_glue
from .distribution import d3_to_bilinear, discrepancy_scan
from .expsums import (
    hyper_kl3_table,
    hyper_kl3_table_direct,
    kloosterman_direct,
    kloosterman_explicit_pp_table,
    kloosterman_split,
    kloosterman_table,
    unit_mask,
    weil_audit,
)
from .families import (
    BILINEAR_HEADER,
    bilinear_row,
    calc_tuples,
    charsum_pp,
    charsum_pp_cells,
    charsum_prime,
    df_pairs,
    fmt,
    glue_tuples,
    middle_unit,
    modulus_rng,
    pmap,
    render,
    split_vs_table,
)
from .modarith import PrimePower, is_prime, legendre
from .voronoi import scale_residuals

__all__ = [
    "CheckResult",
    "ALL_CHECKS",
    "run_checks",
    "reports_csv",
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


# ------------------------------------------------------------------ 1


@_criterion("explicit_pp_formula")
def criterion_explicit_pp(quick: bool = False) -> tuple[bool, str]:
    """Explicit prime-power formula vs the FFT Kloosterman tables, scaled 1e-9."""
    cap = 10**4 if quick else 10**6
    worst = 0.0
    worst_zero = 0.0
    count = 0
    for p in (3, 5, 7, 11, 13):
        leg = np.array([legendre(r, p) if r % p else 0 for r in range(p)])
        for gamma in range(2, 64):
            q = p**gamma
            if q > cap:
                break
            direct = kloosterman_table(q)
            expl = kloosterman_explicit_pp_table(PrimePower(p, gamma))
            beta = np.arange(q)
            unit = beta % p != 0
            scale = 2 * math.sqrt(q)
            worst = max(
                worst, float(np.max(np.abs(expl[unit] - direct[unit]))) / scale
            )
            nonres = unit & (leg[beta % p] == -1)
            if nonres.any():
                if np.max(np.abs(expl[nonres])) != 0.0:
                    worst = math.inf  # formula must give exact zeros
                worst_zero = max(
                    worst_zero, float(np.max(np.abs(direct[nonres]))) / scale
                )
            count += int(unit.sum())
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
    worst_split = 0.0
    worst_hyper = 0.0
    for q in range(1, qcap + 1):
        for _, value, split in split_vs_table(q):
            worst_split = max(worst_split, abs(split - value) / q)
        h1 = hyper_kl3_table(q)
        h2 = hyper_kl3_table_direct(q)
        worst_hyper = max(worst_hyper, float(np.max(np.abs(h1 - h2))) / q)
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
            worst_split = max(worst_split, diff / q)
            n_comp += 1
        if q <= deg_cap and factorize(q).omega() > 1:
            # degenerate first argument: compare against the literal sum
            a = int(rng.integers(1, q))
            if math.gcd(a, q) == 1:
                a = q - factorize(q).pairs[0][0]  # force a common factor
            b = int(rng.integers(q))
            diff = abs(kloosterman_split(a, b, q) - kloosterman_direct(a, b, q))
            worst_split = max(worst_split, diff / q)
            n_comp += 1
    passed = worst_split <= 1e-9 and worst_hyper <= 1e-9
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
    rep = weil_audit(cap)
    return rep.ratio <= 1.0, (
        f"primes p<={cap}; worst bound fraction {fmt(rep.ratio)} "
        f"(Weil at p={rep.aux['weil_argmax'][0]}, "
        f"Deligne at p={rep.aux['deligne_argmax'][0]})"
    )


# ------------------------------------------------------------------ 5


@_criterion("charsum_prime_power")
def criterion_charsum_pp(quick: bool = False) -> tuple[bool, str]:
    """c_{gamma,u} scan: predicted vanishing is real; ratios <= 16."""
    gmax = 4 if quick else 6
    per_cell = 40 if quick else 200
    worst_ratio = 0.0
    count = vanish_predicted = vanish_violated = 0
    cells = charsum_pp_cells((3, 5), gmax)
    for cell in cells:
        for _, rep in charsum_pp(*cell, per_cell):
            count += 1
            worst_ratio = max(worst_ratio, rep.ratio)
            vanish_predicted += rep.vanishing_predicted
            vanish_violated += rep.vanishing_predicted and not rep.vanished
    passed = vanish_violated == 0 and worst_ratio <= RATIO_CAP
    return passed, (
        f"{count} tuples over {len(cells)} cells (p in 3,5; gamma<={gmax}); "
        f"max ratio {fmt(worst_ratio)}; {vanish_predicted} predicted "
        f"vanishings, {vanish_violated} violated"
    )


# ------------------------------------------------------------------ 6


@_criterion("charsum_prime_moebius")
def criterion_charsum_prime(quick: bool = False) -> tuple[bool, str]:
    """c_{1,1}: projective completion equals the Moebius route."""
    pcap = 13 if quick else 31
    per_p = 15 if quick else 50
    worst_diff = 0.0
    worst_ratio = 0.0
    count = 0
    for p in (q for q in range(3, pcap + 1) if is_prime(q)):
        for _, rep, mo in charsum_prime(p, per_p):
            worst_diff = max(
                worst_diff, abs(rep.aux["completed"] - mo) / (p * p)
            )
            worst_ratio = max(worst_ratio, rep.ratio)
            count += 1
    passed = worst_diff <= 1e-6 and worst_ratio <= RATIO_CAP
    return passed, (
        f"{count} tuples over primes p<={pcap}; worst scaled route "
        f"difference {fmt(worst_diff)}; max ratio {fmt(worst_ratio)}"
    )


# ------------------------------------------------------------------ 7


@_criterion("df_second_moment")
def criterion_df(quick: bool = False) -> tuple[bool, str]:
    """Second-moment correlation bound; |S(1,x;5)|^2 spot value 19."""
    caps = {3: 4, 5: 3, 7: 2} if quick else {3: 6, 5: 4, 7: 3}
    per_mod = 30 if quick else 100
    worst_ratio = 0.0
    count = 0
    for p, gmax in caps.items():
        for gamma in range(1, gmax + 1):
            for _, _, rep in df_pairs(p, gamma, per_mod):
                worst_ratio = max(worst_ratio, rep.ratio)
                count += 1
    spot = df_correlation(1, 0, PrimePower(5, 1)).sum_value
    spot_err = abs(spot - 19)
    passed = worst_ratio <= RATIO_CAP and spot_err <= 1e-6
    return passed, (
        f"{count} pairs over {sum(caps.values())} moduli; max ratio "
        f"{fmt(worst_ratio)}; spot sum|S(1,x;5)|^2 error {fmt(spot_err)}"
    )


# ------------------------------------------------------------------ 8


@_criterion("calc_glue_crt")
def criterion_calc_glue(quick: bool = False) -> tuple[bool, str]:
    """calC and glue sums: CRT equals direct; ratios <= 16; deltas exact."""
    qcap = 60 if quick else 200
    worst_calc = 0.0
    worst_glue = 0.0
    n_calc = n_glue = n_crt = 0
    for q in range(2, qcap + 1):
        rng = modulus_rng(q)  # the glue tuples continue the calC stream
        for _, rep in calc_tuples(q, rng):  # CRT checked inside
            worst_calc = max(worst_calc, rep.ratio)
            n_calc += 1
        for _, rep in glue_tuples(q, rng):
            worst_glue = max(worst_glue, rep.ratio)
            n_glue += 1
            if rep.aux["crt_value"] is not None:
                n_crt += 1
    # hand-checked predicate spots: symmetric tuple activates every k | d
    sym = frakC2_glue(15, 15, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1)
    single = frakC2_glue(1, 15, 2, 7, 1, 4, 2, 1, 3, 5, 0, 2)
    predicates_ok = sym.aux["active_k"] == [1, 3, 5, 15] and single.aux[
        "active_k"
    ] == [1]
    passed = (
        worst_calc <= RATIO_CAP and worst_glue <= RATIO_CAP and predicates_ok
    )
    return passed, (
        f"{n_calc} calC tuples and {n_glue} glue tuples (q<={qcap}, "
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
    worst = 0.0
    cells = [cell for x in xs for cell in scale_residuals(range(1, qcap + 1), x)]
    for _, _, rep in cells:
        worst = max(worst, rep.relative_residual)
    return worst <= 1e-6, (
        f"{len(cells)} cells (q<={qcap}, X in {'{50}' if quick else '{50,100,200}'}); "
        f"worst relative residual {fmt(worst)}"
    )


# ------------------------------------------------------------------ 10


def _d3_triple_loop(X: int) -> np.ndarray:
    """Literal sum over ordered triples a*b*c <= X (test oracle)."""
    out = np.zeros(X + 1, dtype=np.int64)
    for a in range(1, X + 1):
        for b in range(1, X // a + 1):
            out[a * b :: a * b] += 1  # every c with a*b*c <= X
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
    worst_glue = 0.0
    for _ in range(20 if quick else 100):
        y = int(rng.integers(4, 400))
        q = int(rng.integers(1, 50))
        b = int(rng.integers(1, q + 1))
        direct, glued = d3_to_bilinear(y, q, b)
        worst_glue = max(
            worst_glue, abs(direct - glued) / max(1.0, abs(direct))
        )
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
        b = middle_unit(q)
        n = 2 + i % 4
        phase = np.exp(2j * np.pi * 0.37 * np.arange(n))
        alpha = tuple(0.9 * phase)
        configs.append(BilinearConfig(q=q, M=max(4, q // 2), N=n, b=b))
        configs.append(
            BilinearConfig(
                q=q, M=max(4, min(2 * q, 4000)), N=n, b=b, alpha=alpha,
                w=0.01 + 0.01j, s1=0.02j, s2=-0.01,
            )
        )
    return configs[: 10 if quick else 50]


@_criterion("bilinear_paths")
def criterion_bilinear(quick: bool = False) -> tuple[bool, str]:
    """Path agreement, trivial bound, and the hypothesis-flag CSV."""
    configs = _bilinear_grid(quick)
    reports = cancellation_scan(configs)  # raises on split
    exceed = [r for r in reports if not r.within_trivial]
    csv_text = reports_csv(reports)
    header_ok = csv_text.splitlines()[0] == (
        "q,p,M,N,abs_S,trivial,thm_squarefree,thm_primepower,thm_alt,"
        "exponent,hypothesis_ok"
    )
    passed = not exceed and header_ok
    return passed, (
        f"{len(reports)} configs (q up to {max(c.q for c in configs)}); "
        f"paths agree at 1e-9; {len(exceed)} trivial-bound violations; "
        f"CSV rows {len(csv_text.splitlines()) - 1} with hypothesis flags"
    )


def reports_csv(reports: list[CancellationReport]) -> str:
    """Render cancellation reports as the canonical CSV text."""
    return render([bilinear_row(r) for r in reports], BILINEAR_HEADER)


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
