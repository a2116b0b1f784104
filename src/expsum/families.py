"""Seeded parameter families shared by the CLI scans and the criteria.

Each family is defined once: its seed, its draw loop and the sums it
evaluates.  A CLI subcommand formats a family's records as rows; the
matching acceptance criterion aggregates the same records into its
details string.  The two differ only in how many records they draw.
fmt is the one float format and pmap the one order-preserving parallel
map, so output bytes do not depend on --jobs.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import BrokenExecutor

import numpy as np

from .arith import divisors, factorize
from .bilinear import CancellationReport
from .charsums import (
    CharSumParams,
    calC,
    df_correlation,
    frakC2_glue,
    frakC_11,
    moebius_correlation,
    moebius_reduce,
    ppower_bound,
)
from .expsums import BoundReport, kloosterman_split_row, kloosterman_table
from .memo import COUNTS
from .modarith import PrimePower, units

__all__ = [
    "BILINEAR_HEADER",
    "BrokenExecutor",
    "fmt",
    "pmap",
    "render",
    "middle_unit",
    "split_vs_table",
    "charsum_pp_cells",
    "charsum_pp",
    "charsum_prime",
    "df_pairs",
    "modulus_rng",
    "calc_tuples",
    "glue_tuples",
    "bilinear_row",
]


def fmt(x: float) -> str:
    return f"{x:.12e}"


_TASK: tuple = ()  # (fn, items) of the running pmap, inherited by its forked workers


def _run_item(i: int):
    """fn(items[i]) in a worker, and the memo counts it added: {kind: [hits, misses]}."""
    fn, items = _TASK
    for counts in COUNTS.values():  # the worker's totals are not read: count from 0
        counts[:] = [0, 0]
    return fn(items[i]), {kind: list(counts) for kind, counts in COUNTS.items()}


def pmap(fn, items, jobs: int) -> list:
    """[fn(it) for it in items] on min(jobs, len(items), cpu count) forked workers.

    With one worker the items run in the caller.  A worker takes the next
    item when it is free, so it sees its items in list order; results come
    back in list order.  fn is inherited, never pickled; its results and
    exceptions are, with each item's memo counts, which are added to this
    process's.  A worker that dies raises BrokenExecutor.
    """
    global _TASK
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    # deferred: multiprocessing adds about 10 ms to every start of the CLI
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _TASK = (fn, items)
    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
            done = list(pool.map(_run_item, range(len(items))))
    finally:
        _TASK = ()
    for _, added in done:
        for kind, (hits, misses) in added.items():
            COUNTS[kind][:] = COUNTS[kind][0] + hits, COUNTS[kind][1] + misses
    return [out for out, _ in done]


def render(rows: list[dict], header: list[str], kind: str = "csv") -> str:
    """The header fields of rows as CSV or JSON text; other keys are ignored."""
    if kind == "csv":
        lines = [",".join(header)]
        lines += [",".join(str(row[h]) for h in header) for row in rows]
        return "\n".join(lines) + "\n"
    return json.dumps([{h: row[h] for h in header} for row in rows], indent=0) + "\n"


def middle_unit(q: int) -> int:
    """The median unit mod q: the b of the bilinear scans."""
    us = units(q)
    return us[len(us) // 2]


def split_vs_table(q: int) -> list[tuple[int, float, complex]]:
    """(m, S(1, m; q) from the FFT table, S(1, m; q) by CRT splitting), all m."""
    tab = kloosterman_table(q)
    split = kloosterman_split_row(q)
    return [(m, float(tab[m]), complex(split[m])) for m in range(q)]


def charsum_pp_cells(
    ps, gamma_max: int, u_max: int | None = None
) -> list[tuple[int, int, int]]:
    """(p, gamma, u) with 2 <= gamma <= gamma_max and 1 <= u <= 4*gamma/5."""
    cells = []
    for p in ps:
        for gamma in range(2, gamma_max + 1):
            ucap = 4 * gamma // 5
            if u_max is not None:
                ucap = min(ucap, u_max)
            cells += [(p, gamma, u) for u in range(1, ucap + 1)]
    return cells


def charsum_pp(
    p: int, gamma: int, u: int, n: int
) -> list[tuple[CharSumParams, BoundReport]]:
    """n seeded c_{gamma,u} tuples of one cell, each with its ppower_bound."""
    rng = np.random.default_rng(97 * p + 31 * gamma + u)
    pp = PrimePower(p, gamma)
    q = pp.q
    out = []
    while len(out) < n:
        # one draw of 6 is the PCG64 stream of a draw of 4 and then of 2
        s1, s2, lam1, lam2, t1, t2 = rng.integers(1, q, size=6).tolist()
        if s1 * s2 * lam1 * lam2 * t1 * t2 % p == 0:  # p is prime
            continue
        j = int(rng.integers(0, gamma + 1))  # spread the valuation of m
        m = p**j * int(rng.integers(1, max(2, q // p**j)))
        if m % q == 0:
            continue
        params = CharSumParams(pp, u, s1, t1, s2, t2, lam1, lam2, m)
        out.append((params, ppower_bound(params)))
    return out


def charsum_prime(p: int, n: int) -> list[tuple[tuple, BoundReport, complex]]:
    """n seeded c_{1,1} tuples mod p: (s1,t1,s2,t2,lam1,lam2,m), frakC_11, Moebius route."""
    rng = np.random.default_rng(1000 + p)
    out = []
    for _ in range(n):
        s1, s2, lam1, lam2, t1, t2 = (int(v) for v in rng.integers(1, p, size=6))
        m = int(rng.integers(0, p))
        tup = (s1, t1, s2, t2, lam1, lam2, m)
        rep = frakC_11(p, *tup)
        out.append((tup, rep, moebius_correlation(moebius_reduce(*tup, p), p)))
    return out


def df_pairs(p: int, gamma: int, n: int) -> list[tuple[int, int, BoundReport]]:
    """n seeded (a, b, df_correlation(a, b, p^gamma)) with a a unit."""
    pp = PrimePower(p, gamma)
    rng = np.random.default_rng(13 * p + gamma)
    out = []
    for _ in range(n):
        a = int(rng.integers(1, pp.q))
        if a % p == 0:
            a = 1
        b = int(rng.integers(0, pp.q))
        out.append((a, b, df_correlation(a, b, pp)))
    return out


def modulus_rng(q: int) -> np.random.Generator:
    """The stream the calC and glue tuples at modulus q are drawn from."""
    return np.random.default_rng(4000 + q)


def calc_tuples(q: int, rng: np.random.Generator) -> list[tuple[tuple, BoundReport]]:
    """calC at mtil = 0 and at one drawn mtil: ((n1, n2, mtil, b), report)."""
    us = units(q)
    pick = lambda: us[int(rng.integers(len(us)))]
    out = []
    for mtil in (0, int(rng.integers(q))):
        n1, n2, b = pick(), pick(), pick()
        out.append(((n1, n2, mtil, b), calC(n1, n2, mtil, b, q)))
    return out


def glue_tuples(q: int, rng: np.random.Generator) -> list[tuple[int, BoundReport]]:
    """One frakC2_glue tuple per squarefree d | q: (d, report)."""
    us = units(q)
    pick = lambda: us[int(rng.integers(len(us)))]
    out = []
    for d in (dd for dd in divisors(q) if factorize(dd).is_squarefree()):
        rep = frakC2_glue(
            d, q, pick(), pick(), pick(), pick(), pick(), pick(),
            int(rng.integers(q)), int(rng.integers(q)), int(rng.integers(d)),
            pick(),
        )
        out.append((d, rep))
    return out


BILINEAR_HEADER = [
    "q", "p", "M", "N", "abs_S", "trivial", "thm_squarefree",
    "thm_primepower", "thm_alt", "exponent", "hypothesis_ok",
]


def bilinear_row(r: CancellationReport) -> dict:
    """One cancellation report as BILINEAR_HEADER fields; floats formatted."""
    return {
        "q": r.q, "p": r.p, "M": r.M, "N": r.N,
        "abs_S": fmt(abs(r.sum_value)),
        "trivial": fmt(r.trivial_bound),
        "thm_squarefree": fmt(r.thm_squarefree),
        "thm_primepower": fmt(r.thm_primepower),
        "thm_alt": fmt(r.thm_alt),
        "exponent": fmt(r.exponent),
        "hypothesis_ok": int(r.hypothesis_ok),
    }
