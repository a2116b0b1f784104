"""d_3 in arithmetic progressions: exact sums, Ramanujan splitting, scans.

The target statement is equidistribution of the ternary divisor
function over invertible residue classes: for gcd(a, q) = 1,

    sum_{n <= X, n = a (q)} d_3(n)  ~  (1/phi(q)) sum_{n <= X, (n,q)=1} d_3(n).

Everything on the left and right is computed exactly (integers and
rationals), so the discrepancy delta(X; q, a) = ap_sum - coprime_mean
satisfies the identity sum_a delta = 0 exactly.  The identity compares
two different computations: the coprime total comes from the Moebius
sum over squarefree d | q of the multiples of d, the progression sums
from the slices n = a mod q.  The asymptotic error term itself has
unspecified constants and is not a pass/fail subject; scans record the
normalised discrepancy and a log-log slope fit as empirical reference
output.

The Ramanujan decomposition splits the progression indicator into
additive characters grouped by conductor:

    S(d) = (1/q) sum*_{alpha mod d} sum_{n <= X} d_3(n) e(alpha (n-a)/d),

summed over d | q this telescopes exactly to the progression sum; the
numerical check tolerance 1e-6 absorbs only roundoff.

d3_to_bilinear re-brackets a sharp-window sum sum_{Y < k <= 2Y} d_3(k)
Kl3~(k b, q) through the gluing m = n2 n3, producing the bilinear shape
sum_{n1} sum_m d(m) Kl3~(m n1 b, q); the two bracketings are the same
finite sum term-for-term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import divisor_table, divisors, factorize
from .expsums import hyper_kl3_table

__all__ = [
    "ApDiscrepancy",
    "RamanujanDecomposition",
    "d3_ap_sum",
    "coprime_mean",
    "ramanujan_decomposition",
    "discrepancy_scan",
    "d3_to_bilinear",
]


@dataclass(frozen=True)
class ApDiscrepancy:
    """Exact progression sum against the exact coprime mean."""

    X: int
    q: int
    a: int
    ap_sum: int
    coprime_mean: Fraction

    @property
    def delta_exact(self) -> Fraction:
        return Fraction(self.ap_sum) - self.coprime_mean

    @property
    def delta(self) -> float:
        return float(self.delta_exact)


@dataclass(frozen=True)
class RamanujanDecomposition:
    """Additive-character splitting of one progression sum."""

    X: int
    q: int
    a: int
    terms: tuple[tuple[int, complex], ...]  # (d, S(d)) for d | q

    @property
    def total(self) -> complex:
        return sum(s for _, s in self.terms)

    def defect(self, ap: int) -> float:
        """|sum_d S(d) - ap| for the exact progression sum ap; roundoff only."""
        return abs(self.total - ap)


def d3_ap_sum(X: int, q: int, a: int) -> int:
    """Exact sum of d_3(n) over n <= X, n = a mod q."""
    if q < 1 or not 1 <= a <= q:
        raise ValueError(f"need q >= 1 and 1 <= a <= q, got q={q}, a={a}")
    if X < 1:
        return 0
    vals = divisor_table(3, X)
    return int(np.sum(vals[a::q], dtype=np.uint64))


def coprime_mean(X: int, q: int) -> Fraction:
    """Exact rational (1/phi(q)) sum of d_3(n) over n <= X coprime to q.

    The coprime total is the Moebius sum over squarefree d | q of
    mu(d) times the sum of d_3 over the multiples of d, so it shares no
    slicing with the progression sums it is compared against.
    """
    if q < 1:
        raise ValueError(f"need q >= 1, got q={q}")
    if X < 1:
        return Fraction(0)
    vals = divisor_table(3, X)
    total = 0
    for d in divisors(q):
        mu = factorize(d).mobius()
        if mu:
            total += mu * int(np.sum(vals[d::d], dtype=np.uint64))
    return Fraction(total, factorize(q).phi())


def _residue_totals(X: int, d: int) -> np.ndarray:
    """T[r] = sum of d_3(n) over n <= X, n = r mod d.

    Summed exactly in uint64; every total is below 2^53, so the float64
    result is exact.
    """
    vals = divisor_table(3, X)
    full = (X + 1) // d * d
    t = vals[:full].reshape(-1, d).sum(axis=0, dtype=np.uint64)
    t[: X + 1 - full] += vals[full:]
    return t.astype(np.float64)


@lru_cache(maxsize=2048)
def _char_sums(X: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(alphas, W) with W[j] = sum_r T_d[r] e(alpha_j r / d).

    The a-independent inner character sums; cached so a scan over all
    residues a shares the per-conductor work.
    """
    t = _residue_totals(X, d)
    alphas = np.nonzero(np.gcd(np.arange(d), d) == 1)[0]
    phases = np.exp(2j * np.pi * (np.outer(alphas, np.arange(d)) % d) / d)
    w = phases @ t
    alphas.setflags(write=False)
    w.setflags(write=False)
    return alphas, w


def ramanujan_decomposition(X: int, q: int, a: int) -> RamanujanDecomposition:
    """All the S(d), d | q, by direct complex summation over characters."""
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd(a={a}, q={q}) != 1")
    if not 1 <= a <= q:
        raise ValueError(f"need 1 <= a <= q, got a={a}")
    terms = []
    for d in divisors(q):
        alphas, w = _char_sums(X, d)
        shift = np.exp(-2j * np.pi * ((alphas * a) % d) / d)
        terms.append((d, complex(np.dot(w, shift)) / q))
    return RamanujanDecomposition(X=X, q=q, a=a, terms=tuple(terms))


def discrepancy_scan(X: int, moduli: list[int], tol: float = 1e-6) -> list[dict]:
    """Per-(q, a) discrepancies plus per-q aggregates and a family fit.

    Returns rows as dicts with keys X, q, a, ap_sum, coprime_mean,
    delta, max_abs_delta, slope_fit; aggregate rows carry a='*'.  The
    zero-sum identity is asserted exactly for every q, and the
    character decomposition of every (q, a) is verified to tol absolute.
    """
    rows: list[dict] = []
    family: list[tuple[int, float]] = []
    for q in moduli:
        mean = coprime_mean(X, q)
        zero_sum = Fraction(0)
        max_abs = 0.0
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            rec = ApDiscrepancy(
                X=X, q=q, a=a, ap_sum=d3_ap_sum(X, q, a), coprime_mean=mean
            )
            zero_sum += rec.delta_exact
            max_abs = max(max_abs, abs(rec.delta))
            defect = ramanujan_decomposition(X, q, a).defect(rec.ap_sum)
            if defect > tol:
                raise AssertionError(
                    f"Ramanujan splitting defect {defect} at q={q}, a={a}"
                )
            rows.append(
                {
                    "X": X,
                    "q": q,
                    "a": a,
                    "ap_sum": rec.ap_sum,
                    "coprime_mean": float(mean),
                    "delta": rec.delta,
                    "max_abs_delta": math.nan,
                    "slope_fit": math.nan,
                }
            )
        if zero_sum != 0:
            raise AssertionError(f"zero-sum identity violated at q={q}: {zero_sum}")
        family.append((q, max_abs))
        rows.append(
            {
                "X": X,
                "q": q,
                "a": "*",
                "ap_sum": 0,
                "coprime_mean": float(mean),
                "delta": math.nan,
                "max_abs_delta": max_abs,
                "slope_fit": math.nan,
            }
        )
    slope = _loglog_slope(family)
    for row in rows:
        if row["a"] == "*":
            row["slope_fit"] = slope
    return rows


def _loglog_slope(family: list[tuple[int, float]]) -> float:
    """Least-squares slope of log max|delta| against log q."""
    pts = [(q, m) for q, m in family if q > 1 and m > 0]
    if len(pts) < 2:
        return math.nan
    lq = np.log([q for q, _ in pts])
    lm = np.log([m for _, m in pts])
    return float(np.polyfit(lq, lm, 1)[0])


def d3_to_bilinear(Y: int, q: int, b: int = 1) -> tuple[complex, complex]:
    """One sharp-window d_3 sum, bracketed two ways.

    direct = sum_{Y < k <= 2Y} d_3(k) Kl3~(k b, q);
    glued  = sum_{n1 <= 2Y} sum_{Y/n1 < m <= 2Y/n1} d(m) Kl3~(m n1 b, q).
    The gluing m = n2 n3 makes these the same finite sum, so they agree
    to roundoff.
    """
    if q < 1 or Y < 1 or Y > 10**6:
        raise ValueError("need q >= 1 and 1 <= Y <= 10^6")
    tab = hyper_kl3_table(q)
    hi = 2 * Y
    d3 = divisor_table(3, hi)
    k = np.arange(Y + 1, hi + 1, dtype=np.int64)
    direct = complex(np.dot(d3[Y + 1 :].astype(float), tab[(k * b) % q]))
    d2 = divisor_table(2, hi)
    glued = 0j
    for n1 in range(1, hi + 1):
        m_lo, m_hi = Y // n1 + 1, hi // n1
        if m_lo > m_hi:
            continue
        m = np.arange(m_lo, m_hi + 1, dtype=np.int64)
        glued += complex(
            np.dot(d2[m_lo : m_hi + 1].astype(float), tab[(m * n1 * b) % q])
        )
    return direct, glued
