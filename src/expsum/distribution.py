"""d_3 in arithmetic progressions: exact sums, Ramanujan splitting, scans.

The target statement is equidistribution of the ternary divisor
function over invertible residue classes: for gcd(a, q) = 1,

    sum_{n <= X, n = a (q)} d_3(n)  ~  (1/phi(q)) sum_{n <= X, (n,q)=1} d_3(n).

Everything on the left and right is computed exactly (integers and
rationals), so the discrepancy delta(X; q, a) = ap_sum - coprime_mean
satisfies the identity sum_a delta = 0 exactly.  discrepancy_scan works
on each modulus q whole, and each quantity has its own route:

- the progression sums of every class come from one fold T_q of the
  d_3 table by n mod q (exact: rows of at least 256 in uint32 while no
  total can reach 2^32, then mod q in uint64); d3_ap_sum, the slice
  n = a mod q, re-computes one class per modulus and must agree;
- the coprime total comes from coprime_mean, the Moebius sum over
  squarefree d | q of the multiples of d; the process sums each d's
  multiples once per X, from the table and never from a fold, for every
  modulus d divides and every scan; the zero-sum identity is
  sum_a T_q[a] = that total, compared as integers, and each delta is
  one correctly rounded integer division;
- the Ramanujan splitting below reads each conductor's own fold T_d,
  taken from the table rather than from T_q.

The asymptotic error term itself has unspecified constants and is not
a pass/fail subject; scans record the normalised discrepancy and a
log-log slope fit as empirical reference output.

The Ramanujan decomposition splits the progression indicator into
additive characters grouped by conductor:

    S(d) = (1/q) sum*_{alpha mod d} sum_{n <= X} d_3(n) e(alpha (n-a)/d),

summed over d | q this telescopes exactly to the progression sum; the
check's absolute limit RAMANUJAN_TOL = 1e-6 absorbs only roundoff.  The
inner sum is W_d(alpha) = sum_r T_d[r] e(alpha r/d), a length-d DFT of
T_d, and one more DFT of W_d at the units gives S(d) at every class a at
once, so a modulus costs O(sum_{d | q} d log d) after its folds.

d3_to_bilinear re-brackets a sharp-window sum sum_{Y < k <= 2Y} d_3(k)
Kl3~(k b, q) through the gluing m = n2 n3, producing the bilinear shape
sum_{n1} sum_m d(m) Kl3~(m n1 b, q); the two bracketings are the same
finite sum term-for-term.  Its (n1, m) pairs are laid out in one pass
of index arithmetic, and each n1 still adds one dot product of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import divisor_table, divisors, factorize
from .expsums import hyper_kl3_table
from .memo import stored
from .modarith import units

__all__ = [
    "RamanujanDecomposition",
    "d3_ap_sum",
    "coprime_mean",
    "ramanujan_decomposition",
    "discrepancy_scan",
    "d3_to_bilinear",
]


RAMANUJAN_TOL = 1e-6  # |sum_d S(d) - ap_sum| at any class; criterion 10 and the scan alike
_PAIR_BLOCK = 1 << 16  # glued (n1, m) pairs laid out at once by d3_to_bilinear


@dataclass(frozen=True)
class RamanujanDecomposition:
    """Additive-character splitting of every unit-class progression sum mod q."""

    X: int
    q: int
    units: np.ndarray  # the classes 1 <= a <= q with gcd(a, q) = 1
    terms: tuple[tuple[int, np.ndarray], ...]  # (d, S(d) at each unit) for d | q

    def defects(self, ap: np.ndarray) -> np.ndarray:
        """|sum_d S(d) - ap| at each unit for exact sums ap; roundoff only."""
        return np.abs(sum(s for _, s in self.terms) - ap)


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
    total = sum(mu * _multiples(X, d) for d in divisors(q) if (mu := factorize(d).mobius()))
    return Fraction(total, factorize(q).phi())


@stored(None)
def _multiples(X: int, d: int) -> int:
    """The sum of d_3(n) over the multiples n of d up to X, summed once per (X, d)."""
    return int(np.sum(divisor_table(3, X)[d::d], dtype=np.uint64))


def _residue_totals(X: int, d: int) -> np.ndarray:
    """T[r] = sum of d_3(n) over n <= X, n = r mod d, exactly in uint64.

    The table is first folded into rows of w >= 256 entries, w a
    multiple of d, in _row_dtype(X), and those w totals then mod d in
    uint64: summing rows of a few columns is slow (11 ms against 1 ms at
    d = 2, X = 10^6).
    """
    vals = divisor_table(3, X)
    w = d * -(-256 // d)
    full = vals.size // w * w
    t = vals[:full].reshape(-1, w).sum(axis=0, dtype=_row_dtype(X))
    t[: vals.size - full] += vals[full:]
    return t.reshape(-1, d).sum(axis=0, dtype=np.uint64)


def _row_dtype(X: int) -> type:
    """uint32 while no partial total of d_3 up to X can reach 2^32, else uint64.

    Each is at most sum_{n <= X} d_3(n) = sum_{ab <= X} [X/(ab)] <=
    X (1 + log X)^2, which is 2.2e8 at X = 10^6 and passes 2^32 near
    X = 1.4e7.  Folding in the table's own uint32 is twice as fast as
    widening to uint64 (0.17 against 0.32 ms a modulus at X = 10^6).
    """
    return np.uint32 if X * (1 + math.log(X)) ** 2 < 2**32 else np.uint64


@stored(2048)
def _char_sums(X: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(T_d, R_d) with R_d[r] = sum*_{alpha mod d} W(alpha) e(-alpha r/d).

    T_d is the fold mod d.  W(alpha) = sum_r T_d[r] e(alpha r/d) is the
    conjugate DFT of the real T_d (every total is below 2^53, so exact in
    float64); a second DFT of W kept at the units gives R_d = q S(d) at
    every class r mod d.
    """
    t = _residue_totals(X, d)
    is_unit = np.gcd(np.arange(d), d) == 1
    r = np.fft.fft(np.conj(np.fft.fft(t.astype(np.float64))) * is_unit)
    t.setflags(write=False)
    r.setflags(write=False)
    return t, r


def _units(q: int) -> np.ndarray:
    return np.array(units(q))


def ramanujan_decomposition(X: int, q: int) -> RamanujanDecomposition:
    """All the S(d), d | q, at every unit class a mod q, one FFT pair per d."""
    if q < 1:
        raise ValueError(f"need q >= 1, got q={q}")
    units = _units(q)
    terms = tuple((d, _char_sums(X, d)[1][units % d] / q) for d in divisors(q))
    return RamanujanDecomposition(X=X, q=q, units=units, terms=terms)


def discrepancy_scan(X: int, moduli: list[int]) -> list[dict]:
    """Per-(q, a) discrepancies plus per-q aggregates and a family fit.

    Returns rows as dicts with keys X, q, a, ap_sum, coprime_mean,
    delta, max_abs_delta, slope_fit; aggregate rows carry a='*'.  Each
    modulus is handled whole: the progression sums are read off the
    fold T_q, checked against the slice route d3_ap_sum at a = 1; the
    zero-sum identity sum_a ap_sum = phi(q) coprime_mean is asserted
    exactly against the Moebius route; and the character decomposition
    of every unit class is verified to RAMANUJAN_TOL absolute.
    """
    rows: list[dict] = []
    family: list[tuple[int, float]] = []
    for q in moduli:
        mean = coprime_mean(X, q)
        units = _units(q)
        ap = _char_sums(X, q)[0][units % q]
        if int(ap[0]) != d3_ap_sum(X, q, 1):
            raise AssertionError(f"fold mod {q} differs from the slice sum at a=1")
        aps = ap.tolist()
        zero_sum = sum(aps) - len(aps) * mean
        if zero_sum != 0:
            raise AssertionError(f"zero-sum identity violated at q={q}: {zero_sum}")
        defects = ramanujan_decomposition(X, q).defects(ap.astype(np.float64))
        bad = np.flatnonzero(~(defects <= RAMANUJAN_TOL))  # a nan fails too
        if bad.size:
            i = bad[0]
            raise AssertionError(
                f"Ramanujan splitting defect {defects[i]} at q={q}, a={units[i]}"
            )
        # ap - mean as one integer division, rounded as float(Fraction) rounds
        num, den, mean_f = mean.numerator, mean.denominator, float(mean)
        deltas = [(s * den - num) / den for s in aps]
        max_abs = max(map(abs, deltas))
        family.append((q, max_abs))
        rows += [_row(X, q, a, s, mean_f, d)
                 for a, s, d in zip(units.tolist(), aps, deltas)]
        rows.append(_row(X, q, "*", 0, mean_f, math.nan, max_abs))
    slope = _loglog_slope(family)
    for row in rows:
        if row["a"] == "*":
            row["slope_fit"] = slope
    return rows


def _row(X, q, a, ap_sum, mean, delta, max_abs=math.nan) -> dict:
    return {"X": X, "q": q, "a": a, "ap_sum": ap_sum, "coprime_mean": mean,
            "delta": delta, "max_abs_delta": max_abs, "slope_fit": math.nan}


def _loglog_slope(family: list[tuple[int, float]]) -> float:
    """Least-squares slope of log max|delta| against log q, each q once.

    A repeated modulus has the same max|delta|, so it adds no point; with
    fewer than two distinct q > 1 there is no line, and the slope is nan.
    """
    pts = {q: m for q, m in family if q > 1 and m > 0}
    if len(pts) < 2:
        return math.nan
    lq = np.log(list(pts))
    lm = np.log(list(pts.values()))
    return float(np.polyfit(lq, lm, 1)[0])


def d3_to_bilinear(Y: int, q: int, b: int = 1) -> tuple[complex, complex]:
    """One sharp-window d_3 sum, bracketed two ways.

    direct = sum_{Y < k <= 2Y} d_3(k) Kl3~(k b, q);
    glued  = sum_{n1 <= 2Y} sum_{Y/n1 < m <= 2Y/n1} d(m) Kl3~(m n1 b, q).
    The gluing m = n2 n3 makes these the same finite sum, so they agree
    to roundoff.  The glued pairs (n1, m) are laid out n1-major, in
    blocks of whole n1 segments (a single block while Y <= 6362);
    each non-empty segment is one float64 . complex128 dot, added to
    glued in n1 order.
    """
    if q < 1 or Y < 1 or Y > 10**6:
        raise ValueError("need q >= 1 and 1 <= Y <= 10^6")
    tab = hyper_kl3_table(q)
    hi = 2 * Y
    d3 = divisor_table(3, hi)
    k = np.arange(Y + 1, hi + 1, dtype=np.int64)
    direct = complex(np.dot(d3[Y + 1 :].astype(float), tab[(k * b) % q]))
    n1 = np.arange(1, hi + 1, dtype=np.int64)
    counts = hi // n1 - Y // n1  # the m in (Y/n1, 2Y/n1]
    ends = np.cumsum(counts)
    d2 = divisor_table(2, hi)
    glued = 0j
    first = 0
    while first < hi:  # whole n1 segments, about _PAIR_BLOCK pairs a block
        cap = ends[first] - counts[first] + _PAIR_BLOCK
        last = max(first + 1, int(np.searchsorted(ends, cap, side="right")))
        nb, cb = n1[first:last], counts[first:last]
        seg_ends = np.cumsum(cb)
        seg_starts = seg_ends - cb
        m = np.arange(seg_ends[-1]) - np.repeat(seg_starts - Y // nb - 1, cb)
        weights = d2[m].astype(float)
        vals = tab[(m * np.repeat(nb, cb) * b) % q]
        for s, e in zip(seg_starts[cb > 0].tolist(), seg_ends[cb > 0].tolist()):
            glued += complex(np.dot(weights[s:e], vals[s:e]))
        first = last
    return direct, glued
