"""Multiplicative-function machinery.

Divisor functions and their sieved tables, Moebius and Euler-phi
accessors on exact factorizations, and the two-sided sigma_{0,0}
identity, scalar and over a whole grid.  The grid's literal route tests
coprimality in one gcd table and never reads d_3 or mu; its Moebius
route takes no gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .memo import stored

__all__ = [
    "Factorization",
    "IdentityViolation",
    "factorize",
    "divisor_table",
    "divisors",
    "sigma00",
    "sigma00_grid",
    "d3_exact",
]

_FACTOR_CAP = 10**12


class IdentityViolation(AssertionError):
    """The two sides of an exact identity disagreed (implementation bug)."""


@dataclass(frozen=True)
class Factorization:
    """n = prod p_i^{e_i} with p_i strictly increasing."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def mobius(self) -> int:
        if any(e > 1 for _, e in self.pairs):
            return 0
        return -1 if len(self.pairs) % 2 else 1

    def phi(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p ** (e - 1) * (p - 1)
        return out

    def omega(self) -> int:
        return len(self.pairs)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.pairs)

    def divisors(self) -> list[int]:
        out = [1]
        for p, e in self.pairs:
            out = [d * p**j for d in out for j in range(e + 1)]
        return sorted(out)


@stored(100_000)
def factorize(n: int) -> Factorization:
    """Exact factorization by trial division; 1 <= n <= 10^12."""
    if not 1 <= n <= _FACTOR_CAP:
        raise ValueError(f"n = {n} outside [1, {_FACTOR_CAP}]")
    m = n
    pairs: list[tuple[int, int]] = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            pairs.append((f, e))
        f += 1 if f == 2 else 2
    if m > 1:
        pairs.append((m, 1))
    return Factorization(n, tuple(pairs))


def divisors(n: int) -> list[int]:
    return factorize(n).divisors()


def d3_exact(n: int) -> int:
    """d_3(n) = prod (e_i + 1)(e_i + 2)/2, exact from the factorization."""
    out = 1
    for _, e in factorize(n).pairs:
        out *= (e + 1) * (e + 2) // 2
    return out


@stored(8)
def divisor_table(k: int, X: int) -> np.ndarray:
    """values[n] = d_k(n) for 1 <= n <= X (values[0] = 0), read-only uint32.

    The k-fold Dirichlet convolution of 1, sieved exactly; only divisors
    up to s = isqrt(X) are sieved.  d(n) counts each pair
    (i, n/i) with i <= s and i*i <= n twice, minus one when n = i*i.
    d_3(n) = sum_{i | n} d(n/i) splits into the divisors i <= s, one
    slice each, and the cofactors i > s, for which m = n/i <= s, so each
    m <= s adds d(m) along n = m*i, s < i <= X/m.
    """
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    if X < 1 or (k == 3 and X > 10**8):
        raise ValueError(f"X = {X} outside desk-scale range")
    s = math.isqrt(X)
    d2 = np.zeros(X + 1, dtype=np.uint32)
    for i in range(1, s + 1):
        d2[i * i :: i] += 2
        d2[i * i] -= 1
    if k == 2:
        d2.setflags(write=False)
        return d2
    d3 = np.zeros(X + 1, dtype=np.uint32)
    for i in range(1, s + 1):
        d3[i::i] += d2[1 : X // i + 1]
    for m in range(1, s + 1):
        top = X // m
        if top > s:
            d3[m * (s + 1) : m * top + 1 : m] += d2[m]
    d3.setflags(write=False)
    return d3


def sigma00(k: int, l: int) -> int:
    """The ternary-divisor count sum_{d1|l} sum_{d2|(l/d1), (d2,k)=1} 1.

    Evaluates both the literal double divisor sum and the equivalent
    Moebius convolution sum_{a | gcd(k,l)} mu(a) d_3(l/a); the two must
    agree exactly.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be positive")
    mobius_form = 0
    for a in divisors(math.gcd(k, l)):
        mu = factorize(a).mobius()
        if mu:
            mobius_form += mu * d3_exact(l // a)
    literal = 0
    for d1 in divisors(l):
        for d2 in divisors(l // d1):
            if math.gcd(d2, k) == 1:
                literal += 1
    if literal != mobius_form:
        raise IdentityViolation(
            f"sigma00({k},{l}): literal {literal} != moebius {mobius_form}"
        )
    return mobius_form


def sigma00_grid(cap: int) -> np.ndarray:
    """grid[k, l] = sigma00(k, l) for 1 <= k, l <= cap (row and column 0 unused).

    Both routes of sigma00, each vectorised over k.  Literal: for each l,
    count the pairs (d1, d2 | l/d1) with gcd(d2, k) = 1, as one gather of
    the columns d2 from a gcd table of every (k, d2) that is built once.
    Moebius: add mu(a) d_3(l/a) into the rows k = 0 mod a, for each
    squarefree a | l.  The two grids must agree exactly; the first (k, l)
    where they do not raises IdentityViolation.
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    coprime = _coprime_table(cap)
    literal = np.zeros((cap + 1, cap + 1), dtype=np.int64)
    mobius_form = np.zeros((cap + 1, cap + 1), dtype=np.int64)
    for l in range(1, cap + 1):
        d2s = [d2 for d1 in divisors(l) for d2 in divisors(l // d1)]
        literal[1:, l] = coprime[1:, d2s].sum(axis=1)
        for a in divisors(l):
            mu = factorize(a).mobius()
            if mu:
                mobius_form[a::a, l] += mu * d3_exact(l // a)
    bad = np.argwhere(literal != mobius_form)
    if len(bad):
        k, l = (int(v) for v in bad[0])
        raise IdentityViolation(
            f"sigma00({k},{l}): literal {literal[k, l]} != moebius {mobius_form[k, l]}"
        )
    return mobius_form


def _coprime_table(cap: int) -> np.ndarray:
    """coprime[k, d] = (gcd(k, d) == 1) for 0 <= k, d <= cap, by np.gcd."""
    ks = np.arange(cap + 1, dtype=np.int32)
    return np.gcd(ks[:, None], ks[None, :]) == 1
