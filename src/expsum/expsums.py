"""Kloosterman and hyper-Kloosterman sums.

Direct evaluators with compensated summation, the explicit evaluation
modulo odd prime powers, twisted multiplicativity (CRT splitting), the
normalised hyper-Kloosterman sum Kl3 with two independent evaluation
paths, and Weil/Deligne bound audits.

Tables are read-only numpy arrays indexed by residue, cached per
modulus in lru_cache(16)s, except the prime-power factor tables of the
CRT split: every prime power up to _FACTOR_KEEP = 5000 keeps its table
S(1, .; p^e) for the life of the process, so each is built once however
many moduli share it (at most 12.8 MB of float64, when all 711 are
held).  The caches take no lock: --jobs runs in worker processes, and
each worker fills its own copies.

Conventions used throughout:
  * e(x) = exp(2*pi*i*x), always evaluated on a reduced fraction
    (numerator mod q)/q so angles stay small.
  * S(1, w-bar; q) with w NOT a unit mod q denotes the sum over pairs
    of units x, z with w*x*z == 1 (mod q), which is empty, hence 0.
    This is the unique convention that commutes with CRT splitting and
    it is applied wherever an inverted argument degenerates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import factorize
from .modarith import PrimePower, is_prime, legendre

__all__ = [
    "BoundReport",
    "BadModulus",
    "e_frac",
    "kloosterman_direct",
    "kloosterman_explicit_pp_table",
    "kloosterman_split",
    "kloosterman_split_row",
    "kloosterman_table",
    "unit_inverse_table",
    "unit_mask",
    "hyper_kl3_table",
    "hyper_kl3_table_direct",
    "weil_audit",
    "make_report",
]


class BadModulus(ValueError):
    """The explicit prime-power formula needs p odd and gamma >= 2."""


@dataclass
class BoundReport:
    """A computed sum against a bound expression.

    ratio = |sum_value| / bound_value (inf when the bound is 0 and the
    sum is not); vanished means |sum_value| <= 1e-6 * term_count.
    Extra per-operation facts (case labels, right-hand sides, residuals)
    travel in aux.
    """

    sum_value: complex
    bound_value: float
    ratio: float
    vanishing_predicted: bool
    vanished: bool
    term_count: int = 1
    aux: dict = field(default_factory=dict)


def make_report(
    sum_value: complex,
    bound_value: float,
    vanishing_predicted: bool,
    term_count: int,
    aux: dict | None = None,
) -> BoundReport:
    mag = abs(sum_value)
    if bound_value == 0.0:
        ratio = 0.0 if mag == 0.0 else math.inf
    else:
        ratio = mag / bound_value
    return BoundReport(
        sum_value=sum_value,
        bound_value=bound_value,
        ratio=ratio,
        vanishing_predicted=vanishing_predicted,
        vanished=mag <= 1e-6 * term_count,
        term_count=term_count,
        aux=aux or {},
    )


def e_frac(num: int, den: int) -> complex:
    """e(num/den) from the reduced fraction; keeps angles in [0, 2*pi)."""
    return cmath.exp(2j * math.pi * (num % den) / den)


class _Kahan:
    """Compensated accumulation of complex terms."""

    __slots__ = ("re", "im", "cre", "cim")

    def __init__(self) -> None:
        self.re = self.im = self.cre = self.cim = 0.0

    def add(self, z: complex) -> None:
        y = z.real - self.cre
        t = self.re + y
        self.cre = (t - self.re) - y
        self.re = t
        y = z.imag - self.cim
        t = self.im + y
        self.cim = (t - self.im) - y
        self.im = t

    def value(self) -> complex:
        return complex(self.re, self.im)


def kloosterman_direct(a: int, b: int, q: int) -> complex:
    """S(a, b; q) = sum over units x mod q of e((a*x + b*inv(x))/q).

    Literal O(q) loop with compensated summation; defined for all a, b
    including degenerate gcd cases (the sum stays over units).
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    acc = _Kahan()
    for x in range(1, q + 1):
        if math.gcd(x, q) != 1:
            continue
        acc.add(e_frac(a * x + b * pow(x, -1, q), q))
    return acc.value()


@lru_cache(maxsize=16)
def unit_mask(q: int) -> np.ndarray:
    """Boolean array over [0, q): which residues are units.

    Sieved: every residue starts True and the multiples of each prime
    dividing q are cleared.
    """
    m = np.ones(q, dtype=bool)
    for p, _ in factorize(q).pairs:
        m[::p] = False
    m.setflags(write=False)
    return m


@lru_cache(maxsize=16)
def unit_inverse_table(q: int) -> np.ndarray:
    """inv(x) mod q for units x, 0 for non-units; vectorised modular power.

    Raises the units alone to lambda(q) - 1, where lambda is the
    Carmichael function: the exponent of the unit group, so x^lambda(q)
    == 1 and x^(lambda(q)-1) == inv(x) (mod q) for every unit x.
    q <= 10^6 keeps the int64 products exact.
    """
    if q == 1:
        out = np.zeros(1, dtype=np.int64)
        out.setflags(write=False)
        return out
    if q > 10**6:
        raise ValueError(f"q = {q} beyond desk-scale table range")
    lam = 1
    for p, k in factorize(q).pairs:
        # lambda(p^k) = phi(p^k), except lambda(2^k) = 2^(k-2) for k >= 3
        lam_pk = 2 ** (k - 2) if p == 2 and k >= 3 else p ** (k - 1) * (p - 1)
        lam = math.lcm(lam, lam_pk)
    mask = unit_mask(q)
    base = np.flatnonzero(mask)
    acc = np.ones(len(base), dtype=np.int64)
    e = lam - 1
    while e:
        if e & 1:
            acc = (acc * base) % q
        e >>= 1
        if e:
            base = (base * base) % q
    out = np.zeros(q, dtype=np.int64)
    out[mask] = acc
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def kloosterman_table(q: int) -> np.ndarray:
    """values[c] = S(1, c; q) for c in [0, q), all at once via one inverse FFT.

    S(1, c; q) = sum over units z of e(inv(z)/q) * e(c*z/q), which is q
    times the inverse DFT of V[z] = e(inv(z)/q) * [z unit].  The phases
    are computed at the units alone; V is 0 elsewhere.  The result is
    checked to be real to within 1e-9 * q.
    """
    mask = unit_mask(q)
    V = np.zeros(q, dtype=complex)
    V[mask] = np.exp(2j * np.pi * unit_inverse_table(q)[mask] / q)
    vals = q * np.fft.ifft(V)
    worst = float(np.max(np.abs(vals.imag)))
    if worst > 1e-9 * q:
        raise AssertionError(f"S(1,.;{q}) imaginary part {worst} exceeds 1e-9*q")
    out = vals.real.copy()
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def kloosterman_explicit_pp_table(pp: PrimePower) -> np.ndarray:
    """values[beta] = closed-form S(1, beta; p^gamma) for units beta, 0 otherwise.

    Vectorised: one pass records the smallest square root of every unit
    quadratic residue, then the closed form is applied in bulk.
    """
    if pp.gamma < 2 or pp.p == 2:
        raise BadModulus(f"need p odd and gamma >= 2, got p={pp.p}, gamma={pp.gamma}")
    p, q = pp.p, pp.q
    x = np.arange(q, dtype=np.int64)
    units = x[(x % p) != 0]
    roots = np.full(q, q, dtype=np.int64)
    np.minimum.at(roots, (units * units) % q, units)
    vals = np.zeros(q)
    has = roots < q
    ell = roots[has]
    leg_table = np.array([0] + [legendre(r, p) for r in range(1, p)], dtype=np.int64)
    sign = leg_table[ell % p] ** pp.gamma
    phase = 2 * np.pi * ((2 * ell) % q) / q
    real_part = np.cos(phase) if q % 4 == 1 else -np.sin(phase)
    vals[has] = 2.0 * sign * p ** (pp.gamma / 2) * real_part
    vals.setflags(write=False)
    return vals


# Prime powers up to this size keep their factor table for the life of
# the process.  Every prime-power factor of a composite modulus up to the
# CLI cap 10^4 is at most 5000; holding all 711 prime powers <= 5000 at
# once takes 12.8 MB of float64.  Larger ones (explicit_pp builds up to
# 10^6) go through kloosterman_table's LRU cache.
_FACTOR_KEEP = 5000
_factor_tables: dict[int, np.ndarray] = {}


def _factor_values(qi: int) -> np.ndarray:
    """kloosterman_table(qi), kept when qi <= _FACTOR_KEEP."""
    if qi > _FACTOR_KEEP:
        return kloosterman_table(qi)
    if qi not in _factor_tables:
        _factor_tables[qi] = kloosterman_table(qi)
    return _factor_tables[qi]


def _kloosterman_factor(a: int, b: int, q: int) -> complex:
    """S(a, b; q) for a prime-power q, via table lookup when possible."""
    a %= q
    b %= q
    if math.gcd(a, q) == 1 or math.gcd(b, q) == 1:
        # a unit: substitute x -> inv(a) x, so S(a, b; q) = S(1, a*b; q);
        # b unit: the same after the symmetry S(a, b; q) = S(b, a; q)
        return complex(_factor_values(q)[(a * b) % q])
    return kloosterman_direct(a, b, q)


def kloosterman_split(a: int, b: int, q: int) -> complex:
    """S(a, b; q) by twisted multiplicativity over the prime-power factors.

    With q = prod q_i and v_i = inv(q/q_i) mod q_i,
        S(a, b; q) = prod_i S(a*v_i, b*v_i; q_i),
    valid for all a, b including degenerate gcd cases.  Specialised to
    a = 1 and a squarefree modulus this reproduces
    S(1, x-bar; q) = prod_i S(1, inv(q/q_i)^2 * x-bar; q_i).
    The factor tables S(1, .; q_i) of prime powers q_i <= _FACTOR_KEEP
    (5000) are built once and kept, 12.8 MB at most; larger ones come
    from kloosterman_table's LRU cache.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    out = 1 + 0j
    for p, e in factorize(q).pairs:
        qi = p**e
        vi = pow(q // qi, -1, qi)
        out *= _kloosterman_factor(a * vi, b * vi, qi)
    return out


def kloosterman_split_row(q: int) -> np.ndarray:
    """S(1, m; q) for every m in [0, q) by twisted multiplicativity.

    The factor lookups of kloosterman_split(1, m, q), made for all m in
    one gather per factor; entry m equals that scalar bit for bit.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    out = np.ones(q, dtype=complex)
    m = np.arange(q, dtype=np.int64)
    for p, e in factorize(q).pairs:
        qi = p**e
        vi = pow(q // qi, -1, qi)
        out *= _factor_values(qi)[(vi * ((m * vi) % qi)) % qi]
    return out


@lru_cache(maxsize=16)
def hyper_kl3_table(q: int) -> np.ndarray:
    """values[r] = Kl3(r, q) for all r mod q, via the Kloosterman-table path.

    Kl3(m, q) = (1/q) * sum over units x of e(m*x/q) * S(1, inv(x); q),
    which is the inverse DFT of U[x] = S(1, inv(x); q) * [x unit].
    """
    inv = unit_inverse_table(q)
    sk = kloosterman_table(q)
    U = np.where(unit_mask(q), sk[inv], 0.0)
    out = np.fft.ifft(U)
    out.setflags(write=False)
    return out


_ROW_BLOCK = 2**18  # terms per block of hyper_kl3_table_direct: 4 MB of complex


def hyper_kl3_table_direct(q: int) -> np.ndarray:
    """values[r] = Kl3(r, q) with the inner y-sum evaluated literally.

    Independent of the FFT-built Kloosterman table: for each unit x the
    sum W[x] = sum over units y of e((y + inv(x*y))/q) is accumulated
    term by term, then contracted against e(m*x/q).  The rows x are
    summed in blocks of at most _ROW_BLOCK terms; each row is still one
    contiguous pairwise sum, so W does not depend on the block size.
    """
    units = np.nonzero(unit_mask(q))[0].astype(np.int64)
    inv = unit_inverse_table(q)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    W = np.zeros(q, dtype=complex)
    rows = max(1, _ROW_BLOCK // len(units))
    for lo in range(0, len(units), rows):
        xs = units[lo : lo + rows]
        W[xs] = roots[(units + inv[np.outer(xs, units) % q]) % q].sum(axis=1)
    return np.fft.ifft(W)


def weil_audit(P: int) -> BoundReport:
    """Exhaustive Weil and Deligne bound scan over primes p <= P.

    Checks |S(a, b; p)| <= 2*sqrt(p) for all unit pairs (reduced to the
    table S(1, a*b; p), with the reduction itself spot-checked against
    three literal sums per prime) and |Kl3(m, p)| <= 3 for all units m.
    The report's ratio is the worst observed normalised value;
    bound_value 1 means ratio <= 1 is a pass.
    """
    max_weil = 0.0
    max_deligne = 0.0
    arg_weil: tuple[int, int] = (0, 0)
    arg_deligne: tuple[int, int] = (0, 0)
    for p in range(2, P + 1):
        if not is_prime(p):
            continue
        sk = kloosterman_table(p)
        weil = float(np.max(np.abs(sk[1:]))) / (2 * math.sqrt(p))
        if weil > max_weil:
            max_weil, arg_weil = weil, (p, int(np.argmax(np.abs(sk[1:])) + 1))
        for k in range(3):
            a = 1 + (k * 7919) % (p - 1) if p > 2 else 1
            b = 1 + (k * 104729) % (p - 1) if p > 2 else 1
            lit = kloosterman_direct(a, b, p)
            tab = sk[(a * b) % p]
            if abs(lit - tab) > 1e-9 * p:
                raise AssertionError(
                    f"S({a},{b};{p}) literal {lit} vs reduced {tab}"
                )
        hk = hyper_kl3_table(p)
        dl = float(np.max(np.abs(hk[1:]))) / 3.0
        if dl > max_deligne:
            max_deligne, arg_deligne = dl, (p, int(np.argmax(np.abs(hk[1:])) + 1))
    worst = max(max_weil, max_deligne)
    return make_report(
        sum_value=complex(worst),
        bound_value=1.0,
        vanishing_predicted=False,
        term_count=1,
        aux={
            "max_weil_ratio": max_weil,
            "weil_argmax": arg_weil,
            "max_deligne_ratio": max_deligne,
            "deligne_argmax": arg_deligne,
        },
    )
