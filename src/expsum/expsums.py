"""Kloosterman and hyper-Kloosterman sums.

Direct evaluators with compensated summation, the explicit evaluation
modulo odd prime powers, twisted multiplicativity (CRT splitting), the
normalised hyper-Kloosterman sum Kl3 with two independent evaluation
paths, the degeneration identity for non-coprime arguments, and
Weil/Deligne bound audits.

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
from .modarith import PrimePower, is_prime, legendre, sqrt_mod_pp

__all__ = [
    "BoundReport",
    "KloosterTable",
    "BadModulus",
    "NotDegenerate",
    "e_frac",
    "kloosterman_direct",
    "kloosterman_explicit_pp",
    "kloosterman_explicit_pp_table",
    "kloosterman_split",
    "kloosterman_table",
    "unit_inverse_table",
    "unit_mask",
    "hyper_kl3",
    "hyper_kl3_direct",
    "hyper_kl3_table",
    "hyper_kl3_table_direct",
    "hyper_kl3_degenerate_check",
    "weil_audit",
    "make_report",
]


class BadModulus(ValueError):
    """The explicit prime-power formula needs p odd and gamma >= 2."""


class NotDegenerate(ValueError):
    """gcd(n, q) = 1: there is nothing to degenerate."""


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
    if q == 1:
        return 1 + 0j
    acc = _Kahan()
    for x in range(1, q + 1):
        if math.gcd(x, q) != 1:
            continue
        acc.add(e_frac(a * x + b * pow(x, -1, q), q))
    return acc.value()


def kloosterman_explicit_pp(beta: int, pp: PrimePower) -> complex:
    """Closed-form S(1, beta; p^gamma) for p odd, gamma >= 2, p coprime to beta.

    Zero when (beta/p) = -1; otherwise
    2 * (l/p)^gamma * p^(gamma/2) * Re[eps_q * e(2*l/q)] where l^2 == beta
    (mod q) and eps_q is 1 for q == 1 (mod 4), i for q == 3 (mod 4).
    The value is independent of which root l is chosen.
    """
    if pp.gamma < 2 or pp.p == 2:
        raise BadModulus(f"need p odd and gamma >= 2, got p={pp.p}, gamma={pp.gamma}")
    if beta % pp.p == 0:
        raise ValueError(f"beta = {beta} must be coprime to p = {pp.p}")
    q = pp.q
    roots = sqrt_mod_pp(beta % q, pp)
    if roots is None:
        return 0j
    ell = roots[0]
    eps = 1 if q % 4 == 1 else 1j
    val = (eps * e_frac(2 * ell, q)).real
    return complex(2 * legendre(ell, pp.p) ** pp.gamma * pp.p ** (pp.gamma / 2) * val)


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


@dataclass(frozen=True)
class KloosterTable:
    """values[c] = S(1, c; q) for c in [0, q); real-valued."""

    q: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values.setflags(write=False)


@lru_cache(maxsize=16)
def kloosterman_table(q: int) -> KloosterTable:
    """All S(1, c; q) at once via one inverse FFT.

    S(1, c; q) = sum over units z of e(inv(z)/q) * e(c*z/q), which is q
    times the inverse DFT of V[z] = e(inv(z)/q) * [z unit].  The result
    is checked to be real to within 1e-9 * q.
    """
    if q == 1:
        return KloosterTable(1, np.ones(1))
    inv = unit_inverse_table(q)
    V = np.where(unit_mask(q), np.exp(2j * np.pi * inv / q), 0.0)
    vals = q * np.fft.ifft(V)
    worst = float(np.max(np.abs(vals.imag)))
    if worst > 1e-9 * q:
        raise AssertionError(f"S(1,.;{q}) imaginary part {worst} exceeds 1e-9*q")
    return KloosterTable(q, vals.real.copy())


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


def _kloosterman_factor(a: int, b: int, q: int) -> complex:
    """S(a, b; q) for a prime-power q, via table lookup when possible."""
    if q == 1:
        return 1 + 0j
    a %= q
    b %= q
    if math.gcd(a, q) == 1:
        # substitute x -> inv(a) x:  S(a, b; q) = S(1, a*b; q)
        return complex(kloosterman_table(q).values[(a * b) % q])
    if math.gcd(b, q) == 1:
        # symmetry S(a, b; q) = S(b, a; q) under x -> inv(x)
        return complex(kloosterman_table(q).values[(a * b) % q])
    return kloosterman_direct(a, b, q)


def kloosterman_split(a: int, b: int, q: int) -> complex:
    """S(a, b; q) by twisted multiplicativity over the prime-power factors.

    With q = prod q_i and v_i = inv(q/q_i) mod q_i,
        S(a, b; q) = prod_i S(a*v_i, b*v_i; q_i),
    valid for all a, b including degenerate gcd cases.  Specialised to
    a = 1 and a squarefree modulus this reproduces
    S(1, x-bar; q) = prod_i S(1, inv(q/q_i)^2 * x-bar; q_i).
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q == 1:
        return 1 + 0j
    out = 1 + 0j
    for p, e in factorize(q).pairs:
        qi = p**e
        vi = pow(q // qi, -1, qi) if qi > 1 else 0
        out *= _kloosterman_factor(a * vi, b * vi, qi)
    return out


def hyper_kl3_direct(m: int, q: int) -> complex:
    """Kl3(m, q) by the literal normalised double sum over unit pairs.

    (1/q) * sum over units x, y of e((m*x + y + inv(x*y))/q); O(q^2).
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q == 1:
        return 1 + 0j
    units = np.nonzero(unit_mask(q))[0].astype(np.int64)
    inv = unit_inverse_table(q)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    total = 0j
    for x in units:
        idx = (m * x + units + inv[(x * units) % q]) % q
        total += roots[idx].sum()
    return total / q


@lru_cache(maxsize=16)
def hyper_kl3_table(q: int) -> np.ndarray:
    """values[r] = Kl3(r, q) for all r mod q, via the Kloosterman-table path.

    Kl3(m, q) = (1/q) * sum over units x of e(m*x/q) * S(1, inv(x); q),
    which is the inverse DFT of U[x] = S(1, inv(x); q) * [x unit].
    """
    if q == 1:
        return np.ones(1, dtype=complex)
    inv = unit_inverse_table(q)
    sk = kloosterman_table(q).values
    U = np.where(unit_mask(q), sk[inv], 0.0)
    out = np.fft.ifft(U)
    out.setflags(write=False)
    return out


def hyper_kl3_table_direct(q: int) -> np.ndarray:
    """values[r] = Kl3(r, q) with the inner y-sum evaluated literally.

    Independent of the FFT-built Kloosterman table: for each unit x the
    sum W[x] = sum over units y of e((y + inv(x*y))/q) is accumulated
    term by term, then contracted against e(m*x/q).
    """
    if q == 1:
        return np.ones(1, dtype=complex)
    units = np.nonzero(unit_mask(q))[0].astype(np.int64)
    inv = unit_inverse_table(q)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    W = np.zeros(q, dtype=complex)
    for x in units:
        W[x] = roots[(units + inv[(x * units) % q]) % q].sum()
    return np.fft.ifft(W)


def hyper_kl3(m: int, q: int) -> complex:
    """Kl3(m, q) by the O(q) fast path given the Kloosterman table."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q == 1:
        return 1 + 0j
    return complex(hyper_kl3_table(q)[m % q])


def hyper_kl3_degenerate_check(m: int, n: int, b: int, q: int) -> BoundReport:
    """Verify the reduction of Kl3(m*n*b, q) when d = gcd(n, q) > 1.

    For d squarefree with gcd(d, q/d) = 1 the sum collapses to a smaller
    modulus:
        Kl3(m*n*b, q) = (1/d) * Kl3(m*(n/d)*b*inv(d)^2, q/d),
    the inverse of d^2 taken mod q/d.  When d has a square factor or
    shares a factor with q/d both sides vanish identically, and the
    check asserts that the left side is 0.  The report's sum_value is
    the defect (lhs - rhs) and the bound is the 1e-9 tolerance, so
    ratio <= 1 means the identity holds.
    """
    d = math.gcd(n, q)
    if d == 1:
        raise NotDegenerate(f"gcd({n}, {q}) = 1")
    lhs = hyper_kl3((m * n * b) % q, q)
    qd = q // d
    clean = factorize(d).is_squarefree() and math.gcd(d, qd) == 1
    if clean:
        dbar2 = pow(d * d, -1, qd) if qd > 1 else 0
        rhs = hyper_kl3((m * (n // d) * b * dbar2) % qd, qd) / d
    else:
        rhs = 0j
    defect = lhs - rhs
    report = make_report(
        sum_value=defect,
        bound_value=1e-9,
        vanishing_predicted=True,
        term_count=1,
        aux={"lhs": lhs, "rhs": rhs, "d": d, "collapses": clean, "residual": abs(defect)},
    )
    return report


def weil_audit(P: int, samples_per_prime: int = 3) -> BoundReport:
    """Exhaustive Weil and Deligne bound scan over primes p <= P.

    Checks |S(a, b; p)| <= 2*sqrt(p) for all unit pairs (reduced to the
    table S(1, a*b; p), with the reduction itself spot-checked against
    literal sums) and |Kl3(m, p)| <= 3 for all units m.  The report's
    ratio is the worst observed normalised value; bound_value 1 means
    ratio <= 1 is a pass.
    """
    max_weil = 0.0
    max_deligne = 0.0
    arg_weil: tuple[int, int] = (0, 0)
    arg_deligne: tuple[int, int] = (0, 0)
    for p in range(2, P + 1):
        if not is_prime(p):
            continue
        sk = kloosterman_table(p).values
        weil = float(np.max(np.abs(sk[1:]))) / (2 * math.sqrt(p))
        if weil > max_weil:
            max_weil, arg_weil = weil, (p, int(np.argmax(np.abs(sk[1:])) + 1))
        for k in range(samples_per_prime):
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
