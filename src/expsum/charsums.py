"""Correlation sums of Kloosterman sums.

Brute-force evaluators, bound expressions, and exact vanishing
predicates for five families of correlation sums over prime-power and
composite moduli: the two-variable congruence-constrained family
c_{gamma,u}, its prime specialisation c_{1,1} together with a Moebius
matrix reduction, a multiplicative-shift correlation over prime powers,
the CRT-factorable family calC over arbitrary moduli, and the glued
double sum frakC2 that couples a small squarefree modulus d to a large
modulus q.

Every evaluator follows the same degeneration convention as expsums:
an inverted argument that is not a unit makes its Kloosterman factor
vanish (the underlying pair sum is empty), which is the unique choice
compatible with CRT factorisation.
"""

from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass

from .arith import IdentityViolation, divisors, factorize
from .expsums import (
    BoundReport,
    kloosterman_table,
    make_report,
    unit_inverse_table,
    unit_mask,
)
from .modarith import PrimePower, sqrt_mod_pp, valuation_capped

__all__ = [
    "CharSumParams",
    "BoundReport",
    "HypothesisViolated",
    "SingularTransform",
    "NotSquareFree",
    "frakC_gamma_u",
    "ppower_bound",
    "frakC_11",
    "frakC_11_completed",
    "moebius_reduce",
    "moebius_correlation",
    "df_correlation",
    "calC",
    "frakC2_glue",
]

RATIO_CAP = 16.0  # generous absolute stand-in for the lemmas' implied constants


class HypothesisViolated(ValueError):
    """Lemma preconditions (gamma > 1, u <= 4*gamma/5, m != 0, units) fail."""


class SingularTransform(ValueError):
    """One of the 2x2 transforms is singular mod p."""


class NotSquareFree(ValueError):
    """The glue modulus d must be squarefree."""


@dataclass(frozen=True)
class CharSumParams:
    """Parameters (p^gamma, u; s_j, t_j, lam_j, m) of the c_{gamma,u} family.

    s_j, lam_j must be units mod p and the t_j units mod 2p; u <= gamma.
    """

    pp: PrimePower
    u: int
    s1: int
    t1: int
    s2: int
    t2: int
    lam1: int
    lam2: int
    m: int

    def __post_init__(self) -> None:
        p = self.pp.p
        if not 0 <= self.u <= self.pp.gamma:
            raise ValueError(f"u = {self.u} out of range [0, {self.pp.gamma}]")
        for name in ("s1", "s2", "lam1", "lam2"):
            if math.gcd(getattr(self, name), p) != 1:
                raise ValueError(f"{name} must be coprime to p = {p}")
        for name in ("t1", "t2"):
            if math.gcd(2 * getattr(self, name), p) != 1:
                raise ValueError(f"gcd(2*{name}, p) must be 1, p = {p}")


def frakC_gamma_u(params: CharSumParams) -> complex:
    """Brute-force evaluation of the congruence-constrained double sum.

    Sum over unit pairs a1, a2 mod p^u with
        lam1 * inv(a1) - lam2 * inv(a2) == m  (mod p^u)
    of S(1, inv(s1*p^(gamma-u)*a1 + t1); p^gamma) times the conjugate
    factor with index 2.  The congruence is solved for inv(a2) given a1,
    so the cost is one pass over the units mod p^u.  Kloosterman values
    are real, hence so is the sum.
    """
    p, gamma, u = params.pp.p, params.pp.gamma, params.u
    q = params.pp.q
    pu = p**u
    pg_u = p ** (gamma - u)
    table = kloosterman_table(q)
    invq = unit_inverse_table(q)
    umq = unit_mask(q)
    units = np.nonzero(unit_mask(pu))[0].astype(np.int64)
    inv_pu = unit_inverse_table(pu)
    lam2_inv = pow(params.lam2, -1, pu) if pu > 1 else 0

    abar1 = inv_pu[units]
    abar2 = (lam2_inv * ((params.lam1 % pu) * abar1 - params.m)) % pu
    ok = unit_mask(pu)[abar2]
    a1 = units[ok]
    a2 = inv_pu[abar2[ok]]
    w1 = ((params.s1 % q) * (pg_u % q) % q * a1 + params.t1) % q
    w2 = ((params.s2 % q) * (pg_u % q) % q * a2 + params.t2) % q
    f1 = np.where(umq[w1], table[invq[w1]], 0.0)
    f2 = np.where(umq[w2], table[invq[w2]], 0.0)
    return complex(float(np.dot(f1, f2)))


def ppower_bound(params: CharSumParams) -> BoundReport:
    """Evaluate c_{gamma,u} against its two-case bound with vanishing test.

    Requires gamma > 1, u <= 4*gamma/5 and m != 0.  With nu = min(
    val_p(m), gamma):

    Case A (u/2 < gamma-u or nu < gamma-u): bound
    p^(gamma + ceil(u/2) + nu).

    Case B (otherwise): the sum vanishes unless
    t1^(-3/2)*s1*lam1 == t2^(-3/2)*s2*lam2 (mod p^(gamma-u)) for some
    branch of the square roots; all four sign combinations are tried and
    vanishing is predicted only when every one fails (or a t_j is a
    non-residue, in which case every term is already 0).  Bound
    p^(gamma + u).
    """
    p, gamma, u = params.pp.p, params.pp.gamma, params.u
    if gamma <= 1:
        raise HypothesisViolated(f"gamma = {gamma} must be > 1")
    if 5 * u > 4 * gamma:
        raise HypothesisViolated(f"u = {u} exceeds 4*gamma/5 = {4*gamma/5}")
    if params.m == 0:
        raise HypothesisViolated("m must be nonzero")
    nu = valuation_capped(params.m, p, gamma)
    k = gamma - u
    case_a = (3 * u < 2 * gamma) or (nu < k)
    predicted = False
    congruence_ok: bool | None = None
    if case_a:
        bound = float(p ** (gamma + (u + 1) // 2 + nu))
    else:
        pk = p**k
        ppk = PrimePower(p, k)
        roots1 = sqrt_mod_pp(params.t1 % pk, ppk)
        roots2 = sqrt_mod_pp(params.t2 % pk, ppk)
        if roots1 is None or roots2 is None:
            congruence_ok = False
        else:
            congruence_ok = any(
                (params.s1 * params.lam1 * pow(l2, 3, pk)
                 - params.s2 * params.lam2 * pow(l1, 3, pk)) % pk == 0
                for l1 in roots1
                for l2 in roots2
            )
        predicted = not congruence_ok
        bound = float(p ** (gamma + u))
    value = frakC_gamma_u(params)
    return make_report(
        sum_value=value,
        bound_value=bound,
        vanishing_predicted=predicted,
        term_count=p ** (2 * u),
        aux={"case": "A" if case_a else "B", "nu": nu, "k": k,
             "congruence_ok": congruence_ok},
    )


def _act(mat: "Matrix2", a: int | None, p: int) -> int | None:
    """Moebius action of mat on a point of P^1(F_p); None is infinity."""
    (A, B), (C, D) = mat
    if a is None:
        num, den = A, C
    else:
        num, den = A * a + B, C * a + D
    if den % p == 0:
        return None
    return num * pow(den, -1, p) % p


def frakC_11_completed(
    p: int, s1: int, t1: int, s2: int, t2: int, lam1: int, lam2: int, m: int
) -> complex:
    """The c_{1,1} correlation completed over the projective line.

    Sum over a1 in P^1(F_p) of F(delta1(a1)) * conj F(delta2(delta3(a1)))
    with F(x) = S(1, x; p) for finite x (so F(0) = -1) and F(inf) = 0,
    each delta acting projectively.  Because the substitution
    c = delta1(a1) is a bijection of P^1, this equals the matrix-reduced
    correlation of moebius_correlation exactly; the unit-restricted sum
    of frakC_11 differs from it by O(p) boundary terms.
    """
    d1: Matrix2 = ((0, 1), (s1 % p, t1 % p))
    d2: Matrix2 = ((0, 1), (s2 % p, t2 % p))
    d3: Matrix2 = ((lam2 % p, 0), ((-m) % p, lam1 % p))
    table = kloosterman_table(p)

    def F(x: int | None) -> float:
        return 0.0 if x is None else float(table[x])

    total = 0.0
    points: list[int | None] = list(range(p)) + [None]
    for a1 in points:
        total += F(_act(d1, a1, p)) * F(_act(d2, _act(d3, a1, p), p))
    return complex(total)


def frakC_11(
    p: int, s1: int, t1: int, s2: int, t2: int, lam1: int, lam2: int, m: int
) -> BoundReport:
    """The gamma = u = 1 specialisation against p^(3/2) + p^2 * delta.

    delta is 1 exactly when m == 0, t1 == t2 and lam1*s1 == lam2*s2
    (mod p).  sum_value is the unit-congruence brute force; the
    projective completion (see frakC_11_completed), which is the exact
    partner of the Moebius-reduced correlation, rides along in
    aux['completed'].
    """
    params = CharSumParams(PrimePower(p, 1), 1, s1, t1, s2, t2, lam1, lam2, m)
    value = frakC_gamma_u(params)
    delta = (
        m % p == 0
        and (t1 - t2) % p == 0
        and (lam1 * s1 - lam2 * s2) % p == 0
    )
    bound = p**1.5 + (p**2 if delta else 0.0)
    return make_report(
        sum_value=value,
        bound_value=bound,
        vanishing_predicted=False,
        term_count=p**2,
        aux={
            "delta": delta,
            "completed": frakC_11_completed(p, s1, t1, s2, t2, lam1, lam2, m),
        },
    )


Matrix2 = tuple[tuple[int, int], tuple[int, int]]


def moebius_reduce(
    s1: int, t1: int, s2: int, t2: int, lam1: int, lam2: int, m: int, p: int
) -> Matrix2:
    """Collapse the c_{1,1} congruence into a single Moebius transform.

    With delta1 = [[0,1],[s1,t1]], delta2 = [[0,1],[s2,t2]] and
    delta3 = [[lam2,0],[-m,lam1]], returns M = delta2*delta3*inv(delta1)
    mod p, so that c_{1,1} equals the correlation of S(1, .; p) against
    S(1, M(.); p) over the projective line (see moebius_correlation).
    """
    if (s1 * s2 * lam1 * lam2) % p == 0:
        raise SingularTransform(
            f"s1*s2*lam1*lam2 = {s1*s2*lam1*lam2} is divisible by p = {p}"
        )
    s1_inv = pow(s1, -1, p)
    m00 = s1_inv * (m * t1 + lam1 * s1) % p
    m01 = (-m * s1_inv) % p
    m10 = s1_inv * (s1 * t2 * lam1 - t1 * (s2 * lam2 - t2 * m)) % p
    m11 = s1_inv * (s2 * lam2 - t2 * m) % p
    return ((m00, m01), (m10, m11))


def moebius_correlation(mat: Matrix2, p: int) -> complex:
    """Correlation of S(1, a; p) with S(1, mat(a); p) over P^1(F_p).

    The sum runs over a in {0, ..., p-1} plus the point at infinity,
    with S(1, infinity; p) taken as 0; points mapped to infinity
    contribute nothing.  Agrees exactly with frakC_11_completed, the
    projective completion of the congruence-constrained double sum.
    """
    (m00, m01), (m10, m11) = mat
    table = kloosterman_table(p)
    total = 0.0
    for a in range(p):
        den = (m10 * a + m11) % p
        if den == 0:
            continue
        image = (m00 * a + m01) * pow(den, -1, p) % p
        total += float(table[a]) * float(table[image])
    # a = infinity: S(1, infinity; p) = 0, no contribution
    return complex(total)


def df_correlation(a: int, b: int, pp: PrimePower) -> BoundReport:
    """Correlation of S(1, x) against S(1, a*x/(b*x+1)) mod p^gamma.

    Sum over units x mod p^gamma with b*x + 1 a unit of
    S(1, x; p^gamma) * conj S(1, a*x*inv(b*x+1); p^gamma); bound
    p^(3*gamma/2) * p^(min(gamma, val_p(a-1), val_p(b))/2), the
    valuation of 0 counting as infinity (truncated at gamma).
    """
    p, gamma, q = pp.p, pp.gamma, pp.q
    if math.gcd(a, p) != 1:
        raise ValueError(f"a = {a} must be coprime to p = {p}")
    table = kloosterman_table(q)
    inv = unit_inverse_table(q)
    um = unit_mask(q)
    x = np.nonzero(um)[0].astype(np.int64)
    w = ((b % q) * x + 1) % q
    keep = um[w]
    xs = x[keep]
    arg = (a % q) * xs % q * inv[w[keep]] % q
    value = complex(float(np.dot(table[xs], table[arg])))
    nu_min = min(
        gamma,
        valuation_capped(a - 1, p, gamma),
        valuation_capped(b, p, gamma),
    )
    bound = p ** (1.5 * gamma) * p ** (nu_min / 2)
    return make_report(
        sum_value=value,
        bound_value=bound,
        vanishing_predicted=False,
        term_count=p ** (2 * gamma),
        aux={"nu_min": nu_min, "skipped": int(len(x) - len(xs))},
    )


def _calC_factor(n1: int, n2: int, mtil: int, b: int, qi: int, v: int) -> complex:
    """One CRT factor of calC at the prime-power modulus qi with twist v."""
    if qi == 1:
        return 1 + 0j
    table = kloosterman_table(qi)
    inv = unit_inverse_table(qi)
    um = unit_mask(qi)
    v2 = v * v % qi
    n2_inv = pow(n2, -1, qi)
    n2b_inv = pow(n2 * b % qi, -1, qi)
    y = np.nonzero(um)[0].astype(np.int64)
    w = ((n1 % qi) * n2_inv % qi * y + n2b_inv * (mtil % qi)) % qi
    f1 = table[(v2 * inv[y]) % qi]
    f2 = np.where(um[w], table[(v2 * inv[w]) % qi], 0.0)
    return complex(float(np.dot(f1, f2)))


def calC(n1: int, n2: int, mtil: int, b: int, q: int) -> BoundReport:
    """Correlation of S(1, inv(x); q) against a shifted-argument partner.

    Sum over units x mod q of
        S(1, inv(x); q) * conj S(1, inv(n1*inv(n2)*x + inv(n2*b)*mtil); q),
    the second factor vanishing when its inner argument is not a unit.
    The same value is recomputed as a product of per-prime-power factors
    (twisted multiplicativity applied inside each Kloosterman sum); the
    two routes must agree to 1e-6 * q^2.  Bound
    q^(3/2) * sum over k | q of sqrt(k) * [n1 == n2 and mtil == 0 mod k].
    """
    if math.gcd(n1 * n2 * b, q) != 1:
        raise ValueError(f"n1*n2*b must be coprime to q = {q}")
    direct = _calC_factor(n1, n2, mtil, b, q, 1)
    crt = 1 + 0j
    for p, e in factorize(q).pairs:
        qi = p**e
        v = pow(q // qi, -1, qi) if qi > 1 else 0
        crt *= _calC_factor(n1, n2, mtil, b, qi, v)
    if abs(direct - crt) > 1e-6 * q * q:
        raise IdentityViolation(
            f"calC CRT mismatch at q={q}: direct {direct} vs product {crt}"
        )
    active = [k for k in divisors(q) if (n1 - n2) % k == 0 and mtil % k == 0]
    bound = q**1.5 * sum(math.sqrt(k) for k in active)
    return make_report(
        sum_value=direct,
        bound_value=bound,
        vanishing_predicted=False,
        term_count=q**2,
        aux={"crt_value": crt, "residual": abs(direct - crt), "active_k": active},
    )


def _glue_factor(c_mult: int, w: int, q: int) -> float:
    """S(1, c_mult * inv(w); q); 0 when w is not a unit mod q."""
    w %= q
    if math.gcd(w, q) != 1:
        return 0.0
    return float(kloosterman_table(q)[c_mult * pow(w, -1, q) % q])


def _glue_double_sum(
    d: int,
    qd_l1: int,
    qd_l2: int,
    c1: int,
    c2: int,
    m2: int,
    m3: int,
    m4: int,
    mult1: int,
    mult2: int,
    q: int,
) -> complex:
    """The restricted double sum over unit pairs a1, a2 mod d.

    Pairs satisfy c2*inv(a1) - c1*inv(a2) == m4 (mod d); the summand is
    S(1, mult1*inv(m2 + a1*qd_l1); q) * conj S(1, mult2*inv(m3 + a2*qd_l2); q).
    """
    if d == 1:
        return complex(_glue_factor(mult1, m2, q) * _glue_factor(mult2, m3, q))
    c1_inv = pow(c1, -1, d)
    inv_d = unit_inverse_table(d)
    total = 0.0
    for a1 in range(d):
        if math.gcd(a1, d) != 1:
            continue
        abar2 = c1_inv * (c2 * int(inv_d[a1]) - m4) % d
        if math.gcd(abar2, d) != 1:
            continue
        a2 = int(inv_d[abar2])
        total += _glue_factor(mult1, m2 + a1 * qd_l1, q) * _glue_factor(
            mult2, m3 + a2 * qd_l2, q
        )
    return complex(total)


def frakC2_glue(
    d: int,
    q: int,
    n1: int,
    n2: int,
    c1: int,
    c2: int,
    l1: int,
    l2: int,
    m2: int,
    m3: int,
    m4: int,
    b: int,
) -> BoundReport:
    """The glued double correlation sum coupling moduli d | q.

    Value: d times the sum over unit pairs a1, a2 mod d with
    c2*inv(a1) - c1*inv(a2) == m4 (mod d) of
        S(1, c1*n1*b*inv(m2 + a1*(q/d)*l1); q)
        * conj S(1, c2*n2*b*inv(m3 + a2*(q/d)*l2); q).
    Bound: q * d^(3/2) * sum over k | d of sqrt(k) times the indicator
    of the three congruences m4 == 0, n1*c1*m3 == n2*c2*m2 and
    n1*c1^2*l2 == n2*c2^2*l1 (mod k).

    When gcd(d, q/d) = 1 the whole expression factors: the part of q
    prime to d contributes two constant Kloosterman factors and each
    prime p | d contributes a small restricted double sum mod p.  That
    product route is evaluated as a cross-check and must agree with the
    direct route to 1e-6 * q * d^2.
    """
    if d < 1 or q % d != 0:
        raise ValueError(f"need d | q, got d={d}, q={q}")
    if not factorize(d).is_squarefree():
        raise NotSquareFree(f"d = {d} has a square factor")
    if math.gcd(c1 * c2 * l1 * l2, q) != 1:
        raise ValueError("c1, c2, l1, l2 must be units mod q")
    qd = q // d
    mult1 = c1 * n1 * b % q
    mult2 = c2 * n2 * b % q
    direct = d * _glue_double_sum(
        d, qd * l1, qd * l2, c1, c2, m2, m3, m4, mult1, mult2, q
    )
    crt: complex | None = None
    if math.gcd(d, qd) == 1:
        # modulus part prime to d: a_j-independent since (q/d)*l_j == 0 there
        if qd > 1:
            v = pow(d, -1, qd)
            v2 = v * v % qd
            part = _glue_factor(v2 * mult1, m2, qd) * _glue_factor(
                v2 * mult2, m3, qd
            )
        else:
            part = 1.0
        crt = complex(d) * part
        for p in (p for p, _ in factorize(d).pairs):
            v = pow(q // p, -1, p)
            v2 = v * v % p
            crt *= _glue_double_sum(
                p,
                qd * l1 % p,
                qd * l2 % p,
                c1,
                c2,
                m2,
                m3,
                m4,
                v2 * mult1 % p,
                v2 * mult2 % p,
                p,
            )
        if abs(direct - crt) > 1e-6 * q * d * d:
            raise IdentityViolation(
                f"glue CRT mismatch at d={d}, q={q}: {direct} vs {crt}"
            )
    active = [
        k
        for k in divisors(d)
        if m4 % k == 0
        and (n1 * c1 * m3 - n2 * c2 * m2) % k == 0
        and (n1 * c1 * c1 * l2 - n2 * c2 * c2 * l1) % k == 0
    ]
    bound = q * d**1.5 * sum(math.sqrt(k) for k in active)
    return make_report(
        sum_value=direct,
        bound_value=bound,
        vanishing_predicted=False,
        term_count=d * d,
        aux={
            "crt_value": crt,
            "residual": None if crt is None else abs(direct - crt),
            "active_k": active,
        },
    )
