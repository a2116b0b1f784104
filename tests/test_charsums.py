"""Correlation sums: brute forces vs bounds, vanishing criteria, CRT routes."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum import charsums
from expsum.arith import factorize
from expsum.charsums import (
    RATIO_CAP,
    CharSumParams,
    HypothesisViolated,
    NotSquareFree,
    SingularTransform,
    calC,
    df_correlation,
    frakC2_glue,
    frakC_11,
    frakC_11_completed,
    frakC_gamma_u,
    moebius_correlation,
    moebius_reduce,
    ppower_bound,
)
from expsum.expsums import kloosterman_direct, kloosterman_table
from expsum.families import charsum_pp
from expsum.modarith import PrimePower


def _frakC_literal(params: CharSumParams) -> complex:
    """Slow reference: explicit double loop over the congruence pairs."""
    p, gamma, u = params.pp.p, params.pp.gamma, params.u
    q, pu = params.pp.q, p**u
    pg_u = p ** (gamma - u)

    def S1inv(w: int) -> float:
        if math.gcd(w, q) != 1:
            return 0.0
        return kloosterman_direct(1, pow(w, -1, q), q).real

    total = 0.0
    for a1 in range(1, pu + 1):
        if math.gcd(a1, pu) != 1:
            continue
        for a2 in range(1, pu + 1):
            if math.gcd(a2, pu) != 1:
                continue
            lhs = params.lam1 * pow(a1, -1, pu) - params.lam2 * pow(a2, -1, pu)
            if (lhs - params.m) % pu != 0:
                continue
            total += S1inv(params.s1 * pg_u * a1 + params.t1) * S1inv(
                params.s2 * pg_u * a2 + params.t2
            )
    return complex(total)


@pytest.mark.parametrize(
    "p,gamma,u,tup",
    [
        (3, 2, 1, (1, 1, 2, 2, 1, 1, 1)),
        (3, 3, 2, (2, 1, 1, 2, 2, 1, 3)),
        (5, 2, 1, (1, 2, 3, 1, 2, 4, 2)),
        (5, 2, 1, (4, 3, 2, 1, 1, 3, 0)),
        (7, 2, 1, (3, 5, 1, 2, 6, 4, 5)),
    ],
)
def test_frakC_gamma_u_matches_literal_double_loop(p, gamma, u, tup):
    s1, t1, s2, t2, lam1, lam2, m = tup
    params = CharSumParams(PrimePower(p, gamma), u, s1, t1, s2, t2, lam1, lam2, m)
    fast = frakC_gamma_u(params)
    slow = _frakC_literal(params)
    assert abs(fast - slow) < 1e-9 * params.pp.q


def test_charsum_params_validation():
    pp = PrimePower(5, 2)
    with pytest.raises(ValueError):
        CharSumParams(pp, 3, 1, 1, 1, 1, 1, 1, 1)  # u > gamma
    with pytest.raises(ValueError):
        CharSumParams(pp, 1, 5, 1, 1, 1, 1, 1, 1)  # s1 not a unit
    with pytest.raises(ValueError):
        CharSumParams(pp, 1, 1, 10, 1, 1, 1, 1, 1)  # t1 not a unit


def test_ppower_bound_rejects_out_of_hypothesis():
    with pytest.raises(HypothesisViolated):
        ppower_bound(CharSumParams(PrimePower(3, 1), 1, 1, 1, 1, 1, 1, 1, 1))
    with pytest.raises(HypothesisViolated):
        ppower_bound(CharSumParams(PrimePower(3, 5), 5, 1, 1, 1, 1, 1, 1, 1))
    with pytest.raises(HypothesisViolated):
        ppower_bound(CharSumParams(PrimePower(3, 2), 1, 1, 1, 1, 1, 1, 1, 0))


def test_ppower_bound_case_labels():
    # 3u < 2 gamma puts the pair squarely in case A
    rep_a = ppower_bound(CharSumParams(PrimePower(3, 4), 1, 1, 1, 1, 1, 1, 1, 1))
    assert rep_a.aux["case"] == "A"
    assert rep_a.aux["congruence_ok"] is None
    # gamma = 5, u = 4: 3u = 12 >= 10 = 2 gamma and nu = gamma - u needs m
    rep_b = ppower_bound(
        CharSumParams(PrimePower(3, 5), 4, 1, 1, 1, 1, 1, 1, 27)
    )
    assert rep_b.aux["case"] == "B"
    assert rep_b.aux["congruence_ok"] is not None


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([(3, 2, 1), (3, 3, 2), (3, 4, 3), (5, 2, 1), (5, 3, 2)]), st.data())
def test_ppower_bound_holds_and_vanishing_is_sound(cell, data):
    p, gamma, u = cell
    pp = PrimePower(p, gamma)
    q = pp.q
    unit = st.integers(1, q - 1).filter(lambda v: v % p != 0)
    s1, t1, s2, t2, lam1, lam2 = (data.draw(unit) for _ in range(6))
    m = data.draw(st.integers(1, p**u - 1))
    rep = ppower_bound(CharSumParams(pp, u, s1, t1, s2, t2, lam1, lam2, m))
    assert rep.ratio <= RATIO_CAP
    if rep.vanishing_predicted:
        assert rep.vanished


# The first five of 200 seeded charsum_pp tuples (s1, t1, s2, t2, lam1,
# lam2, m) of two gate cells, and the sha256 of the repr of all 200, as
# drawn by two calls rng.integers(1, q, size=4) and (1, q, size=2) per try.
CHARSUM_PP_DRAWS = {
    (3, 6, 4): ([(547, 115, 322, 263, 340, 521, 528), (644, 296, 281, 91, 290, 136, 462),
                 (163, 538, 535, 115, 212, 415, 486), (163, 272, 505, 17, 659, 278, 486),
                 (458, 7, 17, 496, 667, 130, 243)],
                "c640370166e91931ef1307ee7c4cd42f973575a2a8f246128396389ffdc4cecf"),
    (5, 2, 1): ([(7, 24, 7, 13, 21, 4, 15), (19, 6, 1, 6, 16, 9, 14), (24, 13, 2, 23, 16, 4, 11),
                 (4, 14, 12, 17, 8, 3, 12), (18, 4, 12, 16, 7, 24, 20)],
                "449da8d88713ef83888894657e31145170dc2ad92c33bed2f05d8d70260c35e3"),
}


@pytest.mark.parametrize("cell", sorted(CHARSUM_PP_DRAWS))
def test_charsum_pp_draws_are_frozen(cell):
    head, digest = CHARSUM_PP_DRAWS[cell]
    keys = ("s1", "t1", "s2", "t2", "lam1", "lam2", "m")
    tups = [tuple(r[k] for k in keys) for r in charsum_pp(*cell, 200)]
    assert tups[:5] == head
    assert hashlib.sha256(repr(tups).encode()).hexdigest() == digest


def test_frakC_11_completed_equals_moebius_route():
    for p in (5, 7, 11, 13):
        rng = np.random.default_rng(p)
        for _ in range(20):
            s1, t1, s2, t2, lam1, lam2 = (int(v) for v in rng.integers(1, p, size=6))
            m = int(rng.integers(0, p))
            completed = frakC_11_completed(p, s1, t1, s2, t2, lam1, lam2, m)
            mat = moebius_reduce(s1, t1, s2, t2, lam1, lam2, m, p)
            assert abs(completed - moebius_correlation(mat, p)) < 1e-9 * p * p


def test_frakC_11_bound_and_diagonal_delta():
    # diagonal parameters switch on the p^2 term of the bound
    rep = frakC_11(7, 2, 3, 2, 3, 4, 4, 0)
    assert rep.aux["delta"]
    assert rep.bound_value == pytest.approx(7**1.5 + 49)
    assert rep.ratio <= RATIO_CAP
    # off-diagonal: square-root bound only
    rep2 = frakC_11(7, 2, 3, 1, 5, 4, 3, 2)
    assert not rep2.aux["delta"]
    assert rep2.bound_value == pytest.approx(7**1.5)
    assert rep2.ratio <= RATIO_CAP


def test_frakC_11_unit_sum_vs_completion_differ_by_boundary():
    # the completed sum adds O(p) boundary terms to the unit-restricted sum
    p = 11
    rep = frakC_11(p, 1, 2, 3, 4, 5, 6, 7)
    gap = abs(rep.aux["completed"] - rep.sum_value)
    assert gap < 6 * p * math.sqrt(p)  # a few boundary Kloosterman products


def test_moebius_reduce_rejects_singular():
    with pytest.raises(SingularTransform):
        moebius_reduce(5, 1, 1, 1, 1, 1, 0, 5)


def test_df_correlation_frozen_spot():
    # a = 1, b = 0: plain second moment sum |S(1, x; 5)|^2 = 19 exactly
    rep = df_correlation(1, 0, PrimePower(5, 1))
    assert abs(rep.sum_value - 19.0) < 1e-6
    assert rep.aux["nu_min"] == 1
    assert rep.ratio <= RATIO_CAP


def test_df_correlation_ratios_and_validation():
    for p, gamma in ((3, 2), (5, 2), (7, 1)):
        pp = PrimePower(p, gamma)
        rng = np.random.default_rng(p + gamma)
        for _ in range(10):
            a = int(rng.integers(1, pp.q))
            if a % p == 0:
                a = 1
            b = int(rng.integers(0, pp.q))
            rep = df_correlation(a, b, pp)
            assert rep.ratio <= RATIO_CAP
    with pytest.raises(ValueError):
        df_correlation(3, 1, PrimePower(3, 2))


def test_calC_crt_agreement_and_bound():
    rng = np.random.default_rng(7)
    for q in (2, 6, 12, 30, 45, 60, 90):
        units = [x for x in range(1, q + 1) if math.gcd(x, q) == 1]
        for _ in range(4):
            n1, n2, b = (units[int(rng.integers(len(units)))] for _ in range(3))
            mtil = int(rng.integers(q))
            rep = calC(n1, n2, mtil, b, q)  # internal CRT assertion
            assert rep.aux["residual"] <= 1e-6 * q * q
            assert 1 in rep.aux["active_k"]
            assert rep.ratio <= RATIO_CAP


def test_calC_validates_units():
    with pytest.raises(ValueError):
        calC(2, 1, 0, 1, 4)


def test_frakC2_glue_frozen_active_sets():
    # fully symmetric parameters keep every divisor congruence alive
    sym = frakC2_glue(15, 15, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1)
    assert sym.aux["active_k"] == [1, 3, 5, 15]
    # generic parameters leave only the trivial divisor
    single = frakC2_glue(1, 15, 2, 7, 1, 4, 2, 1, 3, 5, 0, 2)
    assert single.aux["active_k"] == [1]


def test_frakC2_glue_crt_route_and_ratios():
    rng = np.random.default_rng(11)
    for q in (6, 10, 15, 21, 30, 60):
        units = [x for x in range(1, q + 1) if math.gcd(x, q) == 1]
        pick = lambda: units[int(rng.integers(len(units)))]
        for d in (dd for dd in range(1, q + 1) if q % dd == 0):
            if not factorize(d).is_squarefree():
                continue
            rep = frakC2_glue(
                d, q, pick(), pick(), pick(), pick(), pick(), pick(),
                int(rng.integers(q)), int(rng.integers(q)), int(rng.integers(d)),
                pick(),
            )
            assert rep.ratio <= RATIO_CAP
            if math.gcd(d, q // d) == 1:
                assert rep.aux["residual"] is not None
                assert rep.aux["residual"] <= 1e-6 * q * d * d
            else:
                assert rep.aux["residual"] is None


def test_frakC2_glue_validation():
    with pytest.raises(NotSquareFree):
        frakC2_glue(4, 8, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        frakC2_glue(3, 8, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1)  # d does not divide q
    with pytest.raises(ValueError):
        frakC2_glue(3, 6, 1, 1, 2, 1, 1, 1, 0, 0, 0, 1)  # c1 shares a factor


def _glue_factor_ref(c_mult: int, w: int, q: int) -> float:
    """S(1, c_mult * inv(w); q) by scalar pow; 0 when w is not a unit mod q."""
    w %= q
    if math.gcd(w, q) != 1:
        return 0.0
    return float(kloosterman_table(q)[c_mult * pow(w, -1, q) % q])


def _glue_double_sum_ref(d, qd_l1, qd_l2, c1, c2, m2, m3, m4, mult1, mult2, q) -> complex:
    """The glue's restricted double sum as a scalar loop over a1 in range(d): the bit oracle."""
    if d == 1:
        return complex(_glue_factor_ref(mult1, m2, q) * _glue_factor_ref(mult2, m3, q))
    c1_inv = pow(c1, -1, d)
    total = 0.0
    for a1 in range(d):
        if math.gcd(a1, d) != 1:
            continue
        abar2 = c1_inv * (c2 * pow(a1, -1, d) - m4) % d
        if math.gcd(abar2, d) != 1:
            continue
        a2 = pow(abar2, -1, d)
        total += _glue_factor_ref(mult1, m2 + a1 * qd_l1, q) * _glue_factor_ref(
            mult2, m3 + a2 * qd_l2, q
        )
    return complex(total)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 210), st.data())
def test_glue_double_sum_is_the_scalar_loop_bit_for_bit(q, data):
    d = data.draw(st.sampled_from(
        [k for k in range(1, q + 1) if q % k == 0 and factorize(k).is_squarefree()]))
    units = [x for x in range(1, q + 1) if math.gcd(x, q) == 1]
    c1, c2 = data.draw(st.sampled_from(units)), data.draw(st.sampled_from(units))
    l1, l2 = data.draw(st.integers(0, q)), data.draw(st.integers(0, q))
    m2, m3 = data.draw(st.integers(-q, 2 * q)), data.draw(st.integers(-q, 2 * q))
    m4 = data.draw(st.integers(0, d - 1))
    mult1, mult2 = data.draw(st.integers(0, q * q)), data.draw(st.integers(0, q * q))
    args = (d, q // d * l1, q // d * l2, c1, c2, m2, m3, m4, mult1, mult2, q)
    assert _bits(charsums._glue_double_sum(*args)) == _bits(_glue_double_sum_ref(*args))


def test_glue_double_sum_keeps_a_lone_negative_zero():
    # d = 1: S(1, inv(0); 3) = 0 times S(1, inv(1); 3) = -1 is -0.0, which
    # 0.0 + (-0.0) would turn into +0.0; the glue scan's re column shows the sign
    args = (1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 3)
    assert _bits(_glue_double_sum_ref(*args)) == ("-0x0.0p+0", "0x0.0p+0")
    assert _bits(charsums._glue_double_sum(*args)) == ("-0x0.0p+0", "0x0.0p+0")


def test_bounds_add_square_roots_left_to_right():
    # sum() of floats is compensated from Python 3.12 on; over the divisors
    # 1, 2, 5, 10 of 10 it gives the last bit of fsum, not of this order
    ks = [1, 2, 5, 10]
    left_to_right = float.fromhex("0x1.f400f84d8f6f0p+2")
    assert charsums._left_sum(map(math.sqrt, ks)) == left_to_right != math.fsum(map(math.sqrt, ks))
    assert calC(1, 1, 0, 1, 10).bound_value == 10**1.5 * left_to_right
    assert frakC2_glue(10, 10, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1).bound_value == (
        10 * 10**1.5 * left_to_right
    )
