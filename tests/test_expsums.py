"""Kloosterman and hyper-Kloosterman sums: oracles, identities, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum.expsums import (
    BadModulus,
    NotDegenerate,
    e_frac,
    hyper_kl3,
    hyper_kl3_degenerate_check,
    hyper_kl3_direct,
    hyper_kl3_table,
    hyper_kl3_table_direct,
    kloosterman_direct,
    kloosterman_explicit_pp,
    kloosterman_explicit_pp_table,
    kloosterman_split,
    kloosterman_table,
    unit_inverse_table,
    unit_mask,
    weil_audit,
)
from expsum.modarith import PrimePower

SQRT5 = math.sqrt(5.0)

# S(1, c; 5) in closed form: the unit sum collapses to golden-ratio cosines.
KLOOSTERMAN_MOD5 = {
    0: -1.0,
    1: 2.0 + 2.0 * math.cos(4 * math.pi / 5),   # = (5 - sqrt 5)/2 - 1
    2: -1.0 - SQRT5,
    3: SQRT5 - 1.0,
    4: (3.0 + SQRT5) / 2.0,
}


def test_e_frac_reduces_angle():
    assert e_frac(0, 7) == 1
    assert abs(e_frac(7, 7) - 1) < 1e-15
    assert abs(e_frac(-3, 7) - e_frac(4, 7)) < 1e-15


def test_kloosterman_mod5_frozen_table():
    for c, want in KLOOSTERMAN_MOD5.items():
        got = kloosterman_direct(1, c, 5)
        assert abs(got - want) < 1e-12, (c, got, want)
        assert abs(kloosterman_table(5).values[c] - want) < 1e-12


def test_kloosterman_frozen_spots():
    # S(1, 1; 9) = 6 cos(4 pi / 9): three of the nine residues survive
    assert abs(kloosterman_direct(1, 1, 9) - 6 * math.cos(4 * math.pi / 9)) < 1e-12
    # beta = 2 is a quadratic non-residue mod 5, so S(1, 2; 25) = 0
    assert abs(kloosterman_direct(1, 2, 25)) < 1e-12
    # degenerate b = 0 collapses to the Ramanujan sum c_p(1) = -1
    for p in (3, 5, 7, 11):
        assert abs(kloosterman_direct(1, 0, p) + 1) < 1e-12
    assert kloosterman_direct(1, 1, 1) == 1


@settings(deadline=None)
@given(st.integers(1, 60), st.integers(0, 120))
def test_kloosterman_table_matches_direct(q, m):
    tab = kloosterman_table(q).values
    assert abs(tab[m % q] - kloosterman_direct(1, m, q)) < 1e-9 * q


@settings(deadline=None)
@given(st.integers(1, 120), st.integers(-50, 200), st.integers(-50, 200))
def test_kloosterman_split_equals_direct(q, a, b):
    # twisted multiplicativity holds for every a, b, unit or not
    assert abs(kloosterman_split(a, b, q) - kloosterman_direct(a, b, q)) < 1e-9 * q


@pytest.mark.parametrize("pp", [PrimePower(3, 2), PrimePower(3, 3), PrimePower(5, 2),
                                PrimePower(7, 2), PrimePower(11, 2)])
def test_explicit_pp_matches_direct(pp):
    q = pp.q
    tab = kloosterman_explicit_pp_table(pp)
    for beta in range(1, q):
        if beta % pp.p == 0:
            continue
        closed = kloosterman_explicit_pp(beta, pp)
        direct = kloosterman_direct(1, beta, q)
        assert abs(closed - direct) < 1e-9 * q, (beta, pp)
        assert abs(tab[beta] - closed) < 1e-12 * q


def test_explicit_pp_rejects_bad_modulus():
    with pytest.raises(BadModulus):
        kloosterman_explicit_pp(1, PrimePower(7, 1))
    with pytest.raises(BadModulus):
        kloosterman_explicit_pp(1, PrimePower(2, 3))
    with pytest.raises(ValueError):
        kloosterman_explicit_pp(3, PrimePower(3, 2))


def test_unit_inverse_table_inverts():
    # every q <= 2048 covers 2^k with k >= 3, where lambda(q) = phi(q)/2,
    # and every composite q whose Carmichael exponent is below phi(q);
    # 7^7 is the largest modulus criterion 01 builds tables for
    for q in [*range(1, 2049), 7**7]:
        x = np.arange(q, dtype=np.int64)
        mask = unit_mask(q)
        assert np.array_equal(mask, np.gcd(x, q) == 1), q
        # x * inv(x) == 1 on units; inv(x) == 0, so the product is 0, elsewhere
        prod = (x * unit_inverse_table(q)) % q
        assert np.array_equal(prod, np.where(mask, 1 % q, 0)), q


@pytest.mark.parametrize("q", [1, 2, 7, 9, 12, 45])
def test_hyper_kl3_two_paths_agree(q):
    fast = hyper_kl3_table(q)
    slow = hyper_kl3_table_direct(q)
    assert np.max(np.abs(fast - slow)) < 1e-9 * q


def test_hyper_kl3_direct_matches_table():
    for q in (5, 7, 9):
        for m in range(q):
            assert abs(hyper_kl3_direct(m, q) - hyper_kl3(m, q)) < 1e-9 * q
    assert hyper_kl3(3, 1) == 1


def test_hyper_kl3_deligne_bound_small_primes():
    for p in (3, 5, 7, 11, 13):
        tab = hyper_kl3_table(p)
        # normalised: |Kl3(m, p)| <= 3 for units m
        assert float(np.max(np.abs(tab[1:]))) <= 3.0 + 1e-9


def test_hyper_kl3_degenerate_collapse():
    # d = gcd(n, q) squarefree and coprime to q/d: collapses to modulus q/d
    rep = hyper_kl3_degenerate_check(m=2, n=3, b=1, q=15)
    assert rep.aux["collapses"]
    assert abs(rep.sum_value) < 1e-9
    # d shares a factor with q/d: both sides must vanish outright
    rep2 = hyper_kl3_degenerate_check(m=1, n=3, b=1, q=9)
    assert not rep2.aux["collapses"]
    assert abs(rep2.sum_value) < 1e-9
    with pytest.raises(NotDegenerate):
        hyper_kl3_degenerate_check(m=1, n=2, b=1, q=15)


def test_weil_audit_small():
    rep = weil_audit(50)
    assert rep.ratio <= 1.0
    assert rep.aux["max_weil_ratio"] <= 1.0
    assert rep.aux["max_deligne_ratio"] <= 1.0
    p, m = rep.aux["weil_argmax"]
    assert 2 <= p <= 50 and 1 <= m < p
