"""Exact modular arithmetic: Legendre, valuations, square roots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum.modarith import (
    EvenPrime,
    PrimePower,
    is_prime,
    legendre,
    sqrt_mod_pp,
    valuation_capped,
)

PRIMES_BELOW_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_is_prime_matches_frozen_table():
    assert [n for n in range(100) if is_prime(n)] == PRIMES_BELOW_100


@settings(deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 17]), st.integers(1, 1000), st.integers(1, 1000))
def test_legendre_is_multiplicative(p, a, b):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_counts_squares():
    p = 13
    squares = {(x * x) % p for x in range(1, p)}
    for a in range(1, p):
        assert legendre(a, p) == (1 if a in squares else -1)
    assert legendre(0, p) == 0
    with pytest.raises(ValueError):
        legendre(3, 2)


@settings(deadline=None)
@given(st.integers(-10**6, 10**6).filter(lambda n: n != 0), st.sampled_from([2, 3, 5, 7]))
def test_valuation_reconstructs(n, p):
    nu = valuation_capped(n, p, 64)  # p^64 > 10^6: this cap never binds
    assert n % p**nu == 0
    assert (n // p**nu) % p != 0
    for cap in range(nu + 2):
        assert valuation_capped(n, p, cap) == min(nu, cap)


def test_valuation_refuses_zero_and_caps():
    with pytest.raises(ValueError):
        valuation_capped(4, 1, 5)
    assert valuation_capped(0, 3, 5) == 5  # nu_p(0) is infinite
    assert valuation_capped(18, 3, 5) == 2
    assert valuation_capped(3**9, 3, 5) == 5


@pytest.mark.parametrize("pp", [PrimePower(3, 1), PrimePower(3, 3), PrimePower(5, 2),
                                PrimePower(7, 2), PrimePower(13, 2)])
def test_sqrt_mod_pp_square_and_count(pp):
    q = pp.q
    found = 0
    for beta in range(1, q):
        if beta % pp.p == 0:
            continue
        roots = sqrt_mod_pp(beta, pp)
        if roots is None:
            continue
        found += 1
        r1, r2 = roots
        assert (r1 * r1) % q == beta
        assert (r2 * r2) % q == beta
        assert r1 <= r2 and (r1 + r2) % q == 0
    # exactly half the units mod p^gamma are quadratic residues (p odd)
    phi = q // pp.p * (pp.p - 1)
    assert found == phi // 2


def test_sqrt_mod_pp_rejects_bad_input():
    with pytest.raises(EvenPrime):
        sqrt_mod_pp(1, PrimePower(2, 3))
    with pytest.raises(ValueError):
        sqrt_mod_pp(3, PrimePower(3, 2))
    assert sqrt_mod_pp(2, PrimePower(5, 2)) is None  # (2/5) = -1

