"""Multiplicative functions: factorization, divisor tables, sigma_{0,0}."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum import arith, verify
from expsum.arith import (
    IdentityViolation,
    d3_exact,
    divisor_table,
    divisors,
    factorize,
    sigma00,
    sigma00_grid,
)
from expsum.verify import _d3_triple_loop


@settings(deadline=None)
@given(st.integers(1, 10**6))
def test_factorize_reconstructs(n):
    f = factorize(n)
    prod = 1
    last = 1
    for p, e in f.pairs:
        assert p > last and e >= 1
        last = p
        prod *= p**e
    assert prod == n


def test_factorize_range_check():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(10**12 + 1)


@settings(deadline=None)
@given(st.integers(1, 300))
def test_phi_counts_units(n):
    assert factorize(n).phi() == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_mobius_and_parts_spot_values():
    assert factorize(1).mobius() == 1
    assert factorize(30).mobius() == -1
    assert factorize(6).mobius() == 1
    assert factorize(12).mobius() == 0
    assert factorize(30).is_squarefree()
    assert not factorize(12).is_squarefree()
    assert factorize(12).omega() == 2


@settings(deadline=None)
@given(st.integers(1, 2000))
def test_divisors_by_trial_division(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def d_exact(n: int) -> int:
    """d(n) = prod (e_i + 1), exact from the factorization."""
    out = 1
    for _, e in factorize(n).pairs:
        out *= e + 1
    return out


def test_divisor_table_matches_exact_formulas():
    # every X <= 300, and the squares +-1 around the sqrt(X) split at 10^4
    ref2 = np.array([0] + [d_exact(n) for n in range(1, 10002)])
    ref3 = np.array([0] + [d3_exact(n) for n in range(1, 10002)])
    for X in [*range(1, 301), 9999, 10000, 10001]:
        for k, ref in ((2, ref2), (3, ref3)):
            vals = divisor_table(k, X)
            assert vals.dtype == np.uint32 and not vals.flags.writeable
            assert np.array_equal(vals, ref[: X + 1]), (k, X)


def test_divisor_table_d3_equals_triple_loop():
    loop = _d3_triple_loop(10**4)
    assert np.array_equal(divisor_table(3, 10**4).astype(np.int64), loop)


def _triples_one_by_one(X: int) -> list[int]:
    """out[n] = #{(a, b, c) : a*b*c = n <= X}, one Python step per triple."""
    out = [0] * (X + 1)
    for a in range(1, X + 1):
        for b in range(1, X // a + 1):
            for c in range(1, X // (a * b) + 1):
                out[a * b * c] += 1
    return out


def test_triple_loop_counts_every_ordered_triple():
    ref = _triples_one_by_one(300)
    for X in range(1, 301):  # X = 1, 2 and 3 are single blocks of 1, 3 and 5 pairs
        got = _d3_triple_loop(X)
        assert got.dtype == np.int64 and got.tolist() == ref[: X + 1], X


def test_triple_loop_blocks_whatever_their_size(monkeypatch):
    # a block of one triple, and a pair with more triples than a block
    want = _d3_triple_loop(500)
    for block in (1, 7, 64):
        monkeypatch.setattr(verify, "_TRIPLE_BLOCK", block)
        assert np.array_equal(_d3_triple_loop(500), want), block


def _peak_bytes(fn, *args) -> int:
    fn(*args)  # warm: memo tables and factorizations are not the call's own
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_triple_loop_memory_is_one_block():
    # 0.59 MB with blocks of 2^12 triples; blocks of 2^14 took 1.37 MB, and
    # 1 MB more peak RSS in criterion 10
    assert _peak_bytes(_d3_triple_loop, 10**4) < 700_000


def test_sigma00_grid_memory():
    # 4.52 MB: the two int64 grids, 4.02 MB, and the 0.25 MB coprimality
    # table; a gcd block per l made it 4.91 MB
    assert _peak_bytes(sigma00_grid, 500) < 4_700_000


def test_divisor_table_rejects_bad_k():
    with pytest.raises(ValueError):
        divisor_table(4, 10)
    with pytest.raises(ValueError):
        divisor_table(2, 0)


def test_d3_exact_is_triple_convolution():
    # d_3(n) = #{(a, b, c) : a*b*c = n}, counted directly
    for n in range(1, 200):
        count = sum(
            1
            for a in divisors(n)
            for b in divisors(n // a)
        )
        assert d3_exact(n) == count


def test_sigma00_frozen_spots():
    # both routes checked internally; these values pin the convention
    assert sigma00(1, 12) == 18
    assert sigma00(2, 4) == 3
    assert sigma00(6, 1) == 1
    assert sigma00(5, 5) == 2


@settings(deadline=None)
@given(st.integers(1, 120), st.integers(1, 120))
def test_sigma00_dual_route_always_agrees(k, l):
    sigma00(k, l)  # raises IdentityViolation on any mismatch


def test_sigma00_grid_equals_scalar_routes():
    grid = sigma00_grid(60)
    assert grid.shape == (61, 61)
    for k in range(1, 61):
        for l in range(1, 61):
            assert grid[k, l] == sigma00(k, l)
    with pytest.raises(ValueError):
        sigma00_grid(0)


def test_sigma00_grid_routes_are_independent(monkeypatch):
    # only the Moebius route reads d3_exact, so a wrong d_3 must split them
    monkeypatch.setattr(arith, "d3_exact", lambda n: d3_exact(n) + 1)
    with pytest.raises(IdentityViolation, match=r"sigma00\(1,1\): literal 1 != moebius 2"):
        sigma00_grid(20)


def test_sigma00_grid_literal_route_is_independent(monkeypatch):
    # only the literal route reads the coprimality table, so a table that
    # takes gcd 2 for coprime must split them: at (2, 2) it counts d2 = 2
    def wrong(cap):
        ks = np.arange(cap + 1)
        return np.isin(np.gcd(ks[:, None], ks[None, :]), (1, 2))

    monkeypatch.setattr(arith, "_coprime_table", wrong)
    with pytest.raises(IdentityViolation, match=r"sigma00\(2,2\): literal 3 != moebius 2"):
        sigma00_grid(20)
