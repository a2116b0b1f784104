"""d_3 in arithmetic progressions: exact identities and re-bracketing."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum import distribution
from expsum.arith import d3_exact, divisor_table, divisors, factorize
from expsum.distribution import (
    _residue_totals,
    coprime_mean,
    d3_ap_sum,
    d3_to_bilinear,
    discrepancy_scan,
    ramanujan_decomposition,
)


def test_d3_ap_sum_matches_exact_formula():
    X, q = 2000, 7
    for a in range(1, q + 1):
        direct = sum(d3_exact(n) for n in range(a, X + 1, q))
        assert d3_ap_sum(X, q, a) == direct


def test_d3_ap_sum_validation():
    with pytest.raises(ValueError):
        d3_ap_sum(100, 5, 0)
    with pytest.raises(ValueError):
        d3_ap_sum(100, 5, 6)
    assert d3_ap_sum(0, 5, 1) == 0


def test_coprime_mean_is_exact_rational():
    X, q = 100, 6
    total = sum(d3_exact(n) for n in range(1, X + 1) if math.gcd(n, q) == 1)
    mean = coprime_mean(X, q)
    assert mean == Fraction(total, 2)  # phi(6) = 2
    assert isinstance(mean, Fraction)


def _coprime_mean_gcd_mask(X, q):
    """The coprime mean by an explicit gcd mask over n <= X (reference)."""
    vals = divisor_table(3, X)
    mask = np.gcd(np.arange(X + 1), q) == 1
    return Fraction(int(np.sum(vals[mask], dtype=np.uint64)), factorize(q).phi())


def test_coprime_mean_moebius_route_equals_gcd_mask():
    X = 10**4
    for q in [*range(1, 301), 729, 2310]:
        assert coprime_mean(X, q) == _coprime_mean_gcd_mask(X, q), q
    # X < q: the Moebius terms with d > X are empty slices
    assert coprime_mean(5, 30) == _coprime_mean_gcd_mask(5, 30) == Fraction(1, 8)


def test_residue_totals_equal_bincount():
    for X in (100, 10**4):
        vals = divisor_table(3, X)
        # d > X + 1 leaves trailing zero classes; from d = 256 on, rows are d wide
        for d in (*range(1, 251), 255, 256, 257, 511, 512, 4099, 10**4 + 3):
            ref = np.bincount(np.arange(X + 1) % d, weights=vals, minlength=d)[:d]
            got = _residue_totals(X, d)
            assert got.dtype == np.uint64 and np.array_equal(got, ref), (X, d)


def test_progressions_partition_the_coprime_mass():
    X, q = 500, 12
    mean = coprime_mean(X, q)
    units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
    total = sum(d3_ap_sum(X, q, a) for a in units)
    assert Fraction(total, len(units)) == mean


@settings(deadline=None, max_examples=25)
@given(st.integers(10, 3000), st.integers(1, 40))
def test_zero_sum_identity_exact(X, q):
    mean = coprime_mean(X, q)
    acc = Fraction(0)
    for a in range(1, q + 1):
        if math.gcd(a, q) != 1:
            continue
        acc += Fraction(d3_ap_sum(X, q, a)) - mean
    assert acc == 0


def _units(q):
    return [a for a in range(1, q + 1) if math.gcd(a, q) == 1]


def test_ramanujan_decomposition_telescopes():
    X = 10**4
    for q in (1, 7, 9, 12, 30):
        dec = ramanujan_decomposition(X, q)
        assert dec.units.tolist() == _units(q)
        ap = np.array([d3_ap_sum(X, q, a) for a in _units(q)], dtype=np.float64)
        assert dec.defects(ap).max() <= 1e-6
        assert [d for d, _ in dec.terms] == divisors(q) == sorted(divisors(q))
    with pytest.raises(ValueError):
        ramanujan_decomposition(100, 0)


def _ramanujan_term_direct(X, q, a, d):
    """S(d) at class a by the literal double sum over alpha and n (reference)."""
    vals = divisor_table(3, X).astype(np.float64)
    n = np.arange(X + 1)
    return sum(
        np.dot(vals, np.exp(2j * np.pi * ((alpha * (n - a)) % d) / d))
        for alpha in range(d)
        if math.gcd(alpha, d) == 1
    ) / q


def test_ramanujan_terms_match_direct_character_sums():
    X = 600
    for q in (5, 12, 18, 30):
        dec = ramanujan_decomposition(X, q)
        for d, s in dec.terms:
            direct = [_ramanujan_term_direct(X, q, a, d) for a in _units(q)]
            assert np.allclose(s, direct, rtol=0, atol=1e-9), (q, d)


def test_principal_term_dominates():
    # the d = 1 term carries the X-scale main mass; every higher
    # conductor contributes only a (much smaller) discrepancy term
    X, q = 10**4, 7
    dec = ramanujan_decomposition(X, q)
    d1 = dec.terms[0][1]
    assert dec.terms[0][0] == 1
    assert all((np.abs(d1) > 5 * np.abs(s)).all() for _, s in dec.terms[1:])


def test_discrepancy_scan_rows_and_aggregates():
    rows = discrepancy_scan(2000, [3, 4, 9])
    per_a = [r for r in rows if r["a"] != "*"]
    agg = [r for r in rows if r["a"] == "*"]
    assert len(agg) == 3
    assert len(per_a) == 2 + 2 + 6
    for r in agg:
        assert r["max_abs_delta"] >= 0.0
        assert math.isfinite(r["slope_fit"]) or math.isnan(r["slope_fit"])
    for r in per_a:
        assert math.isnan(r["max_abs_delta"])


@settings(max_examples=40)
@given(st.integers(1, 5000),
       st.lists(st.integers(1, 60), min_size=1, max_size=4, unique=True))
def test_scan_rows_equal_the_per_class_routes(X, moduli):
    rows = discrepancy_scan(X, moduli)
    for q in moduli:
        mean = coprime_mean(X, q)
        per_a = [r for r in rows if r["q"] == q and r["a"] != "*"]
        assert [r["a"] for r in per_a] == _units(q)
        for r in per_a:
            assert r["ap_sum"] == d3_ap_sum(X, q, r["a"])
            assert r["delta"] == float(Fraction(r["ap_sum"]) - mean)
            assert r["coprime_mean"] == float(mean)
        ap = np.array([d3_ap_sum(X, q, a) for a in _units(q)], dtype=np.float64)
        assert ramanujan_decomposition(X, q).defects(ap).max() <= 1e-6


def test_scan_memory_is_linear_in_the_modulus():
    # a phi(q) x q phase matrix, as the per-class scan built, peaks at 122 MiB
    divisor_table(3, 1000)
    distribution._char_sums.cache_clear()
    tracemalloc.start()
    try:
        discrepancy_scan(1000, [2003])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6, peak


def test_a_second_scan_at_the_same_X_sums_no_multiples():
    multiples = distribution._multiples
    multiples.cache_clear()
    first = discrepancy_scan(3000, [6, 10, 15])
    # the squarefree divisors 1, 2, 3, 5, 6, 10, 15, each summed once
    assert multiples.cache_info()[:2] == (5, 7)  # (hits, misses)
    assert discrepancy_scan(3000, [6, 10, 15]) == first
    assert multiples.cache_info()[:2] == (17, 7)


def test_d3_to_bilinear_rebracketing_is_exact():
    for y, q, b in ((10, 7, 1), (50, 12, 5), (200, 9, 2), (37, 30, 7)):
        direct, glued = d3_to_bilinear(y, q, b)
        assert abs(direct - glued) <= 1e-9 * max(1.0, abs(direct))
    with pytest.raises(ValueError):
        d3_to_bilinear(0, 7)
    with pytest.raises(ValueError):
        d3_to_bilinear(10**6 + 1, 7)
