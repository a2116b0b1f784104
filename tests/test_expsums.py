"""Kloosterman and hyper-Kloosterman sums: oracles, identities, bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum import expsums
from expsum.arith import factorize
from expsum.expsums import (
    BadModulus,
    e_frac,
    hyper_kl3_table,
    hyper_kl3_table_direct,
    kloosterman_direct,
    kloosterman_explicit_pp_table,
    kloosterman_split,
    kloosterman_split_row,
    kloosterman_table,
    unit_inverse_table,
    unit_mask,
    weil_audit,
)
from expsum.modarith import PrimePower, is_prime

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
        assert abs(kloosterman_table(5)[c] - want) < 1e-12


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
    tab = kloosterman_table(q)
    assert abs(tab[m % q] - kloosterman_direct(1, m, q)) < 1e-9 * q


@settings(deadline=None)
@given(st.integers(1, 120), st.integers(-50, 200), st.integers(-50, 200))
def test_kloosterman_split_equals_direct(q, a, b):
    # twisted multiplicativity holds for every a, b, unit or not
    assert abs(kloosterman_split(a, b, q) - kloosterman_direct(a, b, q)) < 1e-9 * q


def test_split_builds_each_factor_table_once():
    # 1058 builds when the factor tables came from the 16-entry LRU alone
    expsums._factor_tables.clear()
    kloosterman_table.cache_clear()
    composites = [q for q in range(4, 1001) if not is_prime(q)]
    for q in composites:
        kloosterman_split(1, 1, q)
    factors = {p**e for q in composites for p, e in factorize(q).pairs}
    assert len(factors) == 120
    assert kloosterman_table.cache_info().misses == len(factors)


def _packed(z) -> bytes:
    """(re, im) doubles of a complex array, so the sign of a zero counts."""
    return np.asarray(z, dtype=complex).view(np.float64).tobytes()


@pytest.mark.parametrize("qs", [range(1, 601), [997, 2310, 4096, 4999, 5000]],
                         ids=["q<=600", "large"])
def test_split_row_equals_scalar_split_bit_for_bit(qs):
    for q in qs:
        scalar = [kloosterman_split(1, m, q) for m in range(q)]
        assert _packed(kloosterman_split_row(q)) == _packed(scalar), q


def _hyper_kl3_table_direct_per_unit(q):
    """hyper_kl3_table_direct as one numpy sum per unit x: the reference."""
    if q == 1:
        return np.ones(1, dtype=complex)
    units = np.nonzero(unit_mask(q))[0].astype(np.int64)
    inv = unit_inverse_table(q)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    W = np.zeros(q, dtype=complex)
    for x in units:
        W[x] = roots[(units + inv[(x * units) % q]) % q].sum()
    return np.fft.ifft(W)


def test_hyper_kl3_row_blocks_equal_per_unit_sums():
    # phi(q) > 512 at 1009 and 4096, so the 2^18-term blocks hold several rows
    # and 1009 leaves a short last block
    for q in [*range(1, 61), 1009, 4096]:
        got = hyper_kl3_table_direct(q)
        assert _packed(got) == _packed(_hyper_kl3_table_direct_per_unit(q)), q


def test_kloosterman_table_phases_at_units_only():
    for q in [*range(1, 2049), 7**7]:
        inv, mask = unit_inverse_table(q), unit_mask(q)
        want = (q * np.fft.ifft(np.where(mask, np.exp(2j * np.pi * inv / q), 0.0))).real
        assert kloosterman_table(q).tobytes() == want.tobytes(), q
        assert not kloosterman_table(q).flags.writeable, q


@pytest.mark.parametrize("table,arg", [
    (unit_mask, 1), (unit_mask, 12),
    (unit_inverse_table, 1), (unit_inverse_table, 12),
    (kloosterman_table, 1), (kloosterman_table, 12),
    (hyper_kl3_table, 1), (hyper_kl3_table, 12),
    # the explicit formula needs an odd prime power p^gamma with gamma >= 2
    (kloosterman_explicit_pp_table, PrimePower(3, 2)),
    (kloosterman_explicit_pp_table, PrimePower(5, 3)),
])
def test_cached_tables_are_read_only(table, arg):
    # a cache hands one array to every caller, so none may write to it
    with pytest.raises(ValueError, match="read-only"):
        table(arg)[0] = 5
    assert not table(arg).flags.writeable


@pytest.mark.parametrize("pp", [PrimePower(3, 2), PrimePower(3, 3), PrimePower(5, 2),
                                PrimePower(7, 2), PrimePower(11, 2)])
def test_explicit_pp_matches_direct(pp):
    q = pp.q
    tab = kloosterman_explicit_pp_table(pp)
    for beta in range(1, q):
        if beta % pp.p == 0:
            continue
        direct = kloosterman_direct(1, beta, q)
        assert abs(tab[beta] - direct) < 1e-9 * q, (beta, pp)


def test_explicit_pp_rejects_bad_modulus():
    with pytest.raises(BadModulus):
        kloosterman_explicit_pp_table(PrimePower(7, 1))
    with pytest.raises(BadModulus):
        kloosterman_explicit_pp_table(PrimePower(2, 3))


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


def test_hyper_kl3_deligne_bound_small_primes():
    for p in (3, 5, 7, 11, 13):
        tab = hyper_kl3_table(p)
        # normalised: |Kl3(m, p)| <= 3 for units m
        assert float(np.max(np.abs(tab[1:]))) <= 3.0 + 1e-9


def test_weil_audit_small():
    rep = weil_audit(50)
    assert rep.ratio <= 1.0
    assert rep.aux["max_weil_ratio"] <= 1.0
    assert rep.aux["max_deligne_ratio"] <= 1.0
    p, m = rep.aux["weil_argmax"]
    assert 2 <= p <= 50 and 1 <= m < p
