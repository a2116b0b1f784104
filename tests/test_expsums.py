"""Kloosterman and hyper-Kloosterman sums: oracles, identities, bounds."""

import cmath
import contextlib
import functools
import hashlib
import importlib.util
import io
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum import cli, expsums, memo, verify
from expsum.arith import factorize
from expsum.expsums import (
    BadModulus,
    BoundReport,
    hyper_kl3_table,
    hyper_kl3_table_direct,
    kloosterman_at_inverse,
    kloosterman_direct,
    kloosterman_explicit_pp_table,
    kloosterman_split,
    kloosterman_split_row,
    kloosterman_table,
    unit_inverse_table,
    unit_mask,
    weil_audit,
)
from expsum.modarith import PrimePower, is_prime, legendre, units

SQRT5 = math.sqrt(5.0)

# S(1, c; 5) in closed form: the unit sum collapses to golden-ratio cosines.
KLOOSTERMAN_MOD5 = {
    0: -1.0,
    1: 2.0 + 2.0 * math.cos(4 * math.pi / 5),   # = (5 - sqrt 5)/2 - 1
    2: -1.0 - SQRT5,
    3: SQRT5 - 1.0,
    4: (3.0 + SQRT5) / 2.0,
}


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


def _kloosterman_cmath_loop(a: int, b: int, q: int) -> complex:
    """kloosterman_direct as one cmath.exp and one Kahan step per unit: the bit oracle."""
    acc = _Kahan()
    for x in range(1, q + 1):
        if math.gcd(x, q) != 1:
            continue
        acc.add(e_frac(a * x + b * pow(x, -1, q), q))
    return acc.value()


def _same_bits(z: complex, w: complex) -> bool:
    """z == w part by part, and the signs of zero parts agree too."""
    return all(u == v and math.copysign(1.0, u) == math.copysign(1.0, v)
               for u, v in ((z.real, w.real), (z.imag, w.imag)))


def test_kloosterman_direct_equals_the_cmath_loop_bit_for_bit():
    calls = [(a, b, q) for q in range(1, 41) for a in range(q) for b in range(q)]
    # composite moduli up to 2000 with a degenerate first argument, and
    # arguments far outside [0, q)
    rng = np.random.default_rng(20261019)
    composites = [q for q in range(4, 2001) if not is_prime(q)]
    for q in rng.choice(composites, size=120, replace=False).tolist():
        a = q - factorize(q).pairs[0][0]
        calls.append((a, int(rng.integers(q)), q))
        calls.append((int(rng.integers(-10**9, 10**9)), int(rng.integers(-10**9, 10**9)), q))
    for a, b, q in calls:
        assert _same_bits(kloosterman_direct(a, b, q), _kloosterman_cmath_loop(a, b, q)), (a, b, q)
    assert _same_bits(kloosterman_direct(5, -3, 1), complex(1.0, 0.0))


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
@given(st.integers(1, 400), st.data())
def test_kloosterman_at_inverse_is_the_scalar_rule_bit_for_bit(q, data):
    table = kloosterman_table(q)

    def rule(c: int, w: int) -> float:
        return 0.0 if math.gcd(w, q) > 1 else float(table[c * pow(w, -1, q) % q])

    w = data.draw(st.lists(st.integers(0, q - 1), max_size=12))
    c1, c2 = (data.draw(st.just(1) | st.integers(-3 * q, 3 * q)) for _ in range(2))
    got = kloosterman_at_inverse(c1, np.array(w, dtype=np.int64), q)
    assert got.tobytes() == np.array([rule(c1, x) for x in w]).tobytes()
    # one multiplier per row, both rows in one gather
    rows = kloosterman_at_inverse(np.array([[c1], [c2]]), np.array([w, w], dtype=np.int64), q)
    assert rows.tobytes() == np.array([[rule(c, x) for x in w] for c in (c1, c2)]).tobytes()
    every = kloosterman_at_inverse(c1, slice(None), q)
    assert every.tobytes() == np.array([rule(c1, x) for x in range(q)]).tobytes()


@settings(deadline=None)
@given(st.integers(1, 120), st.integers(-50, 200), st.integers(-50, 200))
def test_kloosterman_split_equals_direct(q, a, b):
    # twisted multiplicativity holds for every a, b, unit or not
    assert abs(kloosterman_split(a, b, q) - kloosterman_direct(a, b, q)) < 1e-9 * q


@settings(max_examples=200)
@given(st.integers(6, 10**4).filter(lambda q: len(factorize(q).pairs) >= 2),
       st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_kloosterman_split_equals_direct_on_composite_moduli(q, a, b):
    assert abs(kloosterman_split(a, b, q) - kloosterman_direct(a, b, q)) < 1e-9 * q


def test_split_builds_each_factor_table_once():
    # 1058 builds when the factor tables came from the 16-entry LRU alone
    expsums._factor_table.cache_clear()
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


# criterion 01's moduli: odd p^gamma <= 10^6, gamma >= 2
_EXPLICIT_PP = [PrimePower(p, g) for p in (3, 5, 7, 11, 13) for g in range(2, 13) if p**g <= 10**6]


def _explicit_pp_reference(pp: PrimePower) -> np.ndarray:
    """The explicit table's earlier construction, kept as its bit reference."""
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
    return vals


def test_explicit_pp_table_equals_its_reference_bit_for_bit():
    assert len(_EXPLICIT_PP) == 32
    for pp in _EXPLICIT_PP:
        assert kloosterman_explicit_pp_table.__wrapped__(pp).tobytes() == \
            _explicit_pp_reference(pp).tobytes(), pp


@pytest.mark.parametrize("build,arg,budget", [
    # the table, 8 bytes a residue, and one block of units
    (unit_inverse_table, 7**7, 10.5),
    # the FFT buffer (16) and the phases at the units (16 * 6/7);
    # pocketfft's plan and scratch are not numpy arrays, so tracemalloc
    # does not see them
    (kloosterman_table, 7**7, 30.0),
    # the table (8) and the closed form's arrays over the residues
    (kloosterman_explicit_pp_table, PrimePower(7, 7), 26.5),
], ids=["unit_inverse_table", "kloosterman_table", "kloosterman_explicit_pp_table"])
def test_large_builds_allocate_within_their_budget(build, arg, budget):
    # numpy's peak allocation in one build at q = 7^7, in bytes a residue;
    # the unit mask and inverses it reads are stored first, outside it
    q = 7**7
    unit_inverse_table(q)
    tracemalloc.start()
    try:
        build.__wrapped__(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / q <= budget


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


def _check_inverse_table(q, xs):
    tab = unit_inverse_table(q)
    assert tab.dtype == np.int64 and not tab.flags.writeable, q
    assert tab.shape == (q,), q
    xs = np.asarray(xs, dtype=np.int64)
    units = np.gcd(xs, q) == 1
    assert tab[xs[units]].tolist() == [pow(x, -1, q) for x in xs[units].tolist()], q
    assert not tab[xs[~units]].any(), q


def test_unit_inverse_table_equals_pow():
    # 46341 is the last modulus on int32 products, 46342 the first on int64
    for q in range(1, 2001):
        _check_inverse_table(q, np.arange(q))
    rng = np.random.default_rng(7)
    for q in (46340, 46341, 46342, 2**19, 3**12, 720720, 999983, 10**6):
        xs = np.concatenate([np.arange(1, 50), q - np.arange(1, 50),
                             q // 2 + np.arange(-25, 25), rng.integers(0, q, 2000)])
        _check_inverse_table(q, xs)


@pytest.mark.parametrize("q", [1, 2, 7, 9, 12, 45])
def test_hyper_kl3_two_paths_agree(q):
    fast = hyper_kl3_table(q)
    slow = hyper_kl3_table_direct(q)
    assert np.max(np.abs(fast - slow)) < 1e-9 * q


@settings(deadline=None)
@given(st.integers(1, 600))
def test_hyper_kl3_two_paths_agree_on_any_q_up_to_600(q):
    test_hyper_kl3_two_paths_agree(q)


def test_hyper_kl3_deligne_bound_small_primes():
    for p in (3, 5, 7, 11, 13):
        tab = hyper_kl3_table(p)
        # normalised: |Kl3(m, p)| <= 3 for units m
        assert float(np.max(np.abs(tab[1:]))) <= 3.0 + 1e-9


def test_bound_report_derives_ratio_and_vanished():
    assert BoundReport(0j, 0.0).ratio == 0.0  # a zero sum against a zero bound
    assert BoundReport(1e-300 + 0j, 0.0).ratio == math.inf
    assert BoundReport(3 + 4j, 2.0).ratio == 2.5
    edge = 1e-6 * 25  # the threshold at term_count 25
    assert BoundReport(complex(edge), 1.0, term_count=25).vanished
    assert not BoundReport(complex(math.nextafter(edge, 1.0)), 1.0, term_count=25).vanished
    rep = BoundReport(1e-6 + 0j, 1.0)
    assert (rep.vanishing_predicted, rep.term_count, rep.vanished) == (False, 1, True)
    nan = BoundReport(complex(math.nan), 1.0)
    assert math.isnan(nan.ratio) and not nan.vanished


def test_weil_audit_small():
    rows = weil_audit(50)
    assert [r["p"] for r in rows] == [p for p in range(2, 51) if is_prime(p)]
    assert all(r["weil"] <= 1.0 and r["deligne"] <= 1.0 for r in rows)


def test_weil_audit_rows_are_the_literal_maxima():
    # each ratio is the maximum over the units, read from the literal sums
    # rather than from the tables the audit reduces to
    for row in weil_audit(13):
        p = row["p"]
        us = units(p)
        weil = max(abs(kloosterman_direct(a, b, p)) for a in us for b in us) / (2 * math.sqrt(p))
        deligne = float(np.max(np.abs(hyper_kl3_table_direct(p)[1:]))) / 3.0
        assert abs(row["weil"] - weil) <= 1e-12, p
        assert abs(row["deligne"] - deligne) <= 1e-12, p


# ------------------------------------------------------------- memo store

# every stored kind of the package, each with today's keep (None: all)
_KEEP = {
    "arith.factorize": 100_000, "arith.divisor_table": 8,
    "expsums.unit_mask": 16, "expsums.unit_inverse_table": 16, "expsums.kloosterman_table": 16,
    "expsums.kloosterman_explicit_pp_table": 16, "expsums._factor_table": None,
    "expsums.hyper_kl3_table": 16, "bilinear._lambda_weights": 1,
    "distribution._multiples": None, "distribution._char_sums": 2048,
}
_KINDS = {kind: getattr(sys.modules[f"expsum.{module}"], name)
          for kind in memo.COUNTS for module, _, name in [kind.partition(".")]}
_SMALL_Q = memo.SMALL_Q  # 2^17: above it a table is held for one modulus at a time


def _empty_store():
    """Every value dropped and every count zero, as in a fresh process."""
    for f in _KINDS.values():
        f.cache_clear()


def _large_tables() -> list:
    """The held expsums tables of a modulus above 2^17; a table's size is its modulus."""
    return [t for held in memo._LARGE for t in held.values() if t.size > _SMALL_Q]


def _counts() -> dict:
    return {kind: (f.cache_info().misses, f.cache_info().hits) for kind, f in _KINDS.items()}


def test_the_store_speaks_lru_caches_interface():
    assert {kind: f.cache_parameters()["maxsize"] for kind, f in _KINDS.items()} == _KEEP
    _empty_store()
    for kind, f in _KINDS.items():
        assert f.cache_parameters()["typed"] is False
        assert f.__module__ == f"expsum.{kind.partition('.')[0]}"
        assert f.__wrapped__.__name__ == kind.partition(".")[2]
    kloosterman_table(12)
    kloosterman_table(12)
    info = kloosterman_table.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 1, 16, 1)
    kloosterman_table.cache_clear()
    assert tuple(kloosterman_table.cache_info()) == (0, 0, 16, 0)


def test_a_full_kind_drops_its_least_recent_value_before_a_build():
    # so a build never shares memory with the value it replaces
    refs, alive = [], []

    def probe(n):
        alive.append([r() is not None for r in refs])
        value = np.full(n, n)
        refs.append(weakref.ref(value))
        return value

    kinds = set(memo.COUNTS)
    probe = memo.stored(1)(probe)
    try:
        probe(3)
        probe(3)
        probe(4)
    finally:
        for kind in set(memo.COUNTS) - kinds:
            del memo.COUNTS[kind]
    assert alive == [[], [False]]  # probe(3) hit, and 3's value was dead as 4's was built
    assert probe.cache_info()[:2] == (1, 2)


def test_explicit_pp_leaves_large_tables_of_at_most_one_modulus():
    _empty_store()
    assert verify.criterion_explicit_pp(False).passed
    large = _large_tables()
    assert len({t.size for t in large}) <= 1
    # one modulus q <= 10^6: its unit mask (1 byte a residue), inverse,
    # Kloosterman and explicit tables (8 bytes each), 25 MB at most
    assert sum(t.nbytes for t in large) <= 25 * 10**6


def test_explicit_pp_builds_its_largest_modulus_first_and_stores_what_p_gamma_order_does(
        monkeypatch):
    _empty_store()
    for pp in _EXPLICIT_PP:
        kloosterman_table(pp.q)
        kloosterman_explicit_pp_table(pp)
    want = [list(held) for held in memo._LARGE], _counts()
    _empty_store()
    built = []
    table = verify.kloosterman_table
    monkeypatch.setattr(verify, "kloosterman_table", lambda q: built.append(q) or table(q))
    assert verify.criterion_explicit_pp(False).passed
    assert built == [7**7] + [pp.q for pp in _EXPLICIT_PP if pp.q != 7**7]
    assert ([list(held) for held in memo._LARGE], _counts()) == want
    _empty_store()


def test_a_large_table_of_another_modulus_drops_the_held_ones_before_its_build(monkeypatch):
    _empty_store()
    q1, q2 = _SMALL_Q + 1, _SMALL_Q + 3
    kloosterman_table(q1)
    small = kloosterman_table(12)
    assert {t.size for t in _large_tables()} == {q1}
    held_at_build = []
    factor = expsums.factorize
    monkeypatch.setattr(expsums, "factorize",
                        lambda n: held_at_build.append(len(_large_tables())) or factor(n))
    unit_mask(q2)
    assert held_at_build == [0]
    assert {t.size for t in _large_tables()} == {q2}
    assert kloosterman_table(12) is small  # small tables stay
    hits, misses = unit_mask.cache_info()[:2]
    unit_mask(q2)  # a reused large modulus builds once
    assert unit_mask.cache_info()[:2] == (hits + 1, misses)


def _operations(workload: str) -> list:
    """A perfbench workload's operations, the scans in-process without --jobs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.operations(workload, 1)
    return [(kind, arg[:arg.index("--jobs")] if kind == "scan" else arg) for kind, arg in ops]


def _run(ops) -> dict:
    """Run ops from an empty store; the builds and hits of each kind."""
    _empty_store()
    for kind, arg in ops:
        if kind == "criterion":
            assert getattr(verify, f"criterion_{arg}")(False).passed, arg
        else:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                assert cli.main(arg) == 0, arg
    return _counts()


@pytest.mark.parametrize("workload", ["kl-tables", "divisor-sums", "correlations"])
def test_every_stored_kind_builds_and_hits_as_its_lru_cache_does(workload, monkeypatch):
    ops = _operations(workload)
    got = _run(ops)
    assert got["expsums.kloosterman_table"][0] > 0
    # the reference: an lru_cache of the kind's keep around each body, bound
    # wherever the package bound the stored function, as perfbench's tracer binds it
    refs = {f: functools.lru_cache(f.cache_parameters()["maxsize"])(f.__wrapped__)
            for f in _KINDS.values()}
    for mod in [m for n, m in sys.modules.items() if n.startswith("expsum.")]:
        for attr, val in list(vars(mod).items()):
            for f, ref in refs.items():
                if val is f:
                    monkeypatch.setattr(mod, attr, ref)
    _run(ops)
    want = {kind: (refs[f].cache_info().misses, refs[f].cache_info().hits)
            for kind, f in _KINDS.items()}
    assert got == want
    _empty_store()


@pytest.mark.parametrize("argv,digest,builds", [
    (["charsum-pp", "--p", "5,7", "--gamma-max", "7"],
     "a1b99719b4d64a8167c4389bbeb944aa99d53b38bcfc23372f2d6d069bf64972",
     {"expsums.unit_inverse_table": (14, 3798), "expsums.unit_mask": (14, 3812),
      "expsums.kloosterman_table": (12, 1888)}),
    # q = 31^4 = 923521, the largest modulus the CLI reaches
    (["charsum-pp", "--p", "31", "--gamma-max", "4"],
     "35885a8598c554bf9821d415c7891cda408da2988ad9ab4dd366692319f03a2c",
     {"expsums.unit_inverse_table": (4, 599), "expsums.unit_mask": (4, 603),
      "expsums.kloosterman_table": (3, 297)}),
], ids=["p5,7-gamma7", "p31-gamma4"])
def test_a_reused_large_modulus_builds_once(argv, digest, builds, capsys):
    _empty_store()
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert {k: v for k, v in _counts().items() if k in builds} == builds
    _empty_store()
