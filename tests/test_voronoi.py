"""Voronoi summation for d(n): weights, kernel transforms, both sides."""

import contextlib
import hashlib
import math
import subprocess
import sys
import weakref
from itertools import groupby
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expsum import verify, voronoi
from expsum.cli import ValidationError, build_parser, main, validate
from expsum.modarith import units
from expsum.voronoi import (
    CutoffTooSmall,
    NonCoprime,
    SmoothWeight,
    voronoi_lhs,
    voronoi_residual,
)


def test_smooth_weight_support_and_endpoints():
    h = SmoothWeight(50.0)
    assert h.support == (50.0, 100.0)
    assert h(50.0) == 0.0
    assert h(100.0) == 0.0
    assert h(49.0) == 0.0 and h(101.0) == 0.0
    assert h(75.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        SmoothWeight(0.0)


def test_smooth_weight_scalar_array_agree():
    h = SmoothWeight(10.0)
    xs = np.linspace(5.0, 25.0, 41)
    arr = h(xs)
    for x, v in zip(xs, arr):
        assert h(float(x)) == pytest.approx(v, abs=1e-15)
    assert 0.0 < h(12.0) < 1.0


X_ORACLE = 50.0


def _oracle(kernel, kx: float) -> float:
    """integral g(u) kernel(kappa u) du at X = 50, kappa*sqrt(X) = kx.

    The kernel values come from mpmath; 32-point Gauss-Legendre on at
    least 6 panels, none wider than a period, is good to 2e-15 of
    integral g du by itself.
    """
    u0, u1 = math.sqrt(X_ORACLE), math.sqrt(2 * X_ORACLE)
    kappa = kx / u0
    nodes, weights = np.polynomial.legendre.leggauss(32)
    npan = max(6, math.ceil((u1 - u0) * kappa / (2 * math.pi)))
    edges = np.linspace(u0, u1, npan + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        u = (lo + hi) / 2 + (hi - lo) / 2 * nodes
        g = 2 * u * SmoothWeight(X_ORACLE)(u * u)
        total += (hi - lo) / 2 * math.fsum(
            float(w * gi * kernel(kappa * ui)) for w, gi, ui in zip(weights, g, u)
        )
    return total


def _oracle_tol() -> float:
    return 1e-12 * _oracle(lambda z: 1, 1.0)  # integral g du = 30.17


@pytest.mark.parametrize("kx", [0.5, 10.0, 40.0, 100.0])
def test_y0_transform_matches_mpmath_oracle(kx):
    # one panel, quarter-period panels, then the Hankel moments near the
    # switch and far past it; c_3 scaled by 1.01 moves kx = 40 by 2.4e-11
    # of integral g du, so these points pin the Hankel coefficients
    kappa = kx / math.sqrt(X_ORACLE)
    if kx < voronoi.Z_HANKEL:
        got = voronoi._gy_panels(kappa, X_ORACLE)
    else:
        got = voronoi._gy_hankel(np.array([kappa]), voronoi._grid(X_ORACLE))[0]
    want = _oracle(lambda z: mpmath.bessely(0, z), kx)
    assert abs(got - want) < _oracle_tol()


@pytest.mark.parametrize("kx", [0.5, 40.0, 100.0])
def test_k0_transform_matches_mpmath_oracle(kx):
    # panels where K0 is large and just below Z_KZERO, exactly 0 past it
    got = voronoi._gk_panels(np.array([kx / math.sqrt(X_ORACLE)]), X_ORACLE)[0]
    want = _oracle(lambda z: mpmath.besselk(0, z), kx)
    assert abs(got - want) < _oracle_tol()


def test_voronoi_lhs_is_a_finite_divisor_sum():
    import cmath

    h = SmoothWeight(50.0)
    want = 0j
    for n in range(50, 101):
        d = sum(1 for k in range(1, n + 1) if n % k == 0)  # d(n) by trial division
        want += d * h(float(n)) * cmath.exp(2j * math.pi * (n % 3) / 3)
    got = voronoi_lhs(1, 3, h)
    assert got == pytest.approx(want, abs=1e-12)


def test_voronoi_identity_small_cells():
    for a, q in ((1, 1), (2, 5)):
        rep = voronoi_residual(a, q, SmoothWeight(50.0))
        assert rep.relative_residual < 1e-6
        assert rep.truncation_level > 0
        # main term is real
        assert abs(rep.rhs_main.imag) < 1e-12


def test_voronoi_rejects_bad_arguments():
    h = SmoothWeight(50.0)
    with pytest.raises(NonCoprime):
        voronoi_residual(2, 4, h)
    with pytest.raises(ValueError):
        voronoi_residual(1, 0, h)
    with pytest.raises(ValueError, match="q must be >= 1"):
        voronoi.scale_residuals([3, 0], 50.0)  # before any kernel is built


def test_unconverged_dual_sum_raises(monkeypatch, capsys):
    # q = 1 at X = 50 needs 24576 terms; with one block allowed the build
    # stops at the cap, and the CLI reports it as a failed check (the
    # up-front refusal predicts far fewer than 8192 terms for this cell)
    monkeypatch.setattr(voronoi, "N_HARD_CAP", voronoi.BLOCK)
    with pytest.raises(CutoffTooSmall, match="not converged below 8192 terms"):
        voronoi_residual(1, 1, SmoothWeight(50.0))
    assert main(["voronoi", "--q", "1", "--X", "50"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "check failed: CutoffTooSmall" in err


def test_fft_grid_edge_is_checked(monkeypatch):
    # past the grid edge the Y0 kernel reads as 0, so a grid whose edge
    # moments are not below TAIL_TOL must raise, and the memo keeps none
    voronoi._grid.cache_clear()
    monkeypatch.setattr(voronoi, "TAIL_TOL", 1e-16)
    with pytest.raises(CutoffTooSmall, match="FFT grid edge"):
        voronoi._grid(50.0)
    info = voronoi._grid.cache_info()
    assert (info.misses, info.currsize) == (1, 0)


def test_kernels_are_a_function_of_q_and_X():
    # a cell built with a fresh grid equals one built after other q
    h = SmoothWeight(50.0)
    voronoi._grid.cache_clear()
    cold = voronoi_residual(2, 5, h)
    for q in (3, 4, 7):
        voronoi_residual(1, q, h)
    assert voronoi_residual(2, 5, h) == cold


@pytest.fixture(scope="module")
def gate_log():
    """The full criterion 9, run once with its grid builds, kernel builds
    and dual sums logged in order.

    A build logs ("build", q, X, the bytes of the earlier kernels alive as
    it starts, which of them are alive, its own kernel bytes); a cell's
    dual sum logs ("dot", q, X); a grid build logs ("grid", X, nbytes).
    """
    voronoi._grid.cache_clear()
    events, refs = [], []
    build_kernels, rhs, grid = voronoi._build_kernels, voronoi._rhs, voronoi._grid

    def kernels_spy(q, X):
        alive = [r() is not None for r in refs]
        held = sum(r().nbytes for r in refs if r() is not None)
        event = ["build", q, X, held, alive]
        events.append(event)
        kern = build_kernels(q, X)
        refs.extend(weakref.ref(w) for w in kern[:2])
        event.append(kern[0].nbytes + kern[1].nbytes)
        return kern

    def rhs_spy(a, q, h, kernels):
        events.append(("dot", q, h.X))
        return rhs(a, q, h, kernels)

    def grid_spy(X):
        misses = grid.cache_info().misses
        bk = grid(X)
        if grid.cache_info().misses > misses:
            events.append(("grid", X, bk.values.nbytes))
        return bk

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voronoi, "_build_kernels", kernels_spy)
        mp.setattr(voronoi, "_rhs", rhs_spy)
        mp.setattr(voronoi, "_grid", grid_spy)
        result = verify.criterion_voronoi(quick=False)
    assert result.passed
    builds = [e for e in events if e[0] == "build"]
    return SimpleNamespace(
        events=events,
        builds=builds,
        counts=(len(builds), grid.cache_info().misses),
        alive_after=[r() is not None for r in refs],
    )


def _watch_kernels(mp) -> list:
    """Weak references to both kernel arrays of every build from now on."""
    refs = []
    build = voronoi._build_kernels

    def spy(q, X):
        kern = build(q, X)
        refs.extend(weakref.ref(w) for w in kern[:2])
        return kern

    mp.setattr(voronoi, "_build_kernels", spy)
    return refs


@contextlib.contextmanager
def _logged(events: list):
    """Log ("build", q) at each kernel build and ("dot", q) at each cell's dual sum."""
    build, rhs = voronoi._build_kernels, voronoi._rhs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voronoi, "_build_kernels",
                   lambda q, X: events.append(("build", q)) or build(q, X))
        mp.setattr(voronoi, "_rhs",
                   lambda a, q, h, kernels: events.append(("dot", q)) or rhs(a, q, h, kernels))
        yield


def test_gate_builds_one_kernel_per_q_and_X(gate_log):
    # the gate visits X outermost, then q, and a burst keeps every kernel
    # it builds until its cells have run, so every (q, X) kernel and every
    # X grid is built exactly once
    voronoi._grid.cache_clear()
    events = []
    with _logged(events):
        assert verify.criterion_voronoi(quick=True).passed
    assert [q for kind, q in events if kind == "build"] == [1, 2, 3, 4, 5, 6]
    info = voronoi._grid.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    keys = [(q, X) for _, q, X, *_ in gate_log.builds]
    assert keys == [(q, X) for X in (50.0, 100.0, 200.0) for q in range(1, 21)]
    assert gate_log.counts == (60, 3)
    assert [e[1] for e in gate_log.events if e[0] == "grid"] == [50.0, 100.0, 200.0]


def test_a_burst_builds_all_its_kernels_before_its_first_dual_sum(gate_log):
    # a burst takes q in order at one X until its kernels reach one grid's
    # bytes, builds them all, then runs each of their cells: the log is
    # that sequence, burst after burst, and the first dual sum of a burst
    # comes after its last build
    size = {(e[1], e[2]): e[5] for e in gate_log.builds}
    bursts = []
    for X in (50.0, 100.0, 200.0):
        held = math.inf  # a new X starts a burst
        for q in range(1, 21):
            if held >= voronoi._BURST_BYTES:
                bursts.append((X, []))
                held = 0
            bursts[-1][1].append(q)
            held += size[q, X]
    want = []
    for X, qs in bursts:
        want += [("build", q, X) for q in qs]
        want += [("dot", q, X) for q in qs for _ in units(q)]
    assert [tuple(e[:3]) for e in gate_log.events if e[0] != "grid"] == want
    assert len(bursts) == 7


def test_a_burst_holds_at_most_one_grid_of_kernels_plus_one_q(gate_log):
    # _BURST_BYTES is one moment grid's bytes, at every X
    assert {e[2] for e in gate_log.events if e[0] == "grid"} == {voronoi._BURST_BYTES}
    reached = False
    for _, q, X, held, alive, nbytes in gate_log.builds:
        # a q's two kernels live and die together
        assert alive[::2] == alive[1::2]
        # a build starts with less than one grid's bytes of kernels alive,
        # so after it less than that plus this q's kernels are alive
        assert held < voronoi._BURST_BYTES, (q, X)
        reached |= held + nbytes >= voronoi._BURST_BYTES
    assert reached  # the bound is met, not just never approached
    # and once the gate returns, no kernel is alive
    assert not any(gate_log.alive_after)


def test_a_new_X_drops_the_old_grid_and_kernels_before_its_grid_is_built(monkeypatch):
    # the old X's grid is freed, not just unlisted, by the time the next
    # grid's first moment FFT runs, and no kernel of the old X is alive
    from scipy import fft

    voronoi._grid.cache_clear()
    refs = _watch_kernels(monkeypatch)
    voronoi.scale_residuals([3, 4], 50.0)
    old = [weakref.ref(voronoi._grid(50.0))] + refs
    seen = []
    ifft = fft.ifft

    def ifft_spy(*args, **kwargs):
        seen.append([r() is None for r in old])
        return ifft(*args, **kwargs)

    monkeypatch.setattr(fft, "ifft", ifft_spy)
    voronoi_residual(1, 3, SmoothWeight(100.0))
    assert seen == [[True] * 5] * 7  # six two-row batches and the last row
    info = voronoi._grid.cache_info()
    assert (info.misses, info.currsize) == (2, 1)


def test_a_grid_still_viewed_keeps_its_buffer():
    # a view of the old grid that outlives it holds its buffer, so the
    # next grid goes to a new array and the view's values do not change
    held = voronoi._grid(50.0).values[0]
    before = held.tobytes()
    new = voronoi._grid(100.0).values
    assert not np.shares_memory(new, held)
    assert held.tobytes() == before


@pytest.fixture(scope="module")
def n_auto_20_50():
    """The dual-sum length of q = 20 at X = 50."""
    return voronoi._build_kernels(20, 50.0)[2]


@pytest.mark.parametrize("q", range(1, 21))
def test_root_table_phases_equal_the_exp_expression(q, n_auto_20_50):
    # _rhs tiles one period of e(abar n / q), read from a q-point table;
    # each entry is the same np.exp expression, so the phases agree bit
    # for bit
    n_auto = n_auto_20_50
    n = np.arange(1, n_auto + 1)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    for a in range(q):
        if math.gcd(a, q) == 1:
            period = roots[(a * np.arange(1, q + 1)) % q]
            got = np.tile(period, -(-n_auto // q))[:n_auto]
            want = np.exp(2j * np.pi * ((a * n) % q) / q)
            assert _packed(got) == _packed(want)


def _serial_rows(X: float, rows, width: int) -> list[bytes]:
    """numpy's serial transform of each moment row's own zero-padded pad."""
    u0, u1 = math.sqrt(X), math.sqrt(2 * X)
    du = (u1 - u0) / voronoi._NG
    u = u0 + np.arange(voronoi._NG) * du
    g = 2 * u * SmoothWeight(X)(u * u)
    out = []
    for k in rows:
        pad = np.zeros(voronoi._NFFT)
        pad[: voronoi._NG] = g * u ** (-0.5 - k)
        out.append((voronoi._NFFT * np.fft.ifft(pad)[:width]).tobytes())
    return out


def test_paired_moment_ffts_equal_the_serial_transform():
    # rows 0 and 11 (1 at X = 0.75) are the first and second of a two-row
    # batch, and row 12 is the lone last one; a swapped row, a pad row
    # left uncleared or a transform that differs from numpy's changes
    # their bits
    for X, rows in ((50.0, (0, 11, 12)), (0.75, (1,))):
        values = voronoi._grid(X).values
        got = [values[k].tobytes() for k in rows]
        assert got == _serial_rows(X, rows, values.shape[1]), X


def test_conjugate_symmetry():
    # replacing a by q - a conjugates both sides of the identity
    h = SmoothWeight(50.0)
    r1 = voronoi_residual(2, 7, h)
    r2 = voronoi_residual(5, 7, h)
    assert r1.lhs == pytest.approx(r2.lhs.conjugate(), rel=1e-12)
    assert r1.rhs_dual == pytest.approx(r2.rhs_dual.conjugate(), rel=1e-9)


def _packed(z) -> bytes:
    """(re, im) doubles of complex values, so the sign of a zero counts."""
    return np.asarray(z, dtype=complex).reshape(-1).view(np.float64).tobytes()


# The references below are the earlier formulations of the Hankel
# interpolation, the GL64 panels and the dual-sum phases.  The module
# reorders only how memory is touched, not any per-element operation or
# summation order, so its results must match these byte for byte.


def _lagrange8_rows_ref(grid, dk, kappas):
    """8-point Lagrange interpolation of every row at once (column gathers)."""
    t = kappas / dk
    base = np.clip(np.floor(t).astype(np.int64) - 3, 0, grid.shape[1] - 8)
    frac = t - base
    out = np.zeros((grid.shape[0], len(kappas)), dtype=complex)
    for i in range(8):
        w = np.ones(len(kappas))
        for m in range(8):
            if m != i:
                w *= (frac - m) / (i - m)
        out += grid[:, base + i] * w
    return out


def _gy_hankel_ref(kappas, bk):
    edge = bk.dk * (bk.values.shape[1] - 9)
    out = np.zeros(len(kappas))
    live = kappas <= edge
    kap = kappas[live]
    s = _lagrange8_rows_ref(bk.values, bk.dk, kap)
    total = np.zeros(len(kap), dtype=complex)
    for k in range(voronoi._KTERMS):
        total += ((-1j) ** k) * voronoi._HANKEL_C[k] * kap ** (-float(k)) * s[k]
    prefactor = bk.du * np.exp(1j * kap * bk.u0)
    root = np.sqrt(2 / (np.pi * kap))
    out[live] = root * np.imag(np.exp(-1j * math.pi / 4) * prefactor * total)
    return out


def _gk_panels_ref(kappa, X):
    """The scalar K0 formula, one kappa per call."""
    from scipy.special import k0

    u0, u1 = math.sqrt(X), math.sqrt(2 * X)
    if kappa * u0 >= voronoi.Z_KZERO:
        return 0.0
    h = SmoothWeight(X)
    return voronoi._gl64(lambda u: 2 * u * h(u * u) * k0(kappa * u), u0, u1, 8)


def _gl64_ref(f, lo, hi, npan):
    """One call of f per panel."""
    edges = np.linspace(lo, hi, npan + 1)
    total = 0.0
    for i in range(npan):
        a, b = edges[i], edges[i + 1]
        x = (a + b) / 2 + (b - a) / 2 * voronoi._GL_NODES
        total += (b - a) / 2 * np.dot(voronoi._GL_WEIGHTS, f(x))
    return total


@pytest.mark.parametrize("X", [50.0, 100.0, 200.0])
def test_row_wise_hankel_equals_the_column_gather(X):
    bk = voronoi._grid(X)
    width = bk.values.shape[1]
    edge = bk.dk * (width - 9)
    # base clipped to 0 (t < 3), every Hankel-regime kappa of q = 1 and
    # q = 20 up to the grid edge, the edge itself and points past it
    low = np.array([0.1, 1.0, 2.5, 2.999, 3.0]) * bk.dk
    ns = np.arange(1, 3 * voronoi.BLOCK + 1, dtype=float)
    regime = [4 * math.pi * np.sqrt(ns) / q for q in (1, 20)]
    high = np.array([edge - bk.dk, edge, edge * (1 + 1e-12), 2 * edge])
    kappas = np.concatenate([low, *regime, high])
    got = voronoi._gy_hankel(kappas, bk)
    assert got.tobytes() == _gy_hankel_ref(kappas, bk).tobytes()
    assert not got[-2:].any()


@pytest.mark.parametrize("X", [50.0, 200.0])
def test_one_pass_panels_equal_the_per_panel_calls(X):
    from scipy.special import k0, y0

    h = SmoothWeight(X)
    u0, u1 = math.sqrt(X), math.sqrt(2 * X)
    for kx in (0.5, 3.0, 10.0, 20.0, 34.9, 59.9):
        kappa = kx / u0
        width = min(math.pi / (2 * kappa), u1 - u0)
        npan = int(math.ceil((u1 - u0) / width))
        want_y = _gl64_ref(lambda u: 2 * u * h(u * u) * y0(kappa * u), u0, u1, npan)
        want_k = _gl64_ref(lambda u: 2 * u * h(u * u) * k0(kappa * u), u0, u1, 8)
        assert voronoi._gy_panels(kappa, X) == want_y
        assert voronoi._gk_panels(np.array([kappa]), X)[0] == want_k
    for q in (1, 7, 20):
        def f(x):
            return (np.log(np.sqrt(x) / q) + voronoi.EULER_GAMMA) * h(x)

        want = 2.0 / q * _gl64_ref(f, X, 2 * X, 32)
        assert voronoi._main_term.__wrapped__(q, X) == want


@pytest.mark.parametrize("X", [50.0, 100.0, 200.0])
def test_block_k0_panels_equal_the_scalar_formula(X):
    # every kappa = 4 pi sqrt(n) / q of the gate with kappa*u0 < Z_KZERO,
    # then a few past it, which read 0
    u0 = math.sqrt(X)
    kappas = np.concatenate([
        4 * math.pi * np.sqrt(np.arange(1, 200 * q * q // int(X) + 2, dtype=float)) / q
        for q in range(1, 21)
    ])
    live = kappas * u0 < voronoi.Z_KZERO
    assert live.sum() > 300 and (~live).any()
    want = np.array([_gk_panels_ref(float(k), X) for k in kappas])
    assert voronoi._gk_panels(kappas, X).tobytes() == want.tobytes()
    assert not want[~live].any()


@pytest.mark.parametrize("q", range(1, 21))
def test_periodic_phases_give_the_same_dual_sum(q):
    # the oracle is the two-tile sum on the real kernel: one tile of
    # e(abar n / q), one of its conjugate, each dotted with a float vector
    h = SmoothWeight(50.0)
    kernels = voronoi._build_kernels(q, 50.0)
    wY, wK, n_auto = kernels
    wY, wK = np.ascontiguousarray(wY.real), np.ascontiguousarray(wK.real)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    for a in range(q):
        if math.gcd(a, q) != 1:
            continue
        abar = pow(a, -1, q) if q > 1 else 0
        period = roots[(abar * np.arange(1, q + 1)) % q]
        reps = -(-n_auto // q)
        phases = np.tile(period, reps)[:n_auto]
        conj = np.tile(np.conj(period), reps)[:n_auto]
        want = complex((np.dot(wY, conj) + np.dot(wK, phases)) / q)
        assert _packed(voronoi._rhs(a, q, h, kernels)[1]) == _packed(want)


# sha256 of the real parts wY.tobytes() + wK.tobytes() and n_auto,
# recorded before the row-wise interpolation and the one-pass panels, when
# the kernels were stored as float arrays
_KERNEL_PINS = {
    (1, 50.0): (24576, "f4e1454dc5e1dcec867caaf6a52972f7f45b0ae27020021c8b9c0bd404747a5e"),
    (7, 100.0): (49152, "b63713be07513508b5a4ab19145b5877b9fb9371af28dfe17e0e8fc20e4ec2f4"),
    (20, 200.0): (131072, "91c1d7935165ba5b6d54d5042f429a94fa0b93d60a24bb6f8858641c6cb0cca1"),
}


@pytest.mark.parametrize("q,X", list(_KERNEL_PINS))
def test_kernel_bytes_are_pinned(q, X):
    wY, wK, n_auto = voronoi._build_kernels(q, X)
    assert wY.dtype == wK.dtype == complex
    assert not wY.imag.any() and not wK.imag.any()
    real = np.ascontiguousarray(wY.real).tobytes() + np.ascontiguousarray(wK.real).tobytes()
    assert (n_auto, hashlib.sha256(real).hexdigest()) == _KERNEL_PINS[(q, X)]


def test_a_new_q_drops_the_old_kernels_before_its_build(gate_log):
    # in the gate, a finished burst's kernels are freed before the next
    # burst's first build, and the current burst's stay alive
    i = first = 0  # builds so far, and where the current burst's began
    last = None
    for event in gate_log.events:
        if event[0] == "build":
            if last == "dot":
                first = i
            alive = event[4]
            assert alive == [False] * (2 * first) + [True] * (2 * (i - first)), event[1:3]
            i += 1
        if event[0] != "grid":  # a grid is built inside a kernel build
            last = event[0]
    assert first > 0


def test_no_kernel_outlives_the_call_that_built_it(monkeypatch):
    # scale_residuals holds a burst's kernels only while it runs, and a
    # lone cell builds its own and holds none once it returns
    refs = _watch_kernels(monkeypatch)
    assert len(voronoi.scale_residuals([1, 2], 50.0)) == 2
    assert len(refs) == 4 and not any(r() for r in refs)
    voronoi_residual(1, 3, SmoothWeight(50.0))
    assert len(refs) == 6 and not any(r() for r in refs)


def test_a_repeated_q_runs_its_cells_twice_from_one_build():
    events = []
    with _logged(events):
        cells = voronoi.scale_residuals([3, 3], 50.0)
    assert events == [("build", 3)] + [("dot", 3)] * 4
    assert [(q, a) for q, a, _ in cells] == [(3, 1), (3, 2)] * 2
    assert cells[:2] == cells[2:]


def _cell_line(r) -> str:
    """Every field of a report, floats as float.hex."""
    parts = (r.lhs.real, r.lhs.imag, r.rhs_main.real, r.rhs_main.imag,
             r.rhs_dual.real, r.rhs_dual.imag, r.residual)
    return ",".join(float.hex(v) for v in parts) + f",{r.truncation_level}\n"


def _quick_grid_digest() -> str:
    """sha256 of the lines of the 12 cells of criterion 9's quick grid."""
    voronoi._grid.cache_clear()
    digest = hashlib.sha256()
    for _, _, r in voronoi.scale_residuals(range(1, 7), 50.0):
        digest.update(_cell_line(r).encode())
    return digest.hexdigest()


_QUICK_GRID_PIN = "3e5a1456444250a1c9d812f29fcce352e74fff72778975c8b0d900db8f6f8983"


def test_quick_grid_cells_are_pinned():
    # recorded before the complex kernels and the one-vector dual sum
    assert _quick_grid_digest() == _QUICK_GRID_PIN


@pytest.mark.parametrize("limit,held", [(0, [[1], [2], [3], [4], [5], [6]]),
                                        (math.inf, [[1, 2, 3, 4, 5, 6]])])
def test_burst_size_changes_no_bit(monkeypatch, limit, held):
    # a limit of 0 builds each q just before its cells, as one kernel slot
    # did; no limit builds every q of X first: the cells are the same
    monkeypatch.setattr(voronoi, "_BURST_BYTES", limit)
    events = []
    with _logged(events):
        assert _quick_grid_digest() == _QUICK_GRID_PIN
    bursts = [[q for _, q in run] for kind, run in groupby(events, lambda e: e[0])
              if kind == "build"]
    assert bursts == held


def _accepted(qs, X) -> bool:
    """Whether the CLI runs these cells: X holds enough mass and every sum can converge."""
    argv = ["voronoi", "--q", ",".join(map(str, qs)), "--X", repr(X)]
    try:
        validate(build_parser().parse_args(argv))
    except ValidationError:
        return False
    return True


@settings(max_examples=5)
@given(st.floats(0.51, 400.0), st.lists(st.integers(1, 20), min_size=1, max_size=3,
                                       unique=True).map(sorted))
def test_accepted_cells_close_and_a_burst_changes_no_bit(X, qs):
    # cells inside the CLI's refusal envelope close to the gate's 1e-6;
    # sums above 300,000 predicted terms are left out to bound the time
    assume(_accepted(qs, X))
    assume(max(voronoi.predicted_terms(q, X) for q in qs) <= 300_000)
    h = SmoothWeight(X)
    # one q's kernels at a time, each built just before its cells ...
    alone = []
    for q in qs:
        kernels = voronoi._build_kernels(q, X)
        alone += [(q, a, voronoi_residual(a, q, h, kernels)) for a in units(q)]
    # ... and every q's built before the first cell
    events = []
    with _logged(events):
        burst = voronoi.scale_residuals(qs, X)
    assert [e[0] for e in events] == ["build"] * len(qs) + ["dot"] * len(burst)
    assert [(q, a) for q, a, _ in burst] == [(q, a) for q, a, _ in alone]
    for (q, a, got), (_, _, want) in zip(burst, alone):
        assert want.relative_residual <= 1e-6, (q, a, X)
        assert _cell_line(got) == _cell_line(want), (q, a, X)


def test_forked_workers_after_a_grid_build_print_the_same_bytes(capsys):
    # a grid build starts scipy.fft's worker threads in this process; the
    # --jobs 2 workers are forked after that and build their own grids,
    # and must print what --jobs 1 prints
    voronoi._grid.cache_clear()
    voronoi._grid.__wrapped__(50.0)
    argv = ["voronoi", "--q", "1..4", "--X", "50,100"]
    outs = {}
    for jobs in ("2", "1"):
        assert main(argv + ["--jobs", jobs]) == 0
        outs[jobs] = capsys.readouterr().out
    assert outs["2"] == outs["1"] != ""


def test_importing_the_package_does_not_load_scipy():
    # scipy is imported by the panel quadratures and the grid build only,
    # so the CLI and every scan that builds no Voronoi kernel skip its import
    code = "import sys, expsum, expsum.cli, expsum.verify; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
