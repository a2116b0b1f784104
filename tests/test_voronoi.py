"""Voronoi summation for d(n): weights, kernel transforms, both sides."""

import hashlib
import math
import subprocess
import sys
import weakref

import mpmath
import numpy as np
import pytest

from expsum import verify, voronoi
from expsum.arith import d_exact
from expsum.cli import main
from expsum.families import voronoi_cells
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
        got = voronoi._gy_hankel(np.array([kappa]), voronoi._STORE.grid(X_ORACLE))[0]
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
        want += d_exact(n) * h(float(n)) * cmath.exp(2j * math.pi * (n % 3) / 3)
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


def test_unconverged_dual_sum_raises(monkeypatch, capsys):
    # q = 1 at X = 50 needs 24576 terms; with one block allowed the build
    # stops at the cap, and the CLI reports it as a failed check (the
    # up-front refusal predicts far fewer than 8192 terms for this cell)
    voronoi._STORE.clear()
    monkeypatch.setattr(voronoi, "N_HARD_CAP", voronoi.BLOCK)
    with pytest.raises(CutoffTooSmall, match="not converged below 8192 terms"):
        voronoi_residual(1, 1, SmoothWeight(50.0))
    assert main(["voronoi", "--q", "1", "--X", "50"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "check failed: CutoffTooSmall" in err


def test_fft_grid_edge_is_checked(monkeypatch):
    # past the grid edge the Y0 kernel reads as 0, so a grid whose edge
    # moments are not below TAIL_TOL must raise, and the store keeps none
    voronoi._STORE.clear()
    monkeypatch.setattr(voronoi, "TAIL_TOL", 1e-16)
    with pytest.raises(CutoffTooSmall, match="FFT grid edge"):
        voronoi._STORE.grid(50.0)
    assert voronoi._STORE.bk is None and voronoi._STORE.grid_builds == 1


def test_kernels_are_a_function_of_q_and_X():
    h = SmoothWeight(50.0)
    voronoi._STORE.clear()
    cold = voronoi_residual(2, 5, h)
    voronoi._STORE.clear()
    for q in (3, 4, 7):
        voronoi_residual(1, q, h)
    assert voronoi_residual(2, 5, h) == cold


def test_gate_builds_one_kernel_per_q_and_X():
    # the gate visits X outermost, then q, so a store of one grid and one
    # q's kernels builds every (q, X) kernel and every X grid exactly once
    store = voronoi._STORE
    store.clear()
    assert verify.criterion_voronoi(quick=True).passed
    assert (store.kernel_builds, store.grid_builds) == (6, 1)
    assert (store.X, store.q) == (50.0, 6)


def test_a_new_X_drops_the_old_grid_and_kernels_before_its_grid_is_built(monkeypatch):
    # the old X's grid and kernels are freed, not just unlisted, by the
    # time the next grid's FFT pads are allocated
    store = voronoi._STORE
    store.clear()
    voronoi_residual(1, 3, SmoothWeight(50.0))
    voronoi_residual(1, 4, SmoothWeight(50.0))
    old = [weakref.ref(store.bk)] + [weakref.ref(w) for w in store.kern[:2]]
    seen = []
    build = voronoi._build_grid

    def spy(X):
        seen.append((X, store.bk, store.kern, [r() is None for r in old]))
        return build(X)

    monkeypatch.setattr(voronoi, "_build_grid", spy)
    voronoi_residual(1, 3, SmoothWeight(100.0))
    assert seen == [(100.0, None, None, [True] * 3)]
    assert (store.kernel_builds, store.grid_builds) == (3, 2)


@pytest.mark.parametrize("q", range(1, 21))
def test_root_table_phases_equal_the_exp_expression(q):
    # _rhs tiles one period of e(abar n / q), read from a q-point table;
    # each entry is the same np.exp expression, so the phases agree bit
    # for bit
    n_auto = voronoi._STORE.kernels(20, 50.0)[2]
    n = np.arange(1, n_auto + 1)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    for a in range(q):
        if math.gcd(a, q) == 1:
            period = roots[(a * np.arange(1, q + 1)) % q]
            got = np.tile(period, -(-n_auto // q))[:n_auto]
            want = np.exp(2j * np.pi * ((a * n) % q) / q)
            assert _packed(got) == _packed(want)


def test_paired_moment_ffts_equal_the_serial_transform():
    # rows 0 and 12 come from different workers; a swapped row or a pad
    # left uncleared between rows changes their bits
    X = 50.0
    values = voronoi._STORE.grid(X).values
    u0, u1 = math.sqrt(X), math.sqrt(2 * X)
    du = (u1 - u0) / voronoi._NG
    u = u0 + np.arange(voronoi._NG) * du
    g = 2 * u * SmoothWeight(X)(u * u)
    for k in (0, voronoi._KTERMS - 1):
        pad = np.zeros(voronoi._NFFT)
        pad[: voronoi._NG] = g * u ** (-0.5 - k)
        want = voronoi._NFFT * np.fft.ifft(pad)[: values.shape[1]]
        assert values[k].tobytes() == want.tobytes()


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
    bk = voronoi._STORE.grid(X)
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
    wY, wK, n_auto = voronoi._STORE.kernels(q, 50.0)
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
        assert _packed(voronoi._rhs(a, q, h)[1]) == _packed(want)


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
    wY, wK, n_auto = voronoi._STORE.kernels(q, X)
    assert wY.dtype == wK.dtype == complex
    assert not wY.imag.any() and not wK.imag.any()
    real = np.ascontiguousarray(wY.real).tobytes() + np.ascontiguousarray(wK.real).tobytes()
    assert (n_auto, hashlib.sha256(real).hexdigest()) == _KERNEL_PINS[(q, X)]


def test_a_new_q_drops_the_old_kernels_before_its_build(monkeypatch):
    # one kernel slot: the old q's kernels are freed before the next build
    store = voronoi._STORE
    store.clear()
    voronoi_residual(1, 1, SmoothWeight(50.0))
    old = [weakref.ref(w) for w in store.kern[:2]]
    seen = []
    build = voronoi._build_kernels

    def spy(q, X, grid):
        seen.append((q, store.q, store.kern, [r() is None for r in old]))
        return build(q, X, grid)

    monkeypatch.setattr(voronoi, "_build_kernels", spy)
    voronoi_residual(1, 2, SmoothWeight(50.0))
    assert seen == [(2, None, None, [True, True])]
    assert (store.q, store.kernel_builds, store.grid_builds) == (2, 2, 1)


def test_quick_grid_cells_are_pinned():
    # every field of the 12 cells of criterion 9's quick grid, as float.hex,
    # recorded before the complex kernels and the one-vector dual sum
    digest = hashlib.sha256()
    for q, a, x in voronoi_cells(range(1, 7), (50.0,)):
        r = voronoi_residual(a, q, SmoothWeight(x))
        parts = (r.lhs.real, r.lhs.imag, r.rhs_main.real, r.rhs_main.imag,
                 r.rhs_dual.real, r.rhs_dual.imag, r.residual)
        line = ",".join(float.hex(v) for v in parts) + f",{r.truncation_level}\n"
        digest.update(line.encode())
    assert digest.hexdigest() == (
        "3e5a1456444250a1c9d812f29fcce352e74fff72778975c8b0d900db8f6f8983"
    )


def test_importing_the_package_does_not_load_scipy():
    # scipy.special is imported by the panel quadratures only, so the CLI
    # and every scan that builds no Voronoi kernel skip its import
    code = "import sys, expsum, expsum.cli, expsum.verify; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
