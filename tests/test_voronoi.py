"""Voronoi summation for d(n): weights, kernel transforms, both sides."""

import hashlib
import math
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from expsum import verify, voronoi
from expsum.arith import d_exact
from expsum.cli import main
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
        got = voronoi._gy_hankel(np.array([kappa]), voronoi._bk_grid(X_ORACLE))[0]
    want = _oracle(lambda z: mpmath.bessely(0, z), kx)
    assert abs(got - want) < _oracle_tol()


@pytest.mark.parametrize("kx", [0.5, 40.0, 100.0])
def test_k0_transform_matches_mpmath_oracle(kx):
    # panels where K0 is large and just below Z_KZERO, exactly 0 past it
    got = voronoi._gk_panels(kx / math.sqrt(X_ORACLE), X_ORACLE)
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
    # q = 20 at X = 50 needs 409600 terms; with one block allowed the build
    # stops at the cap, and the CLI reports it as a failed check
    voronoi._kernels.cache_clear()
    monkeypatch.setattr(voronoi, "N_HARD_CAP", voronoi.BLOCK)
    with pytest.raises(CutoffTooSmall, match="not converged below 8192 terms"):
        voronoi_residual(1, 20, SmoothWeight(50.0))
    assert main(["voronoi", "--q", "20", "--X", "50"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "check failed: CutoffTooSmall" in err


def test_fft_grid_edge_is_checked(monkeypatch):
    # past the grid edge the Y0 kernel reads as 0, so a grid whose edge
    # moments are not below TAIL_TOL must raise; __wrapped__ builds afresh
    monkeypatch.setattr(voronoi, "TAIL_TOL", 1e-16)
    with pytest.raises(CutoffTooSmall, match="FFT grid edge"):
        voronoi._bk_grid.__wrapped__(50.0)


def test_kernels_are_a_function_of_q_and_X():
    h = SmoothWeight(50.0)
    voronoi._kernels.cache_clear()
    cold = voronoi_residual(2, 5, h)
    voronoi._kernels.cache_clear()
    for q in (3, 4, 7):
        voronoi_residual(1, q, h)
    assert voronoi_residual(2, 5, h) == cold


def test_gate_builds_one_kernel_per_q_and_X():
    # the gate visits X outermost, then q, so one entry of each cache
    # builds every (q, X) kernel and every X grid exactly once
    voronoi._kernels.cache_clear()
    voronoi._bk_grid.cache_clear()
    assert verify.criterion_voronoi(quick=True).passed
    for cache, builds in ((voronoi._kernels, 6), (voronoi._bk_grid, 1)):
        assert cache.cache_parameters()["maxsize"] == 1
        assert cache.cache_info().misses == builds


@pytest.mark.parametrize("q", range(1, 21))
def test_root_table_phases_equal_the_exp_expression(q):
    # _rhs tiles one period of e(abar n / q), read from a q-point table;
    # each entry is the same np.exp expression, so the phases agree bit
    # for bit
    n_auto = voronoi._kernels(20, 50.0)[2]
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
    values = voronoi._bk_grid(X).values
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
    bk = voronoi._bk_grid(X)
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
        assert voronoi._gk_panels(kappa, X) == want_k
    for q in (1, 7, 20):
        def f(x):
            return (np.log(np.sqrt(x) / q) + voronoi.EULER_GAMMA) * h(x)

        want = 2.0 / q * _gl64_ref(f, X, 2 * X, 32)
        assert voronoi._main_term.__wrapped__(q, X) == want


@pytest.mark.parametrize("q", range(1, 21))
def test_periodic_phases_give_the_same_dual_sum(q):
    h = SmoothWeight(50.0)
    wY, wK, n_auto = voronoi._kernels(q, 50.0)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    for a in range(q):
        if math.gcd(a, q) != 1:
            continue
        abar = pow(a, -1, q) if q > 1 else 0
        phases = roots[(abar * np.arange(1, n_auto + 1)) % q]
        want = complex((np.dot(wY, np.conj(phases)) + np.dot(wK, phases)) / q)
        assert _packed(voronoi._rhs(a, q, h)[1]) == _packed(want)


# sha256 of wY.tobytes() + wK.tobytes() and n_auto, recorded before the
# row-wise interpolation and the one-pass panels
_KERNEL_PINS = {
    (1, 50.0): (24576, "f4e1454dc5e1dcec867caaf6a52972f7f45b0ae27020021c8b9c0bd404747a5e"),
    (7, 100.0): (49152, "b63713be07513508b5a4ab19145b5877b9fb9371af28dfe17e0e8fc20e4ec2f4"),
    (20, 200.0): (131072, "91c1d7935165ba5b6d54d5042f429a94fa0b93d60a24bb6f8858641c6cb0cca1"),
}


@pytest.mark.parametrize("q,X", list(_KERNEL_PINS))
def test_kernel_bytes_are_pinned(q, X):
    wY, wK, n_auto = voronoi._kernels(q, X)
    digest = hashlib.sha256(wY.tobytes() + wK.tobytes()).hexdigest()
    assert (n_auto, digest) == _KERNEL_PINS[(q, X)]


def test_kernels_built_once_under_threads():
    # more workers than cores reach one new (q, X) together; the lock
    # around the lookup leaves one build and the rest cache hits
    h = SmoothWeight(50.0)
    voronoi._bk_grid(50.0)
    voronoi._kernels.cache_clear()
    start = threading.Barrier(4)

    def cell(a):
        start.wait(timeout=60)
        return voronoi_residual(a, 7, h)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(cell, a) for a in (1, 2, 3, 4)]
            reports = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert voronoi._kernels.cache_info().misses == 1
    assert all(r.relative_residual < 1e-6 for r in reports)


def test_importing_the_package_does_not_load_scipy():
    # scipy.special is imported by the panel quadratures only, so the CLI
    # and every scan that builds no Voronoi kernel skip its import
    code = "import sys, expsum, expsum.cli, expsum.verify; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
