"""Voronoi summation for d(n): weights, kernel transforms, both sides."""

import math

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
    # _rhs reads e(abar n / q) from a q-point table; each entry is the
    # same np.exp expression, so the phases agree bit for bit
    n = np.arange(1, voronoi._kernels(20, 50.0)[2] + 1)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    for a in range(q):
        if math.gcd(a, q) == 1:
            r = (a * n) % q
            want = np.exp(2j * np.pi * r / q)
            assert roots[r].tobytes() == want.tobytes()


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
