"""Numerical verification of the Voronoi summation identity for d(n).

For a smooth compactly supported weight h and gcd(a, q) = 1 the twisted
divisor sum equals a main term plus a Bessel-transformed dual sum:

    sum_n d(n) e(a*n/q) h(n)
        = (2/q) * integral (log(sqrt(x)/q) + gamma_E) h(x) dx
        + (1/q) * sum_n d(n) [ e(-abar*n/q) Hminus(n/q^2)
                             + e(+abar*n/q) Hplus(n/q^2) ]

with Hminus(al) = -2*pi * integral h(y) Y0(4*pi*sqrt(y*al)) dy and
Hplus(al) = 4 * integral h(y) K0(4*pi*sqrt(y*al)) dy.

Kernel evaluation strategy (after y = u^2, g(u) = 2*u*h(u^2), the
kernels become integrals of g against Y0/K0(kappa*u) with
kappa = 4*pi*sqrt(n)/q over u in [sqrt(X), sqrt(2X)]):

  * non-oscillatory K0 part: Gauss-Legendre panels; identically 0 in
    double precision once kappa*u_min >= 60 (K0(60) < 9e-27);
  * oscillatory Y0 part, kappa*u_min < 35: 64-point Gauss-Legendre
    panels no wider than a quarter period of the kernel;
  * oscillatory Y0 part, kappa*u_min >= 35: 13-term Hankel expansion
    of Y0, whose truncation error is below 2e-16 there, reducing the
    kernel to moments B_k(kappa) = integral g(u) u^(-1/2-k) e(i*kappa*u) du;
    the B_k are sampled on a uniform kappa-grid by one zero-padded FFT
    per k (trapezoid sums are spectrally accurate because g vanishes to
    all orders at both endpoints) and read off by 8-point Lagrange
    interpolation (~1e-15 relative).

The dual sum is truncated by a tail monitor: terms are produced in
blocks and summation stops once the weighted magnitude
d(n)*(|Hminus| + |Hplus|)/q stays below 1e-10 for two consecutive
blocks; the true remainder is empirically within ~10x of that block
maximum, so the truncation error is ~1e-9 absolute, far inside the
1e-6-relative acceptance budget (the smallest |lhs| over the verified
grid is ~0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import k0 as _scipy_k0, y0 as _scipy_y0

from .arith import divisor_table

__all__ = [
    "EULER_GAMMA",
    "NonPositiveArgument",
    "NonCoprime",
    "CutoffTooSmall",
    "SmoothWeight",
    "VoronoiReport",
    "bessel_y0",
    "bessel_k0",
    "voronoi_lhs",
    "voronoi_rhs",
    "voronoi_residual",
]

EULER_GAMMA = 0.57721566490153286061

Z_HANKEL = 35.0  # kappa*u_min at which the Y0 Hankel expansion takes over
Z_KZERO = 60.0  # kappa*u_min beyond which the K0 kernel is 0 in doubles
TAIL_TOL = 1e-10  # per-term weighted tail threshold for auto truncation
N_HARD_CAP = 1_500_000
BLOCK = 8192
_NG = 4096  # g samples for the moment FFTs
_NFFT = 1 << 21  # zero-padded FFT length
_KTERMS = 13  # Hankel terms (truncation < 2e-16 for z >= 35)


class NonPositiveArgument(ValueError):
    """Bessel kernels are only evaluated for x > 0."""


class NonCoprime(ValueError):
    """The twist numerator must be coprime to the modulus."""


class CutoffTooSmall(ValueError):
    """The dual sum has not converged at the requested truncation."""


@dataclass(frozen=True)
class SmoothWeight:
    """The C-infinity bump supported on [X, 2X], normalised to 1 at 3X/2.

    h(x) = exp(1 - 1/(1 - s^2)) with s = (2x - 3X)/X inside the support,
    0 outside; h vanishes with all derivatives at both endpoints.
    """

    X: float

    def __post_init__(self) -> None:
        if self.X <= 0:
            raise ValueError(f"scale X must be positive, got {self.X}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.X, 2 * self.X)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        s = (2 * arr - 3 * self.X) / self.X
        out = np.zeros_like(s)
        inside = np.abs(s) < 1
        out[inside] = np.exp(1 - 1 / (1 - s[inside] ** 2))
        if np.isscalar(x) or arr.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class VoronoiReport:
    """Both sides of the identity at one (a, q, X) cell."""

    lhs: complex
    rhs_main: complex
    rhs_dual: complex
    truncation_level: int
    residual: float

    @property
    def relative_residual(self) -> float:
        return self.residual / abs(self.lhs) if self.lhs != 0 else math.inf

    @property
    def passes(self) -> bool:
        return self.residual <= 1e-6 * abs(self.lhs)


def bessel_y0(x: float) -> float:
    """Y0(x) for x > 0, absolute error well below 1e-10."""
    if x <= 0:
        raise NonPositiveArgument(f"Y0 needs x > 0, got {x}")
    return float(_scipy_y0(x))


def bessel_k0(x: float) -> float:
    """K0(x) for x > 0, absolute error well below 1e-10."""
    if x <= 0:
        raise NonPositiveArgument(f"K0 needs x > 0, got {x}")
    return float(_scipy_k0(x))


# ---------------------------------------------------------------------------
# Reference implementations of the classical series/asymptotic recipes.
# The public evaluators above are library-backed; these independent
# versions exist so the test suite can cross-validate each recipe on the
# domain where it is honestly accurate (the ascending series everywhere
# it converges cleanly, the asymptotic forms for large argument, where
# their optimal-truncation error ~ e^(-2x) is small enough).
# ---------------------------------------------------------------------------


def _y0_series(x: float, terms: int = 60) -> float:
    """Ascending series: (2/pi)[(log(x/2)+gamma) J0(x) + sum correction]."""
    x2 = x * x / 4.0
    j0 = 1.0
    corr = 0.0
    term = 1.0
    harmonic = 0.0
    for k in range(1, terms + 1):
        term *= -x2 / (k * k)
        j0 += term
        harmonic += 1.0 / k
        corr += -term * harmonic
    return 2.0 / math.pi * ((math.log(x / 2) + EULER_GAMMA) * j0 + corr)


def _k0_series(x: float, terms: int = 60) -> float:
    """Ascending series: -(log(x/2)+gamma) I0(x) + sum correction."""
    x2 = x * x / 4.0
    i0 = 1.0
    corr = 0.0
    term = 1.0
    harmonic = 0.0
    for k in range(1, terms + 1):
        term *= x2 / (k * k)
        i0 += term
        harmonic += 1.0 / k
        corr += term * harmonic
    return -(math.log(x / 2) + EULER_GAMMA) * i0 + corr


@lru_cache(maxsize=1)
def _hankel_coeffs(kterms: int = _KTERMS) -> tuple[float, ...]:
    """c_k = ((2k-1)!!)^2 / (8^k k!), the order-zero Hankel coefficients."""
    out = [1.0]
    for k in range(1, kterms):
        out.append(out[-1] * (2 * k - 1) ** 2 / (8.0 * k))
    return tuple(out)


def _y0_hankel(x: float) -> float:
    """Large-argument form sqrt(2/pi x)[sin(x-pi/4) P + cos(x-pi/4) Q].

    P and Q are the even/odd parts of sum_k (-i)^k c_k x^-k.  Error is
    governed by the first omitted term: ~1e-7 at x = 8, below 1e-10 for
    x >= 14, below 2e-16 for x >= 35.
    """
    ck = _hankel_coeffs()
    p = 0.0
    qq = 0.0
    for k in range(0, len(ck), 2):
        p += (-1) ** (k // 2) * ck[k] * x ** (-k)
    for k in range(1, len(ck), 2):
        qq += -((-1) ** (k // 2)) * ck[k] * x ** (-k)
    w = x - math.pi / 4
    return math.sqrt(2 / (math.pi * x)) * (math.sin(w) * p + math.cos(w) * qq)


def _k0_asymptotic(x: float) -> float:
    """Large-argument form e^-x sqrt(pi/2x) sum_k (-1)^k c_k x^-k.

    The series is divergent; at the printed switch point x = 2 its best
    accuracy is only ~1e-2 relative, reaching 1e-10 around x >= 18.
    """
    ck = _hankel_coeffs()
    s = 0.0
    for k, c in enumerate(ck):
        s += (-1) ** k * c * x ** (-k)
    return math.exp(-x) * math.sqrt(math.pi / (2 * x)) * s


# ---------------------------------------------------------------------------
# Kernel machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _gl64() -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(64)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class _BkGrid:
    """FFT-sampled oscillatory moments B_k on a uniform kappa grid."""

    X: float
    u0: float
    du: float
    dk: float
    kmax: float
    values: np.ndarray  # shape (_KTERMS, Mmax), S_k(kappa_m); B = du e^{i k u0} S


@lru_cache(maxsize=6)
def _bk_grid(X: float, kmax: float) -> _BkGrid:
    u0, u1 = math.sqrt(X), math.sqrt(2 * X)
    du = (u1 - u0) / _NG
    u = u0 + np.arange(_NG) * du
    g = 2 * u * SmoothWeight(X)(u * u)
    dk = 2 * math.pi / (_NFFT * du)
    mmax = int(kmax / dk) + 16
    vals = np.empty((_KTERMS, mmax), dtype=complex)
    pad = np.zeros(_NFFT)
    for k in range(_KTERMS):
        pad[:] = 0.0
        pad[:_NG] = g * u ** (-0.5 - k)
        vals[k] = _NFFT * np.fft.ifft(pad)[:mmax]
    vals.setflags(write=False)
    return _BkGrid(X=X, u0=u0, du=du, dk=dk, kmax=kmax, values=vals)


def _lagrange8_rows(grid: np.ndarray, dk: float, kappas: np.ndarray) -> np.ndarray:
    """8-point Lagrange interpolation of every row of grid at kappas."""
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


def _gy_hankel(kappas: np.ndarray, bk: _BkGrid) -> np.ndarray:
    """integral g(u) Y0(kappa u) du via the Hankel moment expansion.

    Beyond the stored grid the kernel is returned as 0: at the grid edge
    kappa*u0 > 4500 and the moments of the C-infinity bump have decayed
    below 1e-14, so extrapolation is never attempted.
    """
    edge = bk.dk * (bk.values.shape[1] - 9)
    out = np.zeros(len(kappas))
    live = kappas <= edge
    if not live.any():
        return out
    kap = kappas[live]
    ck = _hankel_coeffs()
    s = _lagrange8_rows(bk.values, bk.dk, kap)
    total = np.zeros(len(kap), dtype=complex)
    for k in range(_KTERMS):
        total += ((-1j) ** k) * ck[k] * kap ** (-float(k)) * s[k]
    prefactor = bk.du * np.exp(1j * kap * bk.u0)
    root = np.sqrt(2 / (np.pi * kap))
    out[live] = root * np.imag(np.exp(-1j * math.pi / 4) * prefactor * total)
    return out


def _gy_panels(kappa: float, X: float) -> float:
    """integral g(u) Y0(kappa u) du on quarter-period GL64 panels."""
    nodes, weights = _gl64()
    u0, u1 = math.sqrt(X), math.sqrt(2 * X)
    width = min(math.pi / (2 * kappa), u1 - u0)
    npan = int(math.ceil((u1 - u0) / width))
    edges = np.linspace(u0, u1, npan + 1)
    total = 0.0
    for i in range(npan):
        lo, hi = edges[i], edges[i + 1]
        u = (lo + hi) / 2 + (hi - lo) / 2 * nodes
        g = 2 * u * SmoothWeight(X)(u * u)
        total += (hi - lo) / 2 * np.dot(weights, g * _scipy_y0(kappa * u))
    return total


def _gk_panels(kappa: float, X: float, npan: int = 8) -> float:
    """integral g(u) K0(kappa u) du; 0 once kappa*u0 >= Z_KZERO."""
    u0, u1 = math.sqrt(X), math.sqrt(2 * X)
    if kappa * u0 >= Z_KZERO:
        return 0.0
    nodes, weights = _gl64()
    edges = np.linspace(u0, u1, npan + 1)
    total = 0.0
    for i in range(npan):
        lo, hi = edges[i], edges[i + 1]
        u = (lo + hi) / 2 + (hi - lo) / 2 * nodes
        g = 2 * u * SmoothWeight(X)(u * u)
        total += (hi - lo) / 2 * np.dot(weights, g * _scipy_k0(kappa * u))
    return total


def _divisors(n: int) -> np.ndarray:
    """d(k) for k <= n, from a table rounded up to a power of two."""
    size = 1 << max(13, (n - 1).bit_length())
    return divisor_table(2, size).values


class _KernelStore:
    """Grown-on-demand dual-sum kernel vectors per (q, X).

    kerY[i] = Hminus((i+1)/q^2), kerK[i] = Hplus((i+1)/q^2).
    """

    def __init__(self) -> None:
        self._data: dict[tuple[int, float], tuple[np.ndarray, np.ndarray, int]] = {}

    def kernels(
        self, q: int, X: float, n_request: int | None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Return (kerY, kerK, n_auto); arrays cover max(n_auto, n_request)."""
        key = (q, X)
        u0 = math.sqrt(X)
        if key in self._data:
            kerY, kerK, n_auto = self._data[key]
            if n_request is None or n_request <= len(kerY):
                return kerY, kerK, n_auto
            start, target = len(kerY), n_request
            pieces_y, pieces_k = [kerY], [kerK]
        else:
            start, target = 0, (n_request or 0)
            n_auto = 0
            pieces_y, pieces_k = [], []
        quiet_blocks = 0
        n = start
        while True:
            hi = n + BLOCK
            if hi > N_HARD_CAP:
                raise CutoffTooSmall(
                    f"dual sum for q={q}, X={X} not converged below {N_HARD_CAP} terms"
                )
            idx = np.arange(n + 1, hi + 1)
            kappas = 4 * math.pi * np.sqrt(idx.astype(float)) / q
            y = np.empty(len(idx))
            small = kappas * u0 < Z_HANKEL
            for i in np.nonzero(small)[0]:
                y[i] = _gy_panels(float(kappas[i]), X)
            big = ~small
            if big.any():
                bk = _bk_grid(X, 4608.0 / math.sqrt(X))
                y[big] = _gy_hankel(kappas[big], bk)
            kk = np.zeros(len(idx))
            for i in np.nonzero(kappas * u0 < Z_KZERO)[0]:
                kk[i] = _gk_panels(float(kappas[i]), X)
            pieces_y.append(-2 * math.pi * y)
            pieces_k.append(4 * kk)
            d = _divisors(hi)[n + 1 : hi + 1]
            wmax = float(np.max(d * (np.abs(pieces_y[-1]) + np.abs(pieces_k[-1]))) / q)
            n = hi
            if n_auto == 0:
                quiet_blocks = quiet_blocks + 1 if wmax < TAIL_TOL else 0
                if quiet_blocks >= 2:
                    n_auto = n
            if n_auto and n >= target:
                break
        kerY = np.concatenate(pieces_y)
        kerK = np.concatenate(pieces_k)
        kerY.setflags(write=False)
        kerK.setflags(write=False)
        self._data[key] = (kerY, kerK, n_auto)
        return kerY, kerK, n_auto


_KERNELS = _KernelStore()


@lru_cache(maxsize=64)
def _main_term(q: int, X: float) -> float:
    """(2/q) integral (log(sqrt(x)/q) + gamma) h(x) dx, composite GL64.

    16 panels on a C-infinity integrand give far below 1e-10 relative;
    the 32-panel refinement is compared as a guard.
    """
    h = SmoothWeight(X)

    def integrate(npan: int) -> float:
        nodes, weights = _gl64()
        edges = np.linspace(X, 2 * X, npan + 1)
        total = 0.0
        for i in range(npan):
            lo, hi = edges[i], edges[i + 1]
            x = (lo + hi) / 2 + (hi - lo) / 2 * nodes
            f = (np.log(np.sqrt(x) / q) + EULER_GAMMA) * h(x)
            total += (hi - lo) / 2 * np.dot(weights, f)
        return total

    coarse, fine = integrate(16), integrate(32)
    if abs(coarse - fine) > 1e-10 * max(1.0, abs(fine)):
        raise AssertionError(
            f"main-term quadrature not converged: {coarse} vs {fine}"
        )
    return 2.0 / q * fine


def voronoi_lhs(a: int, q: int, h: SmoothWeight) -> complex:
    """sum over n of d(n) e(a n / q) h(n), a finite exact-weight sum."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise NonCoprime(f"gcd({a}, {q}) != 1")
    lo, hi = h.support
    n = np.arange(max(1, int(math.floor(lo))), int(math.ceil(hi)) + 1)
    d = _divisors(int(n[-1]))[n]
    phases = np.exp(2j * np.pi * ((a * n) % q) / q)
    return complex(np.dot(d * h(n.astype(float)), phases))


def _rhs_with_level(
    a: int, q: int, h: SmoothWeight, N_max: int | None
) -> tuple[complex, complex, int]:
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise NonCoprime(f"gcd({a}, {q}) != 1")
    X = h.X
    main = complex(_main_term(q, X))
    kerY, kerK, n_auto = _KERNELS.kernels(q, X, N_max)
    n_used = n_auto if N_max is None else N_max
    n = np.arange(1, n_used + 1)
    d = _divisors(n_used)[1 : n_used + 1]
    abar = pow(a, -1, q) if q > 1 else 0
    phases = np.exp(2j * np.pi * ((abar * n) % q) / q)
    wy = d * kerY[:n_used]
    wk = d * kerK[:n_used]
    dual = complex((np.dot(wy, np.conj(phases)) + np.dot(wk, phases)) / q)
    if N_max is not None:
        # convergence checks at an explicit truncation level
        k_tail = float(abs(wk[-1])) / q
        k_part = abs(complex(np.dot(wk, phases) / q))
        if k_tail > 1e-8 * max(k_part, 1e-300) and k_tail > 1e-15:
            raise CutoffTooSmall(
                f"K-part term at N_max={N_max} is {k_tail:.3e}, "
                f"above 1e-8 of |K dual part| {k_part:.3e}"
            )
        window = min(4096, n_used)
        y_tail = float(np.max(np.abs(wy[-window:]))) / q
        if y_tail > 1e-7 * max(abs(dual), abs(main)):
            raise CutoffTooSmall(
                f"Y-part tail estimate {y_tail:.3e} at N_max={N_max} "
                f"exceeds tolerance for |dual|={abs(dual):.3e}"
            )
    return main, dual, n_used


def voronoi_rhs(
    a: int, q: int, h: SmoothWeight, N_max: int | None = None
) -> tuple[complex, complex]:
    """(main term, dual sum) of the identity's right-hand side.

    With N_max=None the dual sum is truncated automatically by the tail
    monitor; an explicit N_max is honoured but checked for convergence
    (CutoffTooSmall otherwise).
    """
    main, dual, _ = _rhs_with_level(a, q, h, N_max)
    return main, dual


def voronoi_residual(
    a: int, q: int, h: SmoothWeight, N_max: int | None = None
) -> VoronoiReport:
    """Both sides of the identity and their difference at one cell."""
    lhs = voronoi_lhs(a, q, h)
    main, dual, level = _rhs_with_level(a, q, h, N_max)
    return VoronoiReport(
        lhs=lhs,
        rhs_main=main,
        rhs_dual=dual,
        truncation_level=level,
        residual=abs(lhs - main - dual),
    )
