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
    interpolation (~1e-15 relative), one moment row at a time so that
    the gathers stay in one contiguous row.  The grid ends at
    kappa*u_min = 4608, beyond which the Y0 kernel is taken as 0;
    building the grid raises CutoffTooSmall unless the moments there
    are already below 1e-10.

The dual sum has one route, truncated by a tail monitor: terms are
produced in blocks and summation stops once the weighted magnitude
d(n)*(|Hminus| + |Hplus|)/q stays below 1e-10 for two consecutive
blocks; the true remainder is empirically within ~10x of that block
maximum, so the truncation error is ~1e-9 absolute, far inside the
1e-6-relative acceptance budget (the smallest |lhs| over the verified
grid is ~0.5).  A dual sum still above that at 1.5M terms raises
CutoffTooSmall.

Work is done once per (q, X) and shared by every a mod q.  The kernels
are stored already multiplied by d(n), and complex (with zero imaginary
parts), the type their dot products with the phases take.  A cell is two
dot products against one vector of phases e(abar*n/q), which have period
q in n: one period is read from a q-point table of roots of unity and
tiled.  Since wY is real, its dot product with the conjugate phases is the
conjugate of its dot product with the phases, bit for bit, so one phase
vector serves both.

The gate and the CLI run one X at a time through scale_residuals, which
visits q in order and runs the kernels in bursts: it builds the kernels of
consecutive q until they hold one moment grid's bytes, then runs every
cell of those q, a in order, then drops them.  OpenBLAS splits each long
dot product over two threads, and its helper thread busy-waits for about
0.1 s after the last one; with the dot products of a burst after all of
its builds, that spin comes once per burst (7 times over the gate), not
during every kernel build (60 times).  Each dot keeps its operands,
length and order, so every bit is the same.  The kernels of a burst are
held by scale_residuals alone and freed before the next burst's first
build; a lone voronoi_residual builds its own and holds none afterwards.
Under --jobs the CLI hands each worker process one X, so no kernel is
built twice.  The moment grid is the memo kind voronoi._grid, which keeps
the grid of one X and drops it before the next X's grid is built, so the
two never share memory.  The 13 moment FFTs of one X run in place as six
(2, 2^21) batches on scipy.fft's two workers, then the last row alone.
scipy.fft caches one plan of that length and shares it between its
workers, where np.fft rebuilds its plan on every call; both run pocketfft,
and each row equals np.fft.ifft's serial transform bit for bit.
The Gauss-Legendre panels evaluate their integrand once on the whole node
matrix (for K0, once for every kappa of a block) and reduce it panel by
panel.  scipy is imported by the panel quadratures and the grid build
only, so importing this module does not load it.

A dual sum needs at least c(X)*q^2/X terms, where c(X) grows from about
27,600 at X = 1/2 to 51,800 at X = 400 (a lower envelope measured on an X
grid), so predicted_terms lets a caller refuse a cell whose sum cannot
converge below N_HARD_CAP before any kernel is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .arith import divisor_table
from .memo import stored
from .modarith import units

__all__ = [
    "EULER_GAMMA",
    "NonCoprime",
    "CutoffTooSmall",
    "SmoothWeight",
    "VoronoiReport",
    "predicted_terms",
    "scale_residuals",
    "voronoi_lhs",
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
# lower envelope c(X) of n_auto * X / q^2: _TERMS_C at the scales _TERMS_X,
# linear in log X between them.  At each of 46 scales X from 0.51 to 400 it
# keeps 5% below the least value measured at the largest q whose sum
# converges below N_HARD_CAP and at the q before it
_TERMS_X = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0)
_TERMS_C = (27_620, 30_150, 32_170, 35_330, 37_510, 39_140, 42_980, 46_430, 48_530, 51_790)
# the kernel bytes a burst gathers before its cells run: one moment grid's,
# 13 rows of 4608/(u0*dk) + 16 complex values, a width that X cancels from
_BURST_BYTES = 16 * _KTERMS * (
    int(4608.0 * _NFFT * (math.sqrt(2) - 1) / (2 * math.pi * _NG)) + 16
)


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


# ---------------------------------------------------------------------------
# Kernel machinery
# ---------------------------------------------------------------------------


# c_k = ((2k-1)!!)^2 / (8^k k!), the order-zero Hankel coefficients
_HANKEL_C = tuple(
    accumulate(
        range(1, _KTERMS), lambda c, k: c * (2 * k - 1) ** 2 / (8.0 * k), initial=1.0
    )
)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES.setflags(write=False)
_GL_WEIGHTS.setflags(write=False)


@dataclass(frozen=True)
class _BkGrid:
    """FFT-sampled oscillatory moments B_k on a uniform kappa grid."""

    u0: float
    du: float
    dk: float
    values: np.ndarray  # shape (_KTERMS, Mmax), S_k(kappa_m); B = du e^{i k u0} S


@stored(1)
def _grid(X: float) -> _BkGrid:
    """The moments of g up to kappa*u0 = 4608, checked to be negligible there.

    Past the grid edge _gy_hankel returns 0, so the moments in the last
    interpolation window must already be below TAIL_TOL; CutoffTooSmall
    otherwise.  The rows are transformed in place, two at a time as one
    (2, _NFFT) batch on scipy.fft's two workers and the last one alone;
    each row is the serial transform of its own pad row, scaled straight
    into the read-only grid.
    """
    from scipy import fft  # deferred, as scipy.special is

    u0, u1 = math.sqrt(X), math.sqrt(2 * X)
    du = (u1 - u0) / _NG
    u = u0 + np.arange(_NG) * du
    g = 2 * u * SmoothWeight(X)(u * u)
    dk = 2 * math.pi / (_NFFT * du)
    mmax = int(4608.0 / u0 / dk) + 16
    vals = np.empty((_KTERMS, mmax), dtype=complex)
    pad = np.empty((2, _NFFT), dtype=complex)
    for k in range(0, _KTERMS, 2):
        rows = pad[: min(2, _KTERMS - k)]
        rows[:] = 0.0
        for j, row in enumerate(rows):
            row[:_NG] = g * u ** (-0.5 - (k + j))
        fft.ifft(rows, axis=1, workers=len(rows), overwrite_x=True)
        # scaled straight into the grid rows, with no temporary
        np.multiply(rows[:, :mmax], _NFFT, out=vals[k : k + len(rows)])
    edge = du * float(np.max(np.abs(vals[:, -9:])))
    if not edge < TAIL_TOL:
        raise CutoffTooSmall(
            f"moments at the FFT grid edge are {edge:.3e} for X={X}, not below {TAIL_TOL}"
        )
    vals.setflags(write=False)
    return _BkGrid(u0=u0, du=du, dk=dk, values=vals)


def _gy_hankel(kappas: np.ndarray, bk: _BkGrid) -> np.ndarray:
    """integral g(u) Y0(kappa u) du via the Hankel moment expansion.

    Beyond the stored grid the kernel is returned as 0, never
    extrapolated; _grid has checked that the moments are below
    TAIL_TOL at the grid edge.
    """
    edge = bk.dk * (bk.values.shape[1] - 9)
    out = np.zeros(len(kappas))
    live = kappas <= edge
    if not live.any():
        return out
    kap = kappas[live]
    # the 8-point Lagrange taps, built once for all 13 moment rows; each
    # weight is made complex, as the complex-times-real product would
    # cast it for every row
    t = kap / bk.dk
    base = np.clip(np.floor(t).astype(np.int64) - 3, 0, bk.values.shape[1] - 8)
    frac = t - base
    offsets = [frac - m for m in range(8)]
    taps = []
    for i in range(8):
        w = np.ones(len(kap))
        for m in range(8):
            if m != i:
                w *= offsets[m] / (i - m)
        taps.append((base + i, w.astype(complex)))
    # interpolate one moment row at a time, so the gathers stay inside one
    # contiguous row; each element still sums its taps in order from 0
    total = np.zeros(len(kap), dtype=complex)
    for k in range(_KTERMS):
        row = bk.values[k]
        s = np.zeros(len(kap), dtype=complex)
        for idx, w in taps:
            s += row[idx] * w
        total += ((-1j) ** k) * _HANKEL_C[k] * kap ** (-float(k)) * s
    prefactor = bk.du * np.exp(1j * kap * bk.u0)
    root = np.sqrt(2 / (np.pi * kap))
    out[live] = root * np.imag(np.exp(-1j * math.pi / 4) * prefactor * total)
    return out


def _gl_nodes(lo: float, hi: float, npan: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges of npan equal panels of [lo, hi] and their (npan, 64) GL64 nodes."""
    edges = np.linspace(lo, hi, npan + 1)
    a, b = edges[:-1, None], edges[1:, None]
    return edges, (a + b) / 2 + (b - a) / 2 * _GL_NODES


def _gl_sum(edges: np.ndarray, fx: np.ndarray) -> float:
    """The GL64 rule on the panels' integrand values, one panel at a time, in order."""
    total = 0.0
    for i in range(len(edges) - 1):
        total += (edges[i + 1] - edges[i]) / 2 * np.dot(_GL_WEIGHTS, fx[i])
    return total


def _gl64(f, lo: float, hi: float, npan: int) -> float:
    """integral of f over [lo, hi] on npan equal 64-point Gauss-Legendre panels.

    f is elementwise and is called once, on the (npan, 64) node matrix.
    """
    edges, x = _gl_nodes(lo, hi, npan)
    return _gl_sum(edges, f(x))


def _gy_panels(kappa: float, X: float) -> float:
    """integral g(u) Y0(kappa u) du on quarter-period GL64 panels."""
    from scipy.special import y0  # deferred: most callers never build a kernel

    u0, u1 = math.sqrt(X), math.sqrt(2 * X)
    width = min(math.pi / (2 * kappa), u1 - u0)
    npan = int(math.ceil((u1 - u0) / width))
    h = SmoothWeight(X)
    return _gl64(lambda u: 2 * u * h(u * u) * y0(kappa * u), u0, u1, npan)


def _gk_panels(kappas: np.ndarray, X: float) -> np.ndarray:
    """integral g(u) K0(kappa u) du on 8 GL64 panels per kappa; 0 once kappa*u0 >= Z_KZERO.

    Every kappa shares the node matrix and g on it, and K0 is evaluated
    once on the (kappas, 8, 64) array; each kappa's panels are still
    reduced one at a time, in order.
    """
    u0, u1 = math.sqrt(X), math.sqrt(2 * X)
    out = np.zeros(len(kappas))
    live = np.nonzero(kappas * u0 < Z_KZERO)[0]
    if not len(live):
        return out
    from scipy.special import k0

    edges, u = _gl_nodes(u0, u1, 8)
    fx = 2 * u * SmoothWeight(X)(u * u) * k0(kappas[live, None, None] * u)
    for j, i in enumerate(live):
        out[i] = _gl_sum(edges, fx[j])
    return out


def predicted_terms(q: int, X: float) -> int:
    """A lower bound on the dual-sum length n_auto of (q, X): c(X) * q^2 / X.

    c interpolates _TERMS_C linearly in log X (constant beyond the ends).
    A cell whose bound exceeds N_HARD_CAP cannot converge, so it can be
    refused before any kernel is built.
    """
    c = float(np.interp(math.log(X), np.log(_TERMS_X), _TERMS_C))
    return math.ceil(c * q * q / X)


def _divisors(n: int) -> np.ndarray:
    """d(k) for k <= n, from a table rounded up to a power of two."""
    size = 1 << max(13, (n - 1).bit_length())
    return divisor_table(2, size)


def _build_kernels(q: int, X: float) -> tuple[np.ndarray, np.ndarray, int]:
    """(wY, wK, n_auto): the d(n)-weighted dual-sum kernels of one (q, X).

    wY[i] = d(i+1)*Hminus((i+1)/q^2) and wK[i] = d(i+1)*Hplus((i+1)/q^2)
    for i < n_auto, where n_auto ends the second consecutive block whose
    weighted terms all stay below TAIL_TOL.  Both are complex with zero
    imaginary parts, so the dot products of every cell take them as they
    are.  Hankel-regime kappas read the moment grid of X.
    """
    u0 = math.sqrt(X)
    pieces_y, pieces_k = [], []
    quiet_blocks = 0
    n = 0
    while quiet_blocks < 2:
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
            y[big] = _gy_hankel(kappas[big], _grid(X))
        hminus = -2 * math.pi * y
        hplus = 4 * _gk_panels(kappas, X)
        d = _divisors(hi)[n + 1 : hi + 1]
        pieces_y.append(d * hminus)
        pieces_k.append(d * hplus)
        wmax = float(np.max(d * (np.abs(hminus) + np.abs(hplus))) / q)
        n = hi
        quiet_blocks = quiet_blocks + 1 if wmax < TAIL_TOL else 0
    wY = np.concatenate(pieces_y, dtype=complex)
    wK = np.concatenate(pieces_k, dtype=complex)
    wY.setflags(write=False)
    wK.setflags(write=False)
    return wY, wK, n


@stored(64)
def _main_term(q: int, X: float) -> float:
    """(2/q) integral (log(sqrt(x)/q) + gamma) h(x) dx, composite GL64.

    16 panels on a C-infinity integrand give far below 1e-10 relative;
    the 32-panel refinement is compared as a guard.
    """
    h = SmoothWeight(X)

    def f(x: np.ndarray) -> np.ndarray:
        return (np.log(np.sqrt(x) / q) + EULER_GAMMA) * h(x)

    coarse, fine = _gl64(f, X, 2 * X, 16), _gl64(f, X, 2 * X, 32)
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


def _rhs(
    a: int, q: int, h: SmoothWeight, kernels: tuple[np.ndarray, np.ndarray, int]
) -> tuple[complex, complex, int]:
    """(main term, dual sum, truncation level) from the kernels of (q, h.X);
    voronoi_lhs checked (a, q)."""
    main = complex(_main_term(q, h.X))
    wY, wK, n_auto = kernels
    abar = pow(a, -1, q)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    # e(abar n / q) has period q in n: gather one period, then tile it.
    # wY is real, so wY . conj(phases) is conj(wY . phases) bit for bit:
    # each product's imaginary part is negated exactly, and the sum runs
    # in the same order
    period = roots[(abar * np.arange(1, q + 1)) % q]
    phases = np.tile(period, -(-n_auto // q))[:n_auto]
    dual = complex((np.dot(wY, phases).conjugate() + np.dot(wK, phases)) / q)
    return main, dual, n_auto


def voronoi_residual(
    a: int, q: int, h: SmoothWeight, kernels: tuple[np.ndarray, np.ndarray, int] | None = None
) -> VoronoiReport:
    """Both sides of the identity and their difference at one cell.

    kernels is (wY, wK, n_auto) of (q, h.X), as scale_residuals passes
    them; without it the call builds its own and holds none afterwards.
    """
    lhs = voronoi_lhs(a, q, h)
    if kernels is None:
        kernels = _build_kernels(q, h.X)
    main, dual, level = _rhs(a, q, h, kernels)
    return VoronoiReport(
        lhs=lhs,
        rhs_main=main,
        rhs_dual=dual,
        truncation_level=level,
        residual=abs(lhs - main - dual),
    )


def scale_residuals(qs, X: float) -> list[tuple[int, int, VoronoiReport]]:
    """(q, a, report) of every cell at scale X: q as qs lists them, then a unit a.

    The report is voronoi_residual(a, q, SmoothWeight(X)), and the units
    1 <= a <= q run in increasing order.  A burst takes q in order, each
    built once, until its kernels hold _BURST_BYTES, so it holds less than
    that plus one q's kernels (and at least one q); its cells run after its
    last build.
    """
    qs = list(qs)
    if qs and min(qs) < 1:
        raise ValueError(f"q must be >= 1, got {min(qs)}")
    h = SmoothWeight(X)
    out = []
    while qs:
        kernels, held, burst = {}, 0, []  # the last burst's are freed before this one's builds
        for q in qs:
            burst.append(q)
            if q not in kernels:
                kernels[q] = _build_kernels(q, X)
                held += kernels[q][0].nbytes + kernels[q][1].nbytes
            if held >= _BURST_BYTES:
                break
        qs = qs[len(burst):]
        out += [(q, a, voronoi_residual(a, q, h, kernels[q])) for q in burst for a in units(q)]
    return out
