"""Bilinear sums with divisor-type coefficients twisted by Kl3-tilde.

The central object is

    S = sum_{n in W} sum_{m >= 1} alpha_n lam(m) Kl3~(m n b, q) V(m/M)

where W = {1, ..., N}, |alpha_n| <= 1,
lam(m) = sigma_{s1 - 2w}(m) * m^s2 (so the default w = s1 = s2 = 0
gives the plain divisor function d(m)), and V is the smooth bump
SmoothWeight(1.0) on [1, 2].  Two independent evaluation paths are
provided, a literal double sum and a residue-class grouping, plus
reference evaluations of the three cancellation bounds used for
exponent studies:

    alt        : M N^(1/2) + M^(1/2) N q^(1/4)
    squarefree : q^(3/8) M^(1/2) N^(3/4) + q^(-1/4) M N^(3/2) + N q^(3/4)
    primepower : p^(7/12) q^(1/3) M^(1/2) N^(5/6) + q^(13/20) N

The bounds are evaluated with epsilon = 0 and without the (1+M/q)
factors (those factors are removable by dualising the m-sum and the
quoted unit-value examples pin the bare forms); the stated range
hypotheses, which DO carry the (1+M/q) factors, are reported as flags:
N <= q^(1/2) (1+M/q)^-2 for alt/squarefree, N <= q^(1/5) (1+M/q)^-2
for primepower (which also needs q = p^gamma, gamma >= 2, p odd).
The bounds are reference curves with unspecified asymptotic constants;
the only hard pass/fail comparison is against the trivial bound

    (sum |alpha_n|) * (sum |lam(m)| V(m/M)) * max_r |Kl3~(r, q)|

whose kernel-sup factor makes it a genuine triangle inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import divisor_table, factorize
from .expsums import hyper_kl3_table
from .memo import stored
from .voronoi import SmoothWeight

__all__ = [
    "BilinearConfig",
    "CancellationReport",
    "bilinear_sum",
    "bilinear_grouped",
    "thm_bound",
    "hypothesis_flags",
    "cancellation_scan",
]

V = SmoothWeight(1.0)  # the m-weight: m runs over (M, 2M)


@dataclass(frozen=True)
class BilinearConfig:
    """One bilinear-sum configuration.

    The n-window is 1, ..., N; alpha defaults to all ones.  The m-sum
    runs over (M, 2M), the support of V(m/M).
    """

    q: int
    M: int
    N: int
    b: int = 1
    w: complex = 0j
    s1: complex = 0j
    s2: complex = 0j
    alpha: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        if self.q < 1 or self.M < 1 or self.N < 1:
            raise ValueError("q, M, N must be positive")
        if math.gcd(self.b, self.q) != 1:
            raise ValueError(f"gcd(b={self.b}, q={self.q}) != 1")
        if self.alpha is not None:
            if len(self.alpha) != self.N:
                raise ValueError(
                    f"alpha has length {len(self.alpha)}, window has {self.N}"
                )
            if any(abs(a) > 1 + 1e-12 for a in self.alpha):
                raise ValueError("coefficients must satisfy |alpha_n| <= 1")
        for name in ("w", "s1", "s2"):
            if abs(getattr(self, name)) > 4:
                raise ValueError(f"|{name}| too large for desk scale")

    @property
    def n_window(self) -> np.ndarray:
        return np.arange(1, self.N + 1, dtype=np.int64)

    @property
    def alpha_vector(self) -> np.ndarray:
        if self.alpha is None:
            return np.ones(self.N, dtype=complex)
        return np.asarray(self.alpha, dtype=complex)

    @property
    def shift(self) -> complex:
        """The divisor-power shift: lam(m) = sigma_shift(m) * m^s2."""
        return self.s1 - 2 * self.w


@dataclass(frozen=True)
class CancellationReport:
    """|S| against the trivial and theorem bounds for one config."""

    q: int
    p: int
    M: int
    N: int
    sum_value: complex
    trivial_bound: float
    thm_squarefree: float
    thm_primepower: float
    thm_alt: float
    hypothesis_ok: bool

    @property
    def exponent(self) -> float:
        """log |S| / log(trivial); 1 means no cancellation."""
        if self.sum_value == 0:
            return -math.inf
        if self.trivial_bound <= 0 or self.trivial_bound == 1:
            return math.nan
        return math.log(abs(self.sum_value)) / math.log(self.trivial_bound)

    @property
    def within_trivial(self) -> bool:
        return abs(self.sum_value) <= self.trivial_bound * (1 + 1e-9)


def _m_support(cfg: BilinearConfig) -> np.ndarray:
    lo, hi = V.support
    m_lo = max(1, int(math.floor(lo * cfg.M)))
    m_hi = int(math.ceil(hi * cfg.M)) + 1
    return np.arange(m_lo, m_hi, dtype=np.int64)


def _sigma_power_window(m: np.ndarray, s: complex) -> np.ndarray:
    """sigma_s(m) for every m in a contiguous window, by sieving."""
    lo, hi = int(m[0]), int(m[-1])
    if s == 0:
        return divisor_table(2, hi)[lo : hi + 1].astype(complex)
    out = np.zeros(len(m), dtype=complex)
    for dd in range(1, hi + 1):
        first = ((lo + dd - 1) // dd) * dd
        if first > hi:
            continue
        out[first - lo :: dd] += dd**s
    return out


@stored(1)
def _lambda_weights(cfg: BilinearConfig) -> tuple[np.ndarray, np.ndarray]:
    """(m values, lam(m) * V(m/M)) over the support of V, read-only; a scan
    asks for one config's weights three times in a row, so one is kept."""
    m = _m_support(cfg)
    lam = _sigma_power_window(m, cfg.shift)
    if cfg.s2 != 0:
        lam = lam * np.exp(cfg.s2 * np.log(m.astype(float)))
    lamv = lam * V(m.astype(float) / cfg.M)
    m.setflags(write=False)
    lamv.setflags(write=False)
    return m, lamv


def bilinear_sum(cfg: BilinearConfig) -> complex:
    """The literal double sum, kernel values fetched from the table."""
    tab = hyper_kl3_table(cfg.q)
    m, lamv = _lambda_weights(cfg)
    total = 0j
    alpha = cfg.alpha_vector
    mb = (m % cfg.q) * (cfg.b % cfg.q) % cfg.q
    for pos, n in enumerate(cfg.n_window):
        kern = tab[(mb * (n % cfg.q)) % cfg.q]
        total += alpha[pos] * complex(np.dot(lamv, kern))
    return total


def bilinear_grouped(cfg: BilinearConfig) -> complex:
    """Group by the residue r = m n b mod q, then contract once.

    An independent bracketing of the same finite sum: the weight of
    each residue class is accumulated with bincounts and contracted
    against the kernel table in a single pass.
    """
    tab = hyper_kl3_table(cfg.q)
    m, lamv = _lambda_weights(cfg)
    alpha = cfg.alpha_vector
    mb = (m % cfg.q) * (cfg.b % cfg.q) % cfg.q
    weight = np.zeros(cfg.q, dtype=complex)
    for pos, n in enumerate(cfg.n_window):
        r = (mb * (n % cfg.q)) % cfg.q
        coeff = alpha[pos] * lamv
        weight += np.bincount(r, weights=coeff.real, minlength=cfg.q)
        weight += 1j * np.bincount(r, weights=coeff.imag, minlength=cfg.q)
    return complex(np.dot(weight, tab))


def trivial_bound(cfg: BilinearConfig) -> float:
    """(sum |alpha|) (sum |lam V|) sup |kernel): a true triangle bound."""
    tab = hyper_kl3_table(cfg.q)
    lamv = _lambda_weights(cfg)[1]
    return float(np.sum(np.abs(cfg.alpha_vector)) * np.sum(np.abs(lamv)) * np.max(np.abs(tab)))


def thm_bound(
    kind: str, q: float, M: float, N: float, p: float | None = None
) -> float:
    """Reference cancellation bounds, epsilon = 0, no (1+M/q) factors."""
    if min(q, M, N) <= 0:
        raise ValueError("q, M, N must be positive")
    if kind == "alt":
        return M * math.sqrt(N) + math.sqrt(M) * N * q**0.25
    if kind == "squarefree":
        return (
            q ** (3 / 8) * math.sqrt(M) * N ** (3 / 4)
            + q ** (-1 / 4) * M * N ** (3 / 2)
            + N * q ** (3 / 4)
        )
    if kind == "primepower":
        if p is None or p <= 0:
            raise ValueError("primepower bound needs the prime p")
        return p ** (7 / 12) * q ** (1 / 3) * math.sqrt(M) * N ** (5 / 6) + q ** (
            13 / 20
        ) * N
    raise ValueError(f"unknown bound kind {kind!r}")


def hypothesis_flags(q: int, M: int, N: int) -> tuple[bool, bool]:
    """(squarefree-theorem range holds, primepower-theorem range holds).

    The range conditions keep their (1+M/q) factors; the prime-power
    theorem additionally requires q = p^gamma with gamma >= 2 and p odd,
    the square-free theorem requires q square-free.
    """
    damp = (1 + M / q) ** (-2)
    fac = factorize(q)
    sf = fac.is_squarefree() and N <= math.sqrt(q) * damp
    p, gamma = fac.pairs[0] if len(fac.pairs) == 1 else (0, 0)
    pp = gamma >= 2 and p > 2 and N <= q ** (1 / 5) * damp
    return sf, pp


def cancellation_scan(configs: list[BilinearConfig]) -> list[CancellationReport]:
    """Evaluate |S| against trivial and theorem bounds for each config.

    Every sum is evaluated both ways, bilinear_sum and bilinear_grouped,
    and the two must agree to 1e-9 relative; trivial_bound gives the
    bound.  The memo store hands all three one Kl3 table and one weight
    vector per config.  Theorem bounds are recorded but never asserted
    (their constants are unspecified).
    """
    out = []
    for cfg in configs:
        s = bilinear_sum(cfg)
        s2 = bilinear_grouped(cfg)
        scale = max(abs(s), abs(s2), 1.0)
        if abs(s - s2) > 1e-9 * scale:
            raise AssertionError(f"evaluation paths disagree at {cfg}: {s} vs {s2}")
        pairs = factorize(cfg.q).pairs
        p_small = pairs[0][0] if pairs else 1
        sf_ok, pp_ok = hypothesis_flags(cfg.q, cfg.M, cfg.N)
        out.append(
            CancellationReport(
                q=cfg.q,
                p=p_small,
                M=cfg.M,
                N=cfg.N,
                sum_value=s,
                trivial_bound=trivial_bound(cfg),
                thm_squarefree=thm_bound("squarefree", cfg.q, cfg.M, cfg.N),
                thm_primepower=thm_bound(
                    "primepower", cfg.q, cfg.M, cfg.N, p=p_small
                ),
                thm_alt=thm_bound("alt", cfg.q, cfg.M, cfg.N),
                hypothesis_ok=sf_ok or pp_ok,
            )
        )
    return out
