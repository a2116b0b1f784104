"""Empirical verification of exponential-sum identities and bounds.

Exact and floating-point computation of complete exponential sums
(Kloosterman and hyper-Kloosterman), correlation character sums with
their square-root-cancellation bounds and vanishing criteria, the
divisor-function Voronoi summation identity, bilinear cancellation
scans, and the distribution of the triple-divisor function in
arithmetic progressions.  Everything is desk-scale: small moduli,
dual-route checks, deterministic output.
"""

from .arith import (
    Factorization,
    IdentityViolation,
    d3_exact,
    divisor_table,
    factorize,
    sigma00,
)
from .bilinear import (
    BilinearConfig,
    bilinear_grouped,
    bilinear_sum,
    cancellation_scan,
    hypothesis_flags,
    thm_bound,
    trivial_bound,
)
from .charsums import (
    RATIO_CAP,
    CharSumParams,
    HypothesisViolated,
    NotSquareFree,
    calC,
    df_correlation,
    frakC2_glue,
    frakC_11,
    frakC_gamma_u,
    moebius_correlation,
    moebius_reduce,
    ppower_bound,
)
from .distribution import (
    RamanujanDecomposition,
    coprime_mean,
    d3_ap_sum,
    d3_to_bilinear,
    discrepancy_scan,
    ramanujan_decomposition,
)
from .expsums import (
    BoundReport,
    hyper_kl3_table,
    hyper_kl3_table_direct,
    kloosterman_direct,
    kloosterman_explicit_pp_table,
    kloosterman_split,
    kloosterman_split_row,
    kloosterman_table,
    unit_inverse_table,
    weil_audit,
)
from .modarith import PrimePower, is_prime, legendre, sqrt_mod_pp
from .verify import CheckResult, run_checks
from .voronoi import (
    SmoothWeight,
    VoronoiReport,
    scale_residuals,
    voronoi_lhs,
)

__version__ = "0.1.0"
