"""Bilinear sums twisted by the hyper-Kloosterman kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsum import bilinear
from expsum.bilinear import (
    BilinearConfig,
    bilinear_grouped,
    bilinear_sum,
    cancellation_scan,
    hypothesis_flags,
    thm_bound,
    trivial_bound,
)
from expsum.families import render, written


def test_config_validation():
    with pytest.raises(ValueError):
        BilinearConfig(q=6, M=4, N=2, b=2)  # b not a unit
    with pytest.raises(ValueError):
        BilinearConfig(q=5, M=4, N=2, alpha=(1.0,))  # wrong length
    with pytest.raises(ValueError):
        BilinearConfig(q=5, M=4, N=1, alpha=(1.5,))  # coefficient too large
    with pytest.raises(ValueError):
        BilinearConfig(q=5, M=4, N=1, shift=5.0)  # shift out of desk range
    with pytest.raises(ValueError):
        BilinearConfig(q=5, M=4, N=1, shift=3 + 3j)  # |shift| > 4, each part <= 4
    with pytest.raises(ValueError):
        BilinearConfig(q=5, M=4, N=1, s2=-4.5)
    assert BilinearConfig(q=5, M=4, N=1, shift=-4, s2=4j).shift == -4
    with pytest.raises(ValueError):
        BilinearConfig(q=0, M=4, N=1)


def test_default_weights_are_divisor_function():
    # shift = 0 and s2 = 0 make lam = sigma_0 = d
    cfg = BilinearConfig(q=7, M=6, N=2)
    assert cfg.shift == 0
    assert cfg.alpha_vector.tolist() == [1.0, 1.0]
    assert cfg.n_window.tolist() == [1, 2]


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([1, 5, 12, 27, 49, 121, 210]),
    st.integers(2, 60),
    st.integers(1, 5),
    st.data(),
)
def test_two_bracketings_agree(q, M, N, data):
    units = [x for x in range(1, q + 1) if math.gcd(x, q) == 1]
    b = data.draw(st.sampled_from(units))
    phase = data.draw(st.floats(0.0, 0.95))
    alpha = tuple(
        0.9 * complex(math.cos(2 * math.pi * phase * j), math.sin(2 * math.pi * phase * j))
        for j in range(N)
    )
    cfg = BilinearConfig(q=q, M=M, N=N, b=b, alpha=alpha)
    s1 = bilinear_sum(cfg)
    s2 = bilinear_grouped(cfg)
    assert abs(s1 - s2) <= 1e-9 * max(abs(s1), abs(s2), 1.0)


def test_triangle_inequality_is_genuine():
    for q in (5, 12, 49, 210):
        cfg = BilinearConfig(q=q, M=max(4, q // 2), N=3)
        assert abs(bilinear_sum(cfg)) <= trivial_bound(cfg) * (1 + 1e-9)


def test_q_one_collapses_to_product_of_sums():
    # Kl3(., 1) = 1, so S = (sum alpha)(sum lam V) exactly
    cfg = BilinearConfig(q=1, M=8, N=3)
    from expsum.bilinear import _lambda_weights

    _, lamv = _lambda_weights(cfg)
    assert bilinear_sum(cfg) == pytest.approx(3 * complex(np.sum(lamv)), rel=1e-12)
    assert abs(bilinear_sum(cfg)) == pytest.approx(trivial_bound(cfg), rel=1e-12)


def test_linearity_in_alpha():
    q, M, N = 27, 10, 3
    a1 = (1.0, 0.0, 0.0)
    a2 = (0.0, 0.5j, 0.25)
    s1 = bilinear_sum(BilinearConfig(q=q, M=M, N=N, alpha=a1))
    s2 = bilinear_sum(BilinearConfig(q=q, M=M, N=N, alpha=a2))
    both = bilinear_sum(
        BilinearConfig(q=q, M=M, N=N, alpha=tuple(x + y for x, y in zip(a1, a2)))
    )
    assert both == pytest.approx(s1 + s2, rel=1e-12, abs=1e-12)


def test_thm_bound_unit_values_pin_the_shape():
    # at q = M = N = 1 the additive terms are bare: alt has two, squarefree three
    assert thm_bound("alt", 1, 1, 1) == pytest.approx(2.0)
    assert thm_bound("squarefree", 1, 1, 1) == pytest.approx(3.0)
    assert thm_bound("primepower", 1, 1, 1, p=1) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        thm_bound("primepower", 9, 1, 1)  # p is required
    with pytest.raises(ValueError):
        thm_bound("unknown", 1, 1, 1)


def test_hypothesis_flags():
    # squarefree q = 210: N must stay below sqrt(q) (1 + M/q)^-2
    assert hypothesis_flags(210, 1, 2) == (True, False)
    assert hypothesis_flags(210, 1, 15) == (False, False)
    # prime power q = 729 = 3^6: N <= q^(1/5) (1 + M/q)^-2 ~ 3.7
    assert hypothesis_flags(729, 1, 3) == (False, True)
    assert hypothesis_flags(729, 1, 5) == (False, False)
    # p = 2 and gamma = 1 are excluded from the prime-power theorem
    assert hypothesis_flags(4, 1, 1) == (False, False)
    assert hypothesis_flags(7, 1, 2) == (True, False)


def test_cancellation_scan_and_csv():
    configs = [
        BilinearConfig(q=q, M=max(4, q // 2), N=2, b=1)
        for q in (5, 27, 49)
    ]
    rows = cancellation_scan(configs)
    assert len(rows) == 3
    assert all(r["_within_trivial"] for r in rows)
    text = render([written(r) for r in rows])
    lines = text.strip().split("\n")
    assert lines[0] == (
        "q,p,M,N,abs_S,trivial,thm_squarefree,thm_primepower,thm_alt,"
        "exponent,hypothesis_ok"
    )
    assert len(lines) == 4
    # prime-power moduli carry their prime in the p column
    assert lines[2].startswith("27,3,")


def test_cancellation_scan_equals_the_public_functions():
    # the scan calls bilinear_sum, bilinear_grouped and trivial_bound, which
    # share one set of weights per config through the store: each result must
    # equal the public function's with the weights built afresh, bit for bit
    configs = [
        BilinearConfig(q=7, M=6, N=2),
        BilinearConfig(q=27, M=40, N=3, b=2, shift=0.5, s2=-0.25j),
        BilinearConfig(q=30, M=25, N=4, b=7, shift=-0.6, alpha=(1, -1j, 0.5, 0.25 + 0.5j)),
        BilinearConfig(q=121, M=60, N=4, shift=1.0 + 0.5j),
    ]
    weights = bilinear._lambda_weights
    weights.cache_clear()
    rows = cancellation_scan(configs)
    # built once per config, then read by the other sum and the bound
    assert weights.cache_info()[:2] == (2 * len(configs), len(configs))  # (hits, misses)

    def bits(*xs):
        return np.array(xs, dtype=float).tobytes()

    for cfg, row in zip(configs, rows, strict=True):
        weights.cache_clear()
        s, trivial = bilinear_sum(cfg), trivial_bound(cfg)
        weights.cache_clear()
        assert bits(row["abs_S"], row["trivial"]) == bits(abs(s), trivial), cfg


def test_exponent_property():
    (row,) = cancellation_scan([BilinearConfig(q=121, M=60, N=4)])
    if row["abs_S"] != 0 and row["trivial"] > 1:
        want = math.log(row["abs_S"]) / math.log(row["trivial"])
        assert row["exponent"] == pytest.approx(want)
    # no cancellation measure without a sum, or against a bound of 0 or 1
    assert bilinear._exponent(0.0, 5.0) == -math.inf
    assert math.isnan(bilinear._exponent(2.0, 1.0)) and math.isnan(bilinear._exponent(2.0, 0.0))
