"""Acceptance gate: every stated criterion at full scale, one line each.

Each test runs one criterion of the verification suite in full (non
quick) mode and prints a single [PASS]/[FAIL] line with the criterion's
deterministic details string.  Run with `pytest tests/test_acceptance.py
-v -s` to see the lines as they complete; plain pytest shows them for
failing criteria only.

Every criterion but 09 and 12 also compares its details string with the
one recorded in perfbench/golden.json, so a speed-up that moves any byte
of their tables or sums fails here and not only in the benchmark.
Criterion 09's bytes depend on the OpenBLAS thread count, and 12 has no
golden copy.
"""

import json
from pathlib import Path

from expsum import verify

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def _report(res, golden: str | None = None) -> None:
    marker = "PASS" if res.passed else "FAIL"
    print(f"[{marker}] {res.name}: {res.details}")
    assert res.passed, f"{res.name}: {res.details}"
    if golden is not None:
        want = json.loads(GOLDEN.read_text())["criteria"][f"verify.{golden}"]
        assert res.details == want["details"]


def test_criterion_01_explicit_prime_power_formula():
    _report(verify.criterion_explicit_pp(quick=False), "explicit_pp")


def test_criterion_02_sigma00_identity():
    _report(verify.criterion_sigma00(quick=False), "sigma00")


def test_criterion_03_crt_split_and_two_path_tables():
    _report(verify.criterion_crt_split(quick=False), "crt_split")


def test_criterion_04_weil_deligne_bounds():
    _report(verify.criterion_weil_deligne(quick=False), "weil_deligne")


def test_criterion_05_charsum_prime_power_bounds():
    _report(verify.criterion_charsum_pp(quick=False), "charsum_pp")


def test_criterion_06_charsum_prime_moebius_route():
    _report(verify.criterion_charsum_prime(quick=False), "charsum_prime")


def test_criterion_07_df_correlation_bounds():
    _report(verify.criterion_df(quick=False), "df")


def test_criterion_08_calc_and_glue_crt_routes():
    _report(verify.criterion_calc_glue(quick=False), "calc_glue")


def test_criterion_09_voronoi_identity():
    _report(verify.criterion_voronoi(quick=False))


def test_criterion_10_d3_distribution():
    _report(verify.criterion_distribution(quick=False), "distribution")


def test_criterion_11_bilinear_cancellation():
    _report(verify.criterion_bilinear(quick=False), "bilinear")


def test_criterion_12_verify_all_determinism():
    _report(verify.criterion_determinism())
