"""Command-line front door: scans and checks as deterministic CSV/JSON.

Every subcommand walks its parameter family in a fixed order, formats
floats as %.12e, and draws any random tuples from fixed seeds, so a
given invocation is byte-reproducible (including across --jobs values;
parallel results are merged back in canonical order).  Timing goes to
stderr only.

Exit codes: 0 success, 1 any check/invariant failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from .bilinear import BilinearConfig, cancellation_scan
from .distribution import discrepancy_scan
from .expsums import hyper_kl3_table
from .families import (
    BILINEAR_HEADER,
    bilinear_row,
    calc_tuples,
    charsum_pp,
    charsum_pp_cells,
    charsum_prime,
    df_pairs,
    fmt,
    glue_tuples,
    middle_unit,
    modulus_rng,
    pmap,
    render,
    split_vs_table,
    voronoi_cells,
)
from .modarith import is_prime
from .verify import criterion_determinism, run_checks
from .voronoi import (
    N_HARD_CAP,
    SmoothWeight,
    predicted_terms,
    voronoi_lhs,
    voronoi_residual,
)

__all__ = ["main", "load_config", "parse_int_list", "ParseError", "ValidationError"]

SUBCOMMANDS = (
    "kloosterman",
    "hyperkl3",
    "charsum-pp",
    "charsum-prime",
    "df",
    "calC",
    "glue",
    "voronoi",
    "bilinear",
    "distribution",
    "verify-all",
)

# desk-scale caps; configs beyond these are rejected, not attempted
CAPS = {
    "gamma_max": 8,
    "u_max": 8,
    "q": 10**4,
    "p": 499,
    "X_voronoi": 400.0,
    "X_distribution": 10**7,
    "M": 10**6,
    "N": 10**4,
    "jobs": 64,
}

# smallest integer mass sum d(n) h(n) of the voronoi weight at scale X: the
# dual sum's ~1e-9 absolute truncation over the 1e-6 relative gate, so that
# a cell can meet the gate at all (its |lhs| is at most this mass)
VORONOI_MASS_FLOOR = 1e-3

# the moduli of `voronoi` when --q is not given
VORONOI_QS = list(range(1, 21))

# the correlation-sum parameters of the charsum-pp and charsum-prime rows
_TUPLE_KEYS = ("s1", "t1", "s2", "t2", "lam1", "lam2", "m")

CONFIG_KEYS = {
    "p", "gamma_max", "u_max", "q", "X", "M", "N",
    "out", "format", "jobs", "tol", "quick",
}


class ParseError(ValueError):
    """Malformed config file or range expression."""


class ValidationError(ValueError):
    """Config contains unknown keys or out-of-cap values."""


@dataclass
class RunConfig:
    """Validated parameters for one subcommand invocation."""

    subcommand: str
    p: list[int] = field(default_factory=list)
    gamma_max: int = 3
    u_max: int | None = None
    q: list[int] = field(default_factory=list)
    X: list[float] = field(default_factory=list)
    M: list[int] = field(default_factory=list)
    N: list[int] = field(default_factory=list)
    out: str | None = None
    format: str = "csv"
    jobs: int = 1
    tol: float | None = None
    quick: bool = False
    self_test: bool = False

    def validate(self) -> None:
        if self.format not in ("csv", "json"):
            raise ValidationError(f"format must be csv or json, got {self.format}")
        if not 1 <= self.jobs <= CAPS["jobs"]:
            raise ValidationError(f"jobs must be in [1, {CAPS['jobs']}]")
        if self.tol is not None and self.tol < 1e-12:
            raise ValidationError("tolerance override below machine default 1e-12")
        if self.gamma_max > CAPS["gamma_max"]:
            raise ValidationError(f"gamma_max {self.gamma_max} above cap {CAPS['gamma_max']}")
        if self.u_max is not None and self.u_max > CAPS["u_max"]:
            raise ValidationError(f"u_max {self.u_max} above cap {CAPS['u_max']}")
        for q in self.q:
            if not 1 <= q <= CAPS["q"]:
                raise ValidationError(f"q = {q} outside [1, {CAPS['q']}]")
        for p in self.p:
            if not 2 <= p <= CAPS["p"] or not is_prime(p):
                raise ValidationError(f"p = {p} is not a prime <= {CAPS['p']}")
        voronoi = self.subcommand == "voronoi"
        cap_x = CAPS["X_voronoi"] if voronoi else CAPS["X_distribution"]
        for x in self.X:
            if not 0 < x <= cap_x:
                raise ValidationError(f"X = {x} outside (0, {cap_x}]")
            if not voronoi:
                continue
            mass = abs(voronoi_lhs(1, 1, SmoothWeight(x)))  # sum d(n) h(n)
            if mass < VORONOI_MASS_FLOOR:
                raise ValidationError(
                    f"X = {x}: the support (X, 2X) holds no integer mass of at least "
                    f"{VORONOI_MASS_FLOOR}: sum d(n) h(n) = {mass:.3e}"
                )
            q = max(self.q or VORONOI_QS)
            need = predicted_terms(q, x)
            if need > N_HARD_CAP:
                raise ValidationError(
                    f"q = {q}, X = {x}: the dual sum needs at least {need} terms, "
                    f"above the cap {N_HARD_CAP}"
                )
        for m in self.M:
            if not 1 <= m <= CAPS["M"]:
                raise ValidationError(f"M = {m} outside [1, {CAPS['M']}]")
        for n in self.N:
            if not 1 <= n <= CAPS["N"]:
                raise ValidationError(f"N = {n} outside [1, {CAPS['N']}]")


def parse_int_list(text: str) -> list[int]:
    """Parse "3,5,7" / "1..20" / mixes of both into a sorted-order list."""
    out: list[int] = []
    for piece in str(text).split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ".." in piece:
            lo, _, hi = piece.partition("..")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError as exc:
                raise ParseError(f"bad range {piece!r}") from exc
            if lo_i > hi_i:
                raise ParseError(f"reversed range {piece!r}")
            out.extend(range(lo_i, hi_i + 1))
        else:
            try:
                out.append(int(piece))
            except ValueError as exc:
                raise ParseError(f"bad integer {piece!r}") from exc
    if not out:
        raise ParseError(f"empty list expression {text!r}")
    return out


def parse_float_list(text: str) -> list[float]:
    try:
        return [float(piece) for piece in str(text).split(",") if piece.strip()]
    except ValueError as exc:
        raise ParseError(f"bad float list {text!r}") from exc


def load_config(path: str) -> dict:
    """JSON config; unknown keys rejected, range strings allowed."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"config {path} must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _emit(rows: list[dict], header: list[str], cfg: RunConfig) -> None:
    """Write rows as CSV or JSON, to --out or stdout."""
    text = render(rows, header, cfg.format)
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _scan(one, items: list, header: list[str], cfg: RunConfig) -> list[dict]:
    """Emit the rows of one(item) for every item, in item order; return them."""
    rows = [r for rs in pmap(one, items, cfg.jobs) for r in rs]
    _emit(rows, header, cfg)
    return rows


# ---------------------------------------------------------------- runners


def _run_kloosterman(cfg: RunConfig) -> int:
    tol = cfg.tol if cfg.tol is not None else 1e-9

    def one(q: int) -> list[dict]:
        rows = []
        for m, value, split in split_vs_table(q):
            diff = abs(split - value)
            rows.append({"q": q, "m": m, "value": fmt(value),
                         "split_value": fmt(split.real), "abs_diff": fmt(diff)})
            if diff > tol * q:
                raise AssertionError(f"split mismatch at q={q}, m={m}: {diff}")
        return rows

    _scan(one, cfg.q or [12], ["q", "m", "value", "split_value", "abs_diff"], cfg)
    return 0


def _run_hyperkl3(cfg: RunConfig) -> int:
    def one(q: int) -> list[dict]:
        tab = hyper_kl3_table(q)
        return [{"q": q, "m": m, "re": fmt(tab[m].real), "im": fmt(tab[m].imag),
                 "abs": fmt(abs(tab[m]))} for m in range(q)]

    _scan(one, cfg.q or [9], ["q", "m", "re", "im", "abs"], cfg)
    return 0


def _run_charsum_pp(cfg: RunConfig) -> int:
    def one(cell: tuple[int, int, int]) -> list[dict]:
        p, gamma, u = cell
        return [
            {
                "p": p, "gamma": gamma, "u": u,
                **{k: getattr(c, k) for k in _TUPLE_KEYS},
                "case": rep.aux["case"],
                "value": fmt(rep.sum_value.real),
                "bound": fmt(rep.bound_value),
                "ratio": fmt(rep.ratio),
                "predicted_vanishing": int(rep.vanishing_predicted),
                "vanished": int(rep.vanished),
            }
            for c, rep in charsum_pp(p, gamma, u, 50)
        ]

    rows = _scan(
        one,
        charsum_pp_cells(cfg.p or [3, 5], cfg.gamma_max, cfg.u_max),
        ["p", "gamma", "u", *_TUPLE_KEYS,
         "case", "value", "bound", "ratio", "predicted_vanishing", "vanished"],
        cfg,
    )
    return 1 if any(r["predicted_vanishing"] and not r["vanished"] for r in rows) else 0


def _run_charsum_prime(cfg: RunConfig) -> int:
    tol = cfg.tol if cfg.tol is not None else 1e-6

    def one(p: int) -> list[dict]:
        rows = []
        for tup, rep, mo in charsum_prime(p, 25):
            diff = abs(rep.aux["completed"] - mo)
            if diff > tol * p * p:
                raise AssertionError(f"route mismatch at p={p}: {diff}")
            rows.append(
                {
                    "p": p, **dict(zip(_TUPLE_KEYS, tup)),
                    "value": fmt(rep.sum_value.real),
                    "completed": fmt(rep.aux["completed"].real),
                    "moebius": fmt(mo.real),
                    "route_diff": fmt(diff),
                    "ratio": fmt(rep.ratio),
                }
            )
        return rows

    _scan(
        one,
        cfg.p or [3, 5, 7, 11, 13],
        ["p", *_TUPLE_KEYS, "value", "completed", "moebius", "route_diff", "ratio"],
        cfg,
    )
    return 0


def _run_df(cfg: RunConfig) -> int:
    mods = [
        (p, gamma)
        for p in cfg.p or [3, 5, 7]
        for gamma in range(1, cfg.gamma_max + 1)
        if p**gamma <= CAPS["q"]
    ]

    def one(mod: tuple[int, int]) -> list[dict]:
        p, gamma = mod
        return [
            {"p": p, "gamma": gamma, "a": a, "b": b,
             "value": fmt(rep.sum_value.real), "bound": fmt(rep.bound_value),
             "ratio": fmt(rep.ratio), "nu_min": rep.aux["nu_min"]}
            for a, b, rep in df_pairs(p, gamma, 30)
        ]

    _scan(one, mods, ["p", "gamma", "a", "b", "value", "bound", "ratio", "nu_min"], cfg)
    return 0


def _run_calc(cfg: RunConfig) -> int:
    def one(q: int) -> list[dict]:
        return [
            {"q": q, "n1": n1, "n2": n2, "mtil": mtil, "b": b,
             "re": fmt(rep.sum_value.real), "im": fmt(rep.sum_value.imag),
             "bound": fmt(rep.bound_value), "ratio": fmt(rep.ratio),
             "crt_residual": fmt(rep.aux["residual"])}
            for (n1, n2, mtil, b), rep in calc_tuples(q, modulus_rng(q))
        ]

    _scan(
        one,
        cfg.q or list(range(2, 61)),
        ["q", "n1", "n2", "mtil", "b", "re", "im", "bound", "ratio", "crt_residual"],
        cfg,
    )
    return 0


def _run_glue(cfg: RunConfig) -> int:
    def one(q: int) -> list[dict]:
        return [
            {"d": d, "q": q,
             "re": fmt(rep.sum_value.real), "im": fmt(rep.sum_value.imag),
             "bound": fmt(rep.bound_value), "ratio": fmt(rep.ratio),
             "crt_residual": "" if rep.aux["residual"] is None
             else fmt(rep.aux["residual"]),
             "active_k": ";".join(str(k) for k in rep.aux["active_k"])}
            for d, rep in glue_tuples(q, modulus_rng(q))
        ]

    _scan(
        one,
        cfg.q or list(range(2, 61)),
        ["d", "q", "re", "im", "bound", "ratio", "crt_residual", "active_k"],
        cfg,
    )
    return 0


def _run_voronoi(cfg: RunConfig) -> int:
    tol = cfg.tol if cfg.tol is not None else 1e-6

    def one(cell: tuple[int, int, float]) -> list[dict]:
        q, a, x = cell
        rep = voronoi_residual(a, q, SmoothWeight(x))
        return [{
            "q": q, "a": a, "X": fmt(x),
            "lhs_re": fmt(rep.lhs.real), "lhs_im": fmt(rep.lhs.imag),
            "main": fmt(rep.rhs_main.real),
            "dual_re": fmt(rep.rhs_dual.real),
            "dual_im": fmt(rep.rhs_dual.imag),
            "truncation": rep.truncation_level,
            "residual": fmt(rep.residual),
            "relative": fmt(rep.relative_residual),
            "_rel": rep.relative_residual,
        }]

    rows = _scan(
        one,
        voronoi_cells(cfg.q or VORONOI_QS, cfg.X or [50.0]),
        ["q", "a", "X", "lhs_re", "lhs_im", "main", "dual_re", "dual_im",
         "truncation", "residual", "relative"],
        cfg,
    )
    bad = [r for r in rows if r["_rel"] > tol]
    if bad:
        print(f"{len(bad)} cells above tolerance {tol}", file=sys.stderr)
        return 1
    return 0


def _run_bilinear(cfg: RunConfig) -> int:
    configs = [
        BilinearConfig(q=q, M=m, N=n, b=middle_unit(q))
        for q in cfg.q or [27, 49, 121]
        for m in cfg.M or [max(4, q // 2)]
        for n in cfg.N or [3]
    ]
    reports = cancellation_scan(configs)
    _emit([bilinear_row(r) for r in reports], BILINEAR_HEADER, cfg)
    return 0 if all(r.within_trivial for r in reports) else 1


def _run_distribution(cfg: RunConfig) -> int:
    x = int(cfg.X[0]) if cfg.X else 10**4
    tol = cfg.tol if cfg.tol is not None else 1e-6
    rows = [
        {
            "X": r["X"], "q": r["q"], "a": r["a"], "ap_sum": r["ap_sum"],
            "coprime_mean": fmt(r["coprime_mean"]),
            "delta": fmt(r["delta"]),
            "max_abs_delta": fmt(r["max_abs_delta"]),
            "slope_fit": fmt(r["slope_fit"]),
        }
        for r in discrepancy_scan(x, cfg.q or [3, 5, 7, 9], tol=tol)
    ]
    _emit(
        rows,
        ["X", "q", "a", "ap_sum", "coprime_mean", "delta",
         "max_abs_delta", "slope_fit"],
        cfg,
    )
    return 0


def _run_verify_all(cfg: RunConfig) -> int:
    results = run_checks(quick=cfg.quick, jobs=cfg.jobs)
    if cfg.self_test:
        results = results + [criterion_determinism()]
    for res in results:
        cpu = "" if res.cpu is None else f" cpu {res.cpu:.2f}s"
        print(f"[time] {res.name}: {res.elapsed:.2f}s{cpu}", file=sys.stderr)
    rows = [
        {"check": r.name, "passed": int(r.passed), "details": r.details.replace(",", ";")}
        for r in results
    ]
    _emit(rows, ["check", "passed", "details"], cfg)
    return 0 if all(r.passed for r in results) else 1


RUNNERS = {
    "kloosterman": _run_kloosterman,
    "hyperkl3": _run_hyperkl3,
    "charsum-pp": _run_charsum_pp,
    "charsum-prime": _run_charsum_prime,
    "df": _run_df,
    "calC": _run_calc,
    "glue": _run_glue,
    "voronoi": _run_voronoi,
    "bilinear": _run_bilinear,
    "distribution": _run_distribution,
    "verify-all": _run_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsum",
        description="Desk-scale verification of exponential-sum identities "
        "and bounds (Kloosterman sums, correlation sums, Voronoi summation, "
        "bilinear cancellation, divisor distribution).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file (flags override it)")
        sp.add_argument("--p", help="prime list, e.g. 3,5,7")
        sp.add_argument("--gamma-max", type=int, dest="gamma_max")
        sp.add_argument("--u-max", type=int, dest="u_max")
        sp.add_argument("--q", help="modulus list/range, e.g. 1..20 or 9,27")
        sp.add_argument("--X", help="scale list, e.g. 50,100")
        sp.add_argument("--M", help="m-range sizes, e.g. 100,200")
        sp.add_argument("--N", help="window sizes, e.g. 2,4")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"))
        sp.add_argument("--jobs", type=int, help="parallel workers "
                        "(default: EXPSUM_JOBS or 1)")
        sp.add_argument("--tol", type=float, help="tolerance override")
        if name == "verify-all":
            sp.add_argument("--quick", action="store_true",
                            help="reduced ranges, sub-minute run")
            sp.add_argument("--self-test", action="store_true", dest="self_test",
                            help="also run the CLI determinism check")
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if args.config:
        base = load_config(args.config)
    cfg = RunConfig(subcommand=args.subcommand)
    for key in ("p", "q", "M", "N"):
        val = getattr(args, key, None)
        if val is None:
            val = base.get(key)
        if val is not None:
            setattr(cfg, key, parse_int_list(val) if not isinstance(val, list)
                    else [int(v) for v in val])
    xval = args.X if args.X is not None else base.get("X")
    if xval is not None:
        cfg.X = (parse_float_list(xval) if not isinstance(xval, list)
                 else [float(v) for v in xval])
    for key in ("gamma_max", "u_max", "out", "format", "tol"):
        val = getattr(args, key, None)
        if val is None:
            val = base.get(key)
        if val is not None:
            setattr(cfg, key, val)
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = base.get("jobs")
    if jobs is None:
        jobs = int(os.environ.get("EXPSUM_JOBS", "1"))
    cfg.jobs = int(jobs)
    cfg.quick = bool(getattr(args, "quick", False) or base.get("quick", False))
    cfg.self_test = bool(getattr(args, "self_test", False))
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    t0, c0 = perf_counter(), process_time()
    try:
        cfg = _build_config(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code = RUNNERS[cfg.subcommand](cfg)
    except (AssertionError, ValueError, ArithmeticError) as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"[time] total: {perf_counter() - t0:.2f}s cpu {process_time() - c0:.2f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
