"""Command-line front door: scans and checks as deterministic CSV/JSON.

Every subcommand walks its parameter family in a fixed order, formats
floats as %.12e, and draws any random tuples from fixed seeds, so a
given invocation is byte-reproducible (including across --jobs values;
parallel results are merged back in canonical order).  Timing and the
memo store's builds and hits, --jobs workers included, go to stderr only.

COMMANDS gives each subcommand its runner and the options it reads,
with their defaults; OPTIONS gives each option's converter and help.
build_parser reads both, so a subcommand refuses a flag it does not read
(exit 2) and --help shows its defaults.  Every subcommand also takes
--config, --out, --format and --jobs (bilinear and distribution run in
one process).  A --config JSON file stands for the flags it names, which
are parsed ahead of the command line's own, so a flag overrides the file.
A default, like EXPSUM_JOBS for --jobs, is a flag's text and is converted
as a flag's value is.  validate then refuses values beyond the caps,
defaults included.

Exit codes: 0 success, 1 any check/invariant failure, 2 usage error (a
bad flag, config value or EXPSUM_JOBS, or a value beyond the caps).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter, process_time

from .bilinear import BilinearConfig, cancellation_scan
from .distribution import discrepancy_scan
from .expsums import hyper_kl3_table
from .families import (
    BILINEAR_HEADER,
    BrokenExecutor,
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
)
from .memo import COUNTS
from .modarith import is_prime
from .verify import criterion_determinism, run_checks
from .voronoi import (
    N_HARD_CAP,
    SmoothWeight,
    predicted_terms,
    scale_residuals,
    voronoi_lhs,
)

__all__ = [
    "main", "build_parser", "validate", "load_config", "parse_int_list",
    "ParseError", "ValidationError",
]

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

# the correlation-sum parameters of the charsum-pp and charsum-prime rows
_TUPLE_KEYS = ("s1", "t1", "s2", "t2", "lam1", "lam2", "m")


class ParseError(argparse.ArgumentTypeError):
    """Malformed config file or range expression."""


class ValidationError(ValueError):
    """Config contains unknown keys or out-of-cap values."""


def validate(cfg: argparse.Namespace) -> None:
    """Refuse parsed options beyond the caps, and voronoi cells that cannot converge.

    cfg holds only its subcommand's options, defaults included; an option
    it lacks has nothing to check.
    """
    opt = vars(cfg)
    if not 1 <= cfg.jobs <= CAPS["jobs"]:
        raise ValidationError(f"jobs must be in [1, {CAPS['jobs']}]")
    if "tol" in opt and not (math.isfinite(cfg.tol) and cfg.tol >= 1e-12):
        # a nan or inf tolerance would pass every residual
        raise ValidationError(f"tolerance {cfg.tol} is not a finite number >= 1e-12")
    if "gamma_max" in opt and cfg.gamma_max > CAPS["gamma_max"]:
        raise ValidationError(f"gamma_max {cfg.gamma_max} above cap {CAPS['gamma_max']}")
    if opt.get("u_max") is not None and cfg.u_max > CAPS["u_max"]:
        raise ValidationError(f"u_max {cfg.u_max} above cap {CAPS['u_max']}")
    for key in ("q", "M", "N"):
        for v in opt.get(key) or []:  # bilinear's M defaults to None: per q
            if not 1 <= v <= CAPS[key]:
                raise ValidationError(f"{key} = {v} outside [1, {CAPS[key]}]")
    for p in opt.get("p", []):
        if not 2 <= p <= CAPS["p"] or not is_prime(p):
            raise ValidationError(f"p = {p} is not a prime <= {CAPS['p']}")
        if p == 2 and cfg.subcommand in ("charsum-pp", "charsum-prime"):
            raise ValidationError("p = 2: the correlation sums need an odd prime")
    voronoi = cfg.subcommand == "voronoi"
    cap_x = CAPS["X_voronoi"] if voronoi else CAPS["X_distribution"]
    for x in opt.get("X", []):
        if not 0 < x <= cap_x:
            raise ValidationError(f"X = {x} outside (0, {cap_x}]")
        if not voronoi:
            if x != int(x):
                raise ValidationError(f"X = {x} is not an integer")
            continue
        mass = abs(voronoi_lhs(1, 1, SmoothWeight(x)))  # sum d(n) h(n)
        if mass < VORONOI_MASS_FLOOR:
            raise ValidationError(
                f"X = {x}: the support (X, 2X) holds no integer mass of at least "
                f"{VORONOI_MASS_FLOOR}: sum d(n) h(n) = {mass:.3e}"
            )
        q = max(cfg.q)
        need = predicted_terms(q, x)
        if need > N_HARD_CAP:
            raise ValidationError(
                f"q = {q}, X = {x}: the dual sum needs at least {need} terms, "
                f"above the cap {N_HARD_CAP}"
            )


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
        out = [float(piece) for piece in str(text).split(",") if piece.strip()]
    except ValueError as exc:
        raise ParseError(f"bad float list {text!r}") from exc
    if not out:
        raise ParseError(f"empty list expression {text!r}")
    return out


def load_config(path: str, keys: set[str], switches: set[str] = frozenset()) -> list[str]:
    """The flags a JSON config object stands for; each key must be in keys.

    A list is joined by commas, null counts as absent, and a key in
    switches (a store_true flag such as quick) must be a JSON boolean:
    true stands for its flag.  Every other value is then converted by the
    parser, as the same flag on the command line would be.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"config {path} must be a JSON object")
    flags = []
    for key, val in raw.items():
        if key not in keys:
            raise ValidationError(f"unknown config key {key!r}")
        if val is None:
            continue
        flag = f"--{key.replace('_', '-')}"
        if key in switches:
            if not isinstance(val, bool):
                raise ParseError(f"config {key} must be true or false, got {val!r}")
            flags += [flag] if val else []
            continue
        if isinstance(val, list):
            val = ",".join(map(str, val))
        # the --flag=value form, so that a value such as -3 is not read as a flag
        flags.append(f"{flag}={val}")
    return flags


def _emit(rows: list[dict], header: list[str], cfg: argparse.Namespace) -> None:
    """Write rows as CSV or JSON, to --out or stdout."""
    text = render(rows, header, cfg.format)
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _scan(one, items: list, header: list[str], cfg: argparse.Namespace) -> list[dict]:
    """Emit the rows of one(item) for every item, in item order; return them."""
    rows = [r for rs in pmap(one, items, cfg.jobs) for r in rs]
    _emit(rows, header, cfg)
    return rows


# ---------------------------------------------------------------- runners


def _run_kloosterman(cfg: argparse.Namespace) -> int:
    def one(q: int) -> list[dict]:
        rows = []
        for m, value, split in split_vs_table(q):
            diff = abs(split - value)
            rows.append({"q": q, "m": m, "value": fmt(value),
                         "split_value": fmt(split.real), "abs_diff": fmt(diff)})
            if diff > cfg.tol * q:
                raise AssertionError(f"split mismatch at q={q}, m={m}: {diff}")
        return rows

    _scan(one, cfg.q, ["q", "m", "value", "split_value", "abs_diff"], cfg)
    return 0


def _run_hyperkl3(cfg: argparse.Namespace) -> int:
    def one(q: int) -> list[dict]:
        tab = hyper_kl3_table(q)
        return [{"q": q, "m": m, "re": fmt(tab[m].real), "im": fmt(tab[m].imag),
                 "abs": fmt(abs(tab[m]))} for m in range(q)]

    _scan(one, cfg.q, ["q", "m", "re", "im", "abs"], cfg)
    return 0


def _run_charsum_pp(cfg: argparse.Namespace) -> int:
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
        charsum_pp_cells(cfg.p, cfg.gamma_max, cfg.u_max),
        ["p", "gamma", "u", *_TUPLE_KEYS,
         "case", "value", "bound", "ratio", "predicted_vanishing", "vanished"],
        cfg,
    )
    return 1 if any(r["predicted_vanishing"] and not r["vanished"] for r in rows) else 0


def _run_charsum_prime(cfg: argparse.Namespace) -> int:
    def one(p: int) -> list[dict]:
        rows = []
        for tup, rep, mo in charsum_prime(p, 25):
            diff = abs(rep.aux["completed"] - mo)
            if diff > cfg.tol * p * p:
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
        cfg.p,
        ["p", *_TUPLE_KEYS, "value", "completed", "moebius", "route_diff", "ratio"],
        cfg,
    )
    return 0


def _run_df(cfg: argparse.Namespace) -> int:
    mods = [
        (p, gamma)
        for p in cfg.p
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


def _run_calc(cfg: argparse.Namespace) -> int:
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
        cfg.q,
        ["q", "n1", "n2", "mtil", "b", "re", "im", "bound", "ratio", "crt_residual"],
        cfg,
    )
    return 0


def _run_glue(cfg: argparse.Namespace) -> int:
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
        cfg.q,
        ["d", "q", "re", "im", "bound", "ratio", "crt_residual", "active_k"],
        cfg,
    )
    return 0


def _run_voronoi(cfg: argparse.Namespace) -> int:
    # one item per X, so that one worker builds each X's moment grid and kernels
    def one(x: float) -> list[dict]:
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
        } for q, a, rep in scale_residuals(cfg.q, x)]

    rows = _scan(
        one,
        cfg.X,
        ["q", "a", "X", "lhs_re", "lhs_im", "main", "dual_re", "dual_im",
         "truncation", "residual", "relative"],
        cfg,
    )
    bad = [r for r in rows if r["_rel"] > cfg.tol]
    if bad:
        print(f"{len(bad)} cells above tolerance {cfg.tol}", file=sys.stderr)
        return 1
    return 0


def _run_bilinear(cfg: argparse.Namespace) -> int:
    configs = [
        BilinearConfig(q=q, M=m, N=n, b=middle_unit(q))
        for q in cfg.q
        for m in cfg.M or [max(4, q // 2)]
        for n in cfg.N
    ]
    reports = cancellation_scan(configs)
    _emit([bilinear_row(r) for r in reports], BILINEAR_HEADER, cfg)
    return 0 if all(r.within_trivial for r in reports) else 1


def _run_distribution(cfg: argparse.Namespace) -> int:
    rows = [
        {
            "X": r["X"], "q": r["q"], "a": r["a"], "ap_sum": r["ap_sum"],
            "coprime_mean": fmt(r["coprime_mean"]),
            "delta": fmt(r["delta"]),
            "max_abs_delta": fmt(r["max_abs_delta"]),
            "slope_fit": fmt(r["slope_fit"]),
        }
        for x in cfg.X
        for r in discrepancy_scan(int(x), cfg.q, tol=cfg.tol)
    ]
    _emit(
        rows,
        ["X", "q", "a", "ap_sum", "coprime_mean", "delta",
         "max_abs_delta", "slope_fit"],
        cfg,
    )
    return 0


def _run_verify_all(cfg: argparse.Namespace) -> int:
    results = run_checks(quick=cfg.quick, jobs=cfg.jobs)
    if cfg.self_test:
        results = results + [criterion_determinism()]
    for res in results:
        print(f"[time] {res.name}: {res.elapsed:.2f}s cpu {res.cpu:.2f}s", file=sys.stderr)
    rows = [
        {"check": r.name, "passed": int(r.passed), "details": r.details.replace(",", ";")}
        for r in results
    ]
    _emit(rows, ["check", "passed", "details"], cfg)
    return 0 if all(r.passed for r in results) else 1


# each option a subcommand may take: its converter, or its store_true
# action, and its help
OPTIONS = {
    "p": {"type": parse_int_list, "help": "prime list, e.g. 3,5,7"},
    "gamma_max": {"type": int, "help": "largest exponent gamma of p^gamma"},
    "u_max": {"type": int, "help": "largest u (default: 4*gamma//5)"},
    "q": {"type": parse_int_list, "help": "modulus list/range, e.g. 1..20 or 9,27"},
    "X": {"type": parse_float_list, "help": "scale list, e.g. 50,100"},
    "M": {"type": parse_int_list,
          "help": "m-range sizes, e.g. 100,200 (default: max(4, q//2) for each q)"},
    "N": {"type": parse_int_list, "help": "window sizes, e.g. 2,4"},
    "tol": {"type": float, "help": "tolerance"},
    "quick": {"action": "store_true", "help": "reduced ranges, sub-minute run"},
    "self_test": {"action": "store_true", "help": "also run the CLI determinism check"},
}

# each subcommand's runner, and the options it reads with their defaults:
# a flag's text, converted as a flag's value is; None where the runner has
# its own (u_max: 4*gamma//5, M: per q)
COMMANDS = {
    "kloosterman": (_run_kloosterman, {"q": "12", "tol": "1e-9"}),
    "hyperkl3": (_run_hyperkl3, {"q": "9"}),
    "charsum-pp": (_run_charsum_pp, {"p": "3,5", "gamma_max": "3", "u_max": None}),
    "charsum-prime": (_run_charsum_prime, {"p": "3,5,7,11,13", "tol": "1e-6"}),
    "df": (_run_df, {"p": "3,5,7", "gamma_max": "3"}),
    "calC": (_run_calc, {"q": "2..60"}),
    "glue": (_run_glue, {"q": "2..60"}),
    "voronoi": (_run_voronoi, {"q": "1..20", "X": "50", "tol": "1e-6"}),
    "bilinear": (_run_bilinear, {"q": "27,49,121", "M": None, "N": "3"}),
    "distribution": (_run_distribution, {"q": "3,5,7,9", "X": "10000", "tol": "1e-6"}),
    "verify-all": (_run_verify_all, {"quick": False, "self_test": False}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsum", allow_abbrev=False,
        description="Desk-scale verification of exponential-sum identities "
        "and bounds (Kloosterman sums, correlation sums, Voronoi summation, "
        "bilinear cancellation, divisor distribution).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, options) in COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", help="JSON config file (flags override it)")
        for key, default in options.items():
            spec = dict(OPTIONS[key])
            if default:
                spec["help"] += f" (default: {default})"
            sp.add_argument(f"--{key.replace('_', '-')}", default=default, **spec)
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        jobs = "worker processes (default: EXPSUM_JOBS or 1)"
        if name in ("bilinear", "distribution"):
            jobs += "; taken, as EXPSUM_JOBS is, but this subcommand runs in one process"
        sp.add_argument("--jobs", type=int, default=os.environ.get("EXPSUM_JOBS", "1"),
                        help=jobs)
    return parser


def _cpu() -> float:
    """CPU seconds of this process and of its reaped children (the --jobs workers)."""
    t = os.times()
    return process_time() + t.children_user + t.children_system


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    t0, c0 = perf_counter(), _cpu()
    try:
        parser = build_parser()
        cfg = parser.parse_args(argv)
        if cfg.config:  # its flags go ahead of argv's own, so a flag overrides the file
            keys = set(vars(cfg)) - {"subcommand", "config"}
            switches = {k for k in keys if OPTIONS.get(k, {}).get("action") == "store_true"}
            flags = load_config(cfg.config, keys, switches)
            rest = argv[argv.index(cfg.subcommand) + 1:]
            cfg = parser.parse_args([cfg.subcommand, *flags, *rest])
        validate(cfg)
    except SystemExit as exc:  # argparse refused an option, or printed --help
        return int(exc.code) if exc.code else 0
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code = COMMANDS[cfg.subcommand][0](cfg)
    except (AssertionError, ValueError, ArithmeticError) as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenExecutor as exc:  # a --jobs worker died
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1
    tables = ", ".join(f"{kind} {misses}/{hits}" for kind, (hits, misses) in COUNTS.items())
    print(f"[time] total: {perf_counter() - t0:.2f}s cpu {_cpu() - c0:.2f}s\n"
          f"[tables] builds/hits, --jobs workers included: {tables}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
