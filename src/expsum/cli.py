"""Command-line front door: scans and checks as deterministic CSV/JSON.

Every subcommand walks its parameter family in a fixed order and draws
any random tuples from fixed seeds.  Its runner builds rows of raw
values, or passes a correlation family's rows through as they are;
families.render_piece writes each item's rows as a piece of CSV or JSON
text (values by families.written, floats as %.12e; the columns in the
row's key order), in the --jobs worker that made them for a scan, and
families.join_pieces joins the pieces here.  Every subcommand but
verify-all is one _scan, whose checks count their rows where the rows
are made, so only text and counts come back.  So a given invocation is
byte-reproducible (including across --jobs values; parallel results are
merged back in canonical order).  Timing and the memo store's builds and
hits, --jobs workers included, go to stderr only.

COMMANDS gives each subcommand its runner and the options it reads,
with their defaults; OPTIONS gives each option's converter and help.
build_parser reads both, so a subcommand refuses a flag it does not read
(exit 2) and --help shows its defaults.  Every subcommand also takes
--out, --format and --jobs (a scan of one item runs in this process).
Flags are the only input.  A default is a flag's text and is converted
as a flag's value is.  validate then refuses values beyond the caps,
defaults included.

Exit codes: 0 success, 1 any check/invariant failure (a scan writes every
row, then names on stderr each check its rows failed, with their count: a
correlation scan's ratio above RATIO_CAP, a split or route difference or
Voronoi residual above its criterion's limit (SPLIT_TOL, ROUTE_TOL,
VORONOI_TOL), a violated predicted vanishing, a bilinear sum above its
trivial bound; a nan fails each; a library invariant raises
before anything is written), 2 usage error (a bad flag or flag value, a
value beyond the caps, a charsum-pp range with no cells, a df --gamma-max
below 1, or an --out that cannot be written, found before the run or when
the rows are written).  df writes the moduli p^gamma up to the q cap and
names the (p, gamma) it skipped beyond it on stderr; a skip alone does
not fail it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from .bilinear import cancellation_scan
from .charsums import RATIO_CAP
from .distribution import discrepancy_scan
from .expsums import TABLE_Q_MAX, hyper_kl3_table, kloosterman_split_row, kloosterman_table
from .families import (
    BrokenExecutor,
    bilinear_config,
    calc_tuples,
    charsum_pp,
    charsum_pp_cells,
    charsum_prime,
    df_pairs,
    glue_tuples,
    join_pieces,
    modulus_rng,
    pmap,
    render_piece,
)
from .memo import COUNTS
from .modarith import is_prime
from .verify import ROUTE_TOL, SPLIT_TOL, VORONOI_TOL, criterion_determinism, run_checks
from .voronoi import (
    N_HARD_CAP,
    SmoothWeight,
    predicted_terms,
    scale_residuals,
    voronoi_lhs,
)

__all__ = [
    "main", "build_parser", "validate", "parse_int_list",
    "ParseError", "ValidationError",
]

# desk-scale caps; values beyond these are rejected, not attempted
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
# dual sum's ~1e-9 absolute truncation over VORONOI_TOL = 1e-6, the relative
# limit, so that a cell can meet it at all (its |lhs| is at most this mass)
VORONOI_MASS_FLOOR = 1e-3

class ParseError(argparse.ArgumentTypeError):
    """Malformed range or list expression."""


class ValidationError(ValueError):
    """Option values beyond the caps or with nothing to run, or an --out that cannot be written."""


def validate(cfg: argparse.Namespace) -> None:
    """Refuse parsed options beyond the caps, an --out that cannot be written,
    charsum-pp moduli beyond the tables or with no cells, df with no
    moduli, and voronoi cells that cannot converge.

    cfg holds only its subcommand's options, defaults included; an option
    it lacks has nothing to check.
    """
    opt = vars(cfg)
    if not 1 <= cfg.jobs <= CAPS["jobs"]:
        raise ValidationError(f"jobs must be in [1, {CAPS['jobs']}]")
    if cfg.out and Path(cfg.out).is_dir():
        raise ValidationError(f"--out {cfg.out} is a directory")
    if cfg.out and not Path(cfg.out).parent.is_dir():
        raise ValidationError(f"--out {cfg.out}: {Path(cfg.out).parent} is not a directory")
    if "gamma_max" in opt and cfg.gamma_max > CAPS["gamma_max"]:
        raise ValidationError(f"gamma_max {cfg.gamma_max} above cap {CAPS['gamma_max']}")
    if cfg.subcommand == "df" and cfg.gamma_max < 1:
        raise ValidationError(f"gamma_max {cfg.gamma_max}: df needs a modulus p^gamma, gamma >= 1")
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
    if cfg.subcommand == "charsum-pp" and not charsum_pp_cells(cfg.p, cfg.gamma_max, cfg.u_max):
        raise ValidationError("no (p, gamma, u) cells: need gamma_max >= 2 and u_max >= 1")
    if cfg.subcommand == "charsum-pp" and (q := max(cfg.p) ** cfg.gamma_max) > TABLE_Q_MAX:
        raise ValidationError(
            f"{max(cfg.p)}^{cfg.gamma_max} = {q} above the table range {TABLE_Q_MAX}"
        )
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


def _emit(pieces: list[str], cfg: argparse.Namespace) -> None:
    """Join render_piece's pieces as CSV or JSON, and write them to --out or stdout.

    A write that fails, such as on a full disk, raises ValidationError: a
    usage error, as validate's are.  Stdout is flushed inside the check;
    if that fails, fd 1 is pointed at devnull, or the bytes its buffer kept
    would fail again at interpreter exit and turn exit 2 into 120.
    """
    text = join_pieces(pieces, cfg.format)
    where = f"--out {cfg.out}" if cfg.out else "stdout"
    try:
        if cfg.out:
            Path(cfg.out).write_text(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not cfg.out:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise ValidationError(f"cannot write {where}: {exc}") from exc


def _scan(one, items: list, cfg: argparse.Namespace, *checks) -> int:
    """Emit the rows of one(item) for every item, in item order; the exit code.

    A check is a (label, holds) pair.  Each item's rows are rendered where
    one runs, in a --jobs worker or here, and each holds is evaluated there
    on each raw row; only the piece of text and the counts come back.
    After every row is written, each check that holds for n > 0 rows
    prints "n label" on stderr, and the code is 1; else it is 0.
    """
    def piece(item) -> tuple:
        rows = one(item)
        return (render_piece(rows, cfg.format),
                *(sum(1 for r in rows if holds(r)) for _, holds in checks))

    done = pmap(piece, items, cfg.jobs)
    _emit([d[0] for d in done], cfg)
    code = 0
    for k, (label, _) in enumerate(checks, 1):
        if n := sum(d[k] for d in done):
            print(f"{n} {label}", file=sys.stderr)
            code = 1
    return code


# a correlation scan's check: a nan ratio fails too
RATIO_CHECK = (f"rows with ratio above {RATIO_CAP} or nan", lambda r: not r["ratio"] <= RATIO_CAP)


# ---------------------------------------------------------------- runners


def _run_kloosterman(cfg: argparse.Namespace) -> int:
    def one(q: int) -> list[dict]:
        value = kloosterman_table(q)
        split = kloosterman_split_row(q)
        return [{"q": q, "m": m, "value": v, "split_value": s, "abs_diff": d}
                for m, (v, s, d) in enumerate(zip(value.tolist(), split.real.tolist(),
                                                  np.abs(split - value).tolist()))]

    return _scan(one, cfg.q, cfg, (f"rows with abs_diff above {SPLIT_TOL}*q or nan",
                                   lambda r: not r["abs_diff"] <= SPLIT_TOL * r["q"]))


def _run_hyperkl3(cfg: argparse.Namespace) -> int:
    def one(q: int) -> list[dict]:
        tab = hyper_kl3_table(q)
        return [{"q": q, "m": m, "re": v.real, "im": v.imag, "abs": abs(v)}
                for m, v in enumerate(tab.tolist())]

    return _scan(one, cfg.q, cfg)


def _run_charsum_pp(cfg: argparse.Namespace) -> int:
    cells = charsum_pp_cells(cfg.p, cfg.gamma_max, cfg.u_max)
    return _scan(lambda cell: charsum_pp(*cell, 50), cells, cfg, RATIO_CHECK,
                 ("rows predicted to vanish that did not",
                  lambda r: r["predicted_vanishing"] and not r["vanished"]))


def _run_charsum_prime(cfg: argparse.Namespace) -> int:
    return _scan(lambda p: charsum_prime(p, 25), cfg.p, cfg, RATIO_CHECK,
                 (f"rows with route_diff above {ROUTE_TOL}*p^2 or nan",
                  lambda r: not r["route_diff"] <= ROUTE_TOL * r["p"] * r["p"]))


def _run_df(cfg: argparse.Namespace) -> int:
    pairs = [(p, gamma) for p in cfg.p for gamma in range(1, cfg.gamma_max + 1)]
    mods = [(p, gamma) for p, gamma in pairs if p**gamma <= CAPS["q"]]
    if len(mods) < len(pairs):  # said, not refused: the rows that fit are still written
        dropped = ", ".join(f"({p}, {gamma})" for p, gamma in pairs if p**gamma > CAPS["q"])
        print(f"skipped (p, gamma) with p^gamma above {CAPS['q']}: {dropped}", file=sys.stderr)
    return _scan(lambda mod: df_pairs(*mod, 30), mods, cfg, RATIO_CHECK)


def _run_calc(cfg: argparse.Namespace) -> int:
    return _scan(lambda q: calc_tuples(q, modulus_rng(q)), cfg.q, cfg, RATIO_CHECK)


def _run_glue(cfg: argparse.Namespace) -> int:
    return _scan(lambda q: glue_tuples(q, modulus_rng(q)), cfg.q, cfg, RATIO_CHECK)


def _run_voronoi(cfg: argparse.Namespace) -> int:
    # one item per X, so that one worker builds each X's moment grid and kernels
    def one(x: float) -> list[dict]:
        return [{"q": q, "a": a, "X": x, "lhs_re": rep.lhs.real, "lhs_im": rep.lhs.imag,
                 "main": rep.rhs_main.real, "dual_re": rep.rhs_dual.real,
                 "dual_im": rep.rhs_dual.imag, "truncation": rep.truncation_level,
                 "residual": rep.residual, "relative": rep.relative_residual}
                for q, a, rep in scale_residuals(cfg.q, x)]

    return _scan(one, cfg.X, cfg, (f"cells above tolerance {VORONOI_TOL}",
                                   lambda r: not r["relative"] <= VORONOI_TOL))


def _run_bilinear(cfg: argparse.Namespace) -> int:
    # all configs are one item, so they run in this process: a config costs
    # about 1 ms, less than forking a worker for it
    configs = [bilinear_config(q, n, m) for q in cfg.q for m in cfg.M or [None] for n in cfg.N]
    return _scan(cancellation_scan, [configs], cfg,
                 ("rows with abs_S above the trivial bound", lambda r: not r["_within_trivial"]))


def _run_distribution(cfg: argparse.Namespace) -> int:
    return _scan(lambda x: discrepancy_scan(int(x), cfg.q), cfg.X, cfg)


def _run_verify_all(cfg: argparse.Namespace) -> int:
    results = run_checks(quick=cfg.quick, jobs=cfg.jobs)
    if cfg.self_test:
        results = results + [criterion_determinism()]
    for res in results:
        print(f"[time] {res.name}: {res.elapsed:.2f}s cpu {res.cpu:.2f}s", file=sys.stderr)
    rows = [{"check": r.name, "passed": r.passed, "details": r.details.replace(",", ";")}
            for r in results]
    _emit([render_piece(rows, cfg.format)], cfg)
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
    "quick": {"action": "store_true", "help": "reduced ranges, sub-minute run"},
    "self_test": {"action": "store_true", "help": "also run the CLI determinism check"},
}

# each subcommand's runner, and the options it reads with their defaults:
# a flag's text, converted as a flag's value is; None where the runner has
# its own (u_max: 4*gamma//5, M: per q)
COMMANDS = {
    "kloosterman": (_run_kloosterman, {"q": "12"}),
    "hyperkl3": (_run_hyperkl3, {"q": "9"}),
    "charsum-pp": (_run_charsum_pp, {"p": "3,5", "gamma_max": "3", "u_max": None}),
    "charsum-prime": (_run_charsum_prime, {"p": "3,5,7,11,13"}),
    "df": (_run_df, {"p": "3,5,7", "gamma_max": "3"}),
    "calC": (_run_calc, {"q": "2..60"}),
    "glue": (_run_glue, {"q": "2..60"}),
    "voronoi": (_run_voronoi, {"q": "1..20", "X": "50"}),
    "bilinear": (_run_bilinear, {"q": "27,49,121", "M": None, "N": "3"}),
    "distribution": (_run_distribution, {"q": "3,5,7,9", "X": "10000"}),
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
        for key, default in options.items():
            spec = dict(OPTIONS[key])
            if default:
                spec["help"] += f" (default: {default})"
            sp.add_argument(f"--{key.replace('_', '-')}", default=default, **spec)
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--jobs", type=int, default="1", help="worker processes (default: 1)")
    return parser


def _cpu() -> float:
    """CPU seconds of this process and of its reaped children (the --jobs workers)."""
    t = os.times()
    return process_time() + t.children_user + t.children_system


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    t0, c0 = perf_counter(), _cpu()
    try:
        cfg = build_parser().parse_args(argv)
        validate(cfg)
    except SystemExit as exc:  # argparse refused an option, or printed --help
        return int(exc.code) if exc.code else 0
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code = COMMANDS[cfg.subcommand][0](cfg)
    except ValidationError as exc:  # _emit could not write --out or stdout
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
