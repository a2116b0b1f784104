"""Seeded parameter families shared by the CLI scans and the criteria.

Each family is defined once: its seed, its draw loop and the sums it
evaluates.  A correlation family returns one row of raw values per sum,
the record its CLI scan writes as it is and its acceptance criterion
aggregates by column (ratio, route_diff, predicted_vanishing, vanished,
crt_residual) into its details string.  The two differ in how many
rows they draw, and the glue sums also in which: criterion 8 draws a
modulus' glue tuples from modulus_rng(q) after its calC tuples, while
the glue scan starts that stream afresh.  written is the one place a
row value is formatted (floats by fmt, the one float format) and pmap
the one order-preserving parallel map.  The one CSV/JSON writer comes
in two halves: render_piece renders one item's rows where they are
made, in each --jobs worker of a scan, and join_pieces joins the
pieces in the CLI's process, so only text crosses a worker's pipe and
output bytes do not depend on --jobs; render is the two on one piece.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import signal
import sys
from concurrent.futures import BrokenExecutor

import numpy as np

from .arith import divisors, factorize
from .bilinear import BilinearConfig
from .charsums import (
    CharSumParams,
    calC,
    df_correlation,
    frakC2_glue,
    frakC_11,
    moebius_correlation,
    moebius_reduce,
    ppower_bound,
)
from .memo import COUNTS
from .modarith import PrimePower, units

__all__ = [
    "BrokenExecutor",
    "fmt",
    "written",
    "pmap",
    "render_piece",
    "join_pieces",
    "render",
    "bilinear_config",
    "charsum_pp_cells",
    "charsum_pp",
    "charsum_prime",
    "df_pairs",
    "modulus_rng",
    "calc_tuples",
    "glue_tuples",
]


_FLOAT = ".12e"  # the one float format


def fmt(x: float) -> str:
    return format(x, _FLOAT)


# whether a value of a plain type, the commonest kind of value, is written
# by fmt (a float) or as it is (an int or a str); any other type takes
# written's isinstance chain
_BY_FMT = {int: False, str: False, float: True}


def written(row: dict) -> dict:
    """row with each value as it is written; keys starting with _ keep theirs.

    A float is written by fmt, a bool or numpy integer as an int, None as
    the empty string and a list as its items joined by ";"; an int or a
    string is written as it is.
    """
    out = {}
    for k, v in row.items():
        by_fmt = _BY_FMT.get(type(v))
        if by_fmt is False or k[0] == "_":
            out[k] = v
        elif by_fmt:
            out[k] = format(v, _FLOAT)  # fmt(v), without the call
        elif isinstance(v, float):  # numpy's float64
            out[k] = fmt(v)
        elif isinstance(v, (bool, np.bool_, np.integer)):  # a bool is written 1 or 0
            out[k] = int(v)
        elif v is None:
            out[k] = ""
        elif isinstance(v, list):
            out[k] = ";".join(map(str, v))
        else:
            out[k] = v
    return out


def pmap(fn, items, jobs: int) -> list:
    """[fn(it) for it in items] on min(jobs, len(items), cpu count) forked workers.

    With one worker the items run in the caller.  A worker takes the next
    item index from one shared task pipe when it is free, so it sees its
    items in list order; results come back in list order.  fn and items
    are inherited, never pickled; fn's results and exceptions are, and so
    are each worker's memo counts, which start from 0 and are added to this
    process's.  The exception of the earliest failing item is raised; a
    worker that dies raises BrokenExecutor.  Every worker is reaped before
    pmap returns or raises, so its CPU time counts in os.times() here.
    """
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    r, w = os.pipe()
    task_r, task_w = open(r, "rb", buffering=0), open(w, "wb", buffering=0)
    readers = {}  # the read end of each unreaped worker's result pipe -> its pid
    sys.stdout.flush()  # else a worker would write what they hold again
    sys.stderr.flush()
    try:
        for _ in range(workers):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:  # a worker: run items until the task pipe is drained
                code = 1
                try:
                    task_w.close()
                    for counts in COUNTS.values():
                        counts[:] = [0, 0]
                    done = []
                    # a task is 4 bytes and written in atomic pieces of them, so
                    # a read never splits one
                    while task := task_r.read(4):
                        i = int.from_bytes(task, "little")
                        try:
                            done.append((i, True, fn(items[i])))
                        except BaseException as exc:  # raised in the caller, as at one worker
                            done.append((i, False, exc))
                    with open(w, "wb") as sink:  # only now: the caller writes tasks until here
                        pickle.dump((done, COUNTS), sink, pickle.HIGHEST_PROTOCOL)
                    sys.stdout.flush()  # what fn printed, as at exit
                    sys.stderr.flush()
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            readers[open(r, "rb")] = pid
        task_r.close()
        # written after the fork, since the pipe holds 64 KiB; POSIX makes a
        # write of up to 512 bytes atomic
        tasks = np.arange(len(items), dtype="<u4").tobytes()
        try:
            for k in range(0, len(tasks), 512):
                task_w.write(tasks[k:k + 512])
        except BrokenPipeError:  # every worker is gone; their exit codes say why
            pass
        task_w.close()
        out, failed = [None] * len(items), {}
        while readers:  # reap each worker as it ends, so that one that dies is seen at once
            reader = select.select(list(readers), [], [])[0][0]
            with reader:
                data = reader.read()
            pid = readers[reader]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del readers[reader]
            if code:
                raise BrokenExecutor(f"pmap worker {pid} exited with code {code}")
            try:
                done, added = pickle.loads(data)
            except Exception as exc:
                raise BrokenExecutor(f"pmap worker {pid} sent results that do not load") from exc
            for i, ok, value in done:
                if ok:
                    out[i] = value
                else:
                    failed[i] = value
            for kind, (hits, misses) in added.items():
                COUNTS[kind][0] += hits
                COUNTS[kind][1] += misses
    finally:
        task_r.close()
        task_w.close()
        for reader, pid in readers.items():  # pmap raised: stop and reap the rest
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failed:
        raise failed[min(failed)]
    return out


def render_piece(rows: list[dict], kind: str = "csv") -> str:
    """One item's rows, each through written, as a piece of CSV or JSON text.

    A piece is its column line (the first row's keys in their order, less
    those that start with _, joined by commas) and then the rows: CSV
    lines, or JSON objects joined by ",\n".  Zero rows are the piece "".
    join_pieces makes a whole text of pieces.
    """
    if not rows:
        return ""
    cols = [k for k in rows[0] if k[0] != "_"]
    if kind == "json":
        encode = json.JSONEncoder(indent=0).encode
        body = ",\n".join([encode({c: w[c] for c in cols}) for w in map(written, rows)])
    else:
        body = "\n".join([",".join([str(w[c]) for c in cols]) for w in map(written, rows)])
    return ",".join(cols) + "\n" + body


def join_pieces(pieces: list[str], kind: str = "csv") -> str:
    """The CSV or JSON text of render_piece's pieces, in their order.

    The columns are those of the first piece that has rows: the CSV header,
    or each JSON object's keys.  A piece with other columns raises
    ValueError.  No rows write nothing as CSV and [] as JSON.
    """
    cols, bodies = None, []
    for piece in filter(None, pieces):
        head, _, body = piece.partition("\n")
        if cols is None:
            cols = head
        elif head != cols:
            raise ValueError(f"a piece has the columns {head!r}, not {cols!r}")
        bodies.append(body)
    if kind == "json":
        return "[\n" + ",\n".join(bodies) + "\n]\n" if bodies else "[]\n"
    return cols + "\n" + "\n".join(bodies) + "\n" if bodies else ""


def render(rows: list[dict], kind: str = "csv") -> str:
    """rows as one whole CSV or JSON text: join_pieces of one piece."""
    return join_pieces([render_piece(rows, kind)], kind)


def bilinear_config(q: int, N: int, M: int | None = None) -> BilinearConfig:
    """The plain bilinear config at q: b the median unit mod q, M by default max(4, q // 2)."""
    us = units(q)
    return BilinearConfig(q=q, M=max(4, q // 2) if M is None else M, N=N, b=us[len(us) // 2])


def charsum_pp_cells(
    ps, gamma_max: int, u_max: int | None = None
) -> list[tuple[int, int, int]]:
    """(p, gamma, u) with 2 <= gamma <= gamma_max and 1 <= u <= 4*gamma/5."""
    cells = []
    for p in ps:
        for gamma in range(2, gamma_max + 1):
            ucap = 4 * gamma // 5
            if u_max is not None:
                ucap = min(ucap, u_max)
            cells += [(p, gamma, u) for u in range(1, ucap + 1)]
    return cells


def charsum_pp(p: int, gamma: int, u: int, n: int) -> list[dict]:
    """The rows of n seeded c_{gamma,u} tuples of one cell, each against its ppower_bound."""
    rng = np.random.default_rng(97 * p + 31 * gamma + u)
    pp = PrimePower(p, gamma)
    q = pp.q
    out = []
    while len(out) < n:
        # one draw of 6 is the PCG64 stream of a draw of 4 and then of 2
        s1, s2, lam1, lam2, t1, t2 = rng.integers(1, q, size=6).tolist()
        if s1 * s2 * lam1 * lam2 * t1 * t2 % p == 0:  # p is prime
            continue
        j = int(rng.integers(0, gamma + 1))  # spread the valuation of m
        m = p**j * int(rng.integers(1, max(2, q // p**j)))
        if m % q == 0:
            continue
        rep = ppower_bound(CharSumParams(pp, u, s1, t1, s2, t2, lam1, lam2, m))
        out.append({"p": p, "gamma": gamma, "u": u, "s1": s1, "t1": t1, "s2": s2, "t2": t2,
                    "lam1": lam1, "lam2": lam2, "m": m, "case": rep.aux["case"],
                    "value": rep.sum_value.real, "bound": rep.bound_value, "ratio": rep.ratio,
                    "predicted_vanishing": rep.vanishing_predicted, "vanished": rep.vanished})
    return out


def charsum_prime(p: int, n: int) -> list[dict]:
    """The rows of n seeded c_{1,1} tuples mod p: frakC_11, its completion and the Moebius route."""
    rng = np.random.default_rng(1000 + p)
    out = []
    for _ in range(n):
        s1, s2, lam1, lam2, t1, t2 = (int(v) for v in rng.integers(1, p, size=6))
        m = int(rng.integers(0, p))
        rep = frakC_11(p, s1, t1, s2, t2, lam1, lam2, m)
        completed = rep.aux["completed"]
        mo = moebius_correlation(moebius_reduce(s1, t1, s2, t2, lam1, lam2, m, p), p)
        out.append({"p": p, "s1": s1, "t1": t1, "s2": s2, "t2": t2, "lam1": lam1, "lam2": lam2,
                    "m": m, "value": rep.sum_value.real, "completed": completed.real,
                    "moebius": mo.real, "route_diff": abs(completed - mo), "ratio": rep.ratio})
    return out


def df_pairs(p: int, gamma: int, n: int) -> list[dict]:
    """The rows of n seeded df_correlation(a, b, p^gamma), a a unit."""
    pp = PrimePower(p, gamma)
    rng = np.random.default_rng(13 * p + gamma)
    out = []
    for _ in range(n):
        a = int(rng.integers(1, pp.q))
        if a % p == 0:
            a = 1
        b = int(rng.integers(0, pp.q))
        rep = df_correlation(a, b, pp)
        out.append({"p": p, "gamma": gamma, "a": a, "b": b, "value": rep.sum_value.real,
                    "bound": rep.bound_value, "ratio": rep.ratio, "nu_min": rep.aux["nu_min"]})
    return out


def modulus_rng(q: int) -> np.random.Generator:
    """The stream of the calC and glue tuples at modulus q: criterion 8 draws
    both from one stream, calC first; the calC and glue scans each start one."""
    return np.random.default_rng(4000 + q)


def calc_tuples(q: int, rng: np.random.Generator) -> list[dict]:
    """The rows of calC at mtil = 0 and at one drawn mtil."""
    us = units(q)
    pick = lambda: us[int(rng.integers(len(us)))]
    out = []
    for mtil in (0, int(rng.integers(q))):
        n1, n2, b = pick(), pick(), pick()
        rep = calC(n1, n2, mtil, b, q)
        out.append({"q": q, "n1": n1, "n2": n2, "mtil": mtil, "b": b, "re": rep.sum_value.real,
                    "im": rep.sum_value.imag, "bound": rep.bound_value, "ratio": rep.ratio,
                    "crt_residual": rep.aux["residual"]})
    return out


def glue_tuples(q: int, rng: np.random.Generator) -> list[dict]:
    """The rows of one frakC2_glue tuple per squarefree d | q; crt_residual is
    None where gcd(d, q/d) > 1 leaves no coprime split to cross-check.  The
    tuples are rng's next draws, which differ at the same q between criterion
    8 (after the calC draws) and the glue scan (a fresh modulus_rng(q))."""
    us = units(q)
    pick = lambda: us[int(rng.integers(len(us)))]
    out = []
    for d in (dd for dd in divisors(q) if factorize(dd).is_squarefree()):
        rep = frakC2_glue(
            d, q, pick(), pick(), pick(), pick(), pick(), pick(),
            int(rng.integers(q)), int(rng.integers(q)), int(rng.integers(d)),
            pick(),
        )
        out.append({"d": d, "q": q, "re": rep.sum_value.real, "im": rep.sum_value.imag,
                    "bound": rep.bound_value, "ratio": rep.ratio,
                    "crt_residual": rep.aux["residual"], "active_k": rep.aux["active_k"]})
    return out
