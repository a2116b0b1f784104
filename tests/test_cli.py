"""CLI: parsing, validation, output formats, reproducibility."""

import argparse
import dataclasses
import functools
import hashlib
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from expsum import bilinear, cli, distribution, memo, verify, voronoi
from expsum.cli import (
    CAPS,
    ParseError,
    ValidationError,
    build_parser,
    main,
    parse_int_list,
    validate,
)
from expsum.expsums import hyper_kl3_table
from expsum.families import (
    BrokenExecutor,
    fmt,
    join_pieces,
    pmap,
    render,
    render_piece,
    written,
)
from expsum.modarith import units

# with one CPU pmap runs everything in the caller, where os._exit would end pytest
_TWO_CPUS = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="pmap needs 2 CPUs to fork")


_INTS = st.integers(-10**6, 10**6)
# one list piece: a single integer, or a range lo..hi with lo <= hi
_PIECES = st.one_of(
    _INTS.map(lambda v: (str(v), [v])),
    st.tuples(_INTS, st.integers(0, 20)).map(
        lambda t: (f"{t[0]}..{t[0] + t[1]}", list(range(t[0], t[0] + t[1] + 1)))
    ),
)


def test_parse_int_list_forms():
    assert parse_int_list("3,5,7") == [3, 5, 7]
    assert parse_int_list("1..5") == [1, 2, 3, 4, 5]
    assert parse_int_list("1..3,9,20..21") == [1, 2, 3, 9, 20, 21]
    assert parse_int_list("7") == [7]


@given(st.lists(_PIECES, min_size=1, max_size=6))
def test_parse_int_list_round_trips(pieces):
    text = ",".join(piece for piece, _ in pieces)
    assert parse_int_list(text) == [v for _, values in pieces for v in values]


@given(
    st.lists(st.integers(-3, CAPS["q"] + 3), max_size=4),
    st.lists(st.integers(-3, CAPS["N"] + 3), max_size=4),
)
def test_validate_rejects_exactly_the_q_and_N_outside_the_caps(qs, ns):
    outside = any(not 1 <= q <= CAPS["q"] for q in qs) or any(
        not 1 <= n <= CAPS["N"] for n in ns
    )
    # the --flag=value form, so that a negative value is not read as a flag
    argv = [f"--{k}={','.join(map(str, v))}" for k, v in (("q", qs), ("N", ns)) if v]
    cfg = build_parser().parse_args(["bilinear", *argv])
    if outside:
        with pytest.raises(ValidationError):
            validate(cfg)
    else:
        validate(cfg)


def test_parse_int_list_errors():
    with pytest.raises(ParseError):
        parse_int_list("a..b")
    with pytest.raises(ParseError):
        parse_int_list("1.5")
    with pytest.raises(ParseError):
        parse_int_list("")
    # a reversed range is an error, alone or beside other pieces
    with pytest.raises(ParseError, match="'5..3'"):
        parse_int_list("5..3")
    with pytest.raises(ParseError, match="'5..3'"):
        parse_int_list("5..3,7")


def _spy_run_checks(monkeypatch) -> list:
    """Record (quick, jobs) of each verify-all run, which then runs no check."""
    seen = []
    monkeypatch.setattr(cli, "run_checks", lambda quick, jobs: seen.append((quick, jobs)) or [])
    return seen


@pytest.mark.parametrize("argv,error", [
    (["verify-all", "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
    (["verify-all", "--jobs", "2.7"], "argument --jobs: invalid int value: '2.7'"),
    (["hyperkl3", "--q", "3,a"], "argument --q: bad integer 'a'"),
    (["hyperkl3", "--q", "1.5"], "argument --q: bad integer '1.5'"),
    (["voronoi", "--X", "abc"], "argument --X: bad float list 'abc'"),
], ids=["jobs-x", "jobs-2.7", "q-3-a", "q-1.5", "X-abc"])
def test_bad_flag_values_exit_2(argv, error, monkeypatch, capsys):
    # each value goes through its flag's converter, so a bad one is a usage error
    seen = _spy_run_checks(monkeypatch)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and seen == []
    assert error in err.splitlines()[-1]


@pytest.mark.parametrize("given", [True, False])
def test_verify_all_switches_are_on_only_when_given(given, monkeypatch, capsys):
    # --quick and --self-test take no value; --jobs reaches the criteria
    seen = _spy_run_checks(monkeypatch)
    ran = []
    monkeypatch.setattr(cli, "criterion_determinism", lambda: ran.append(1) or verify.CheckResult(
        "verify_all_determinism", True, "stub", 0.0, 0.0))
    flags = ["--quick", "--self-test", "--jobs", "2"] if given else []
    assert main(["verify-all", *flags]) == 0
    assert seen == [(given, 2 if given else 1)] and len(ran) == given
    assert ("verify_all_determinism" in capsys.readouterr().out) == given


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_a_config_file_is_an_unrecognized_argument(name, tmp_path, capsys):
    # flags are the only input: no subcommand reads a JSON file for them
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nope": 1}))
    assert main([name, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: --config {path}\n" in err


@pytest.mark.parametrize("value", ["x", "2"])
def test_EXPSUM_JOBS_changes_nothing(value, monkeypatch, capsys):
    # --jobs defaults to 1 whatever the environment holds
    assert main(["hyperkl3", "--q", "9"]) == 0
    want = capsys.readouterr().out
    monkeypatch.setenv("EXPSUM_JOBS", value)
    assert build_parser().parse_args(["hyperkl3"]).jobs == 1
    assert main(["hyperkl3", "--q", "9"]) == 0
    assert capsys.readouterr().out == want


def test_exit_code_2_on_bad_usage(tmp_path, capsys):
    assert main(["hyperkl3", "--q", "5..3"]) == 2
    assert "argument --q: reversed range '5..3'" in capsys.readouterr().err
    assert main(["kloosterman", "--q", "12", "--tol", "1e-3"]) == 2  # a limit is no flag
    assert "unrecognized arguments: --tol 1e-3\n" in capsys.readouterr().err
    assert main(["charsum-pp", "--p", "3", "--gamma-max", "99"]) == 2
    assert main(["voronoi", "--q", "0"]) == 2
    assert main(["kloosterman", "--q", str(CAPS["q"] + 1)]) == 2
    assert main(["df", "--p", "4"]) == 2  # not a prime
    # the correlation sums need an odd prime: refused before any work,
    # with nothing on stdout (df takes p = 2)
    capsys.readouterr()
    assert main(["charsum-pp", "--p", "2", "--gamma-max", "2"]) == 2
    assert main(["charsum-prime", "--p", "2"]) == 2
    refused = capsys.readouterr()
    assert refused.out == ""
    assert refused.err.count("p = 2: the correlation sums need an odd prime") == 2
    # a modulus p^gamma beyond the tables, or an --out that cannot be
    # written, is refused before any work, with one error line
    assert main(["charsum-pp", "--p", "131", "--gamma-max", "3"]) == 2
    assert main(["charsum-pp", "--p", "3,31", "--gamma-max", "5"]) == 2
    assert main(["kloosterman", "--q", "7", "--out", str(tmp_path / "no" / "x.csv")]) == 2
    assert main(["kloosterman", "--q", "7", "--out", str(tmp_path)]) == 2
    refused = capsys.readouterr()
    assert refused.out == ""
    assert refused.err.splitlines() == [
        "error: 131^3 = 2248091 above the table range 1000000",
        "error: 31^5 = 28629151 above the table range 1000000",
        f"error: --out {tmp_path / 'no' / 'x.csv'}: {tmp_path / 'no'} is not a directory",
        f"error: --out {tmp_path} is a directory",
    ]
    # a charsum-pp range with no (p, gamma, u) cell printed its header alone
    # and exited 0; it is refused as an empty --q list is
    assert main(["charsum-pp", "--p", "7", "--gamma-max", "3", "--u-max", "0"]) == 2
    assert main(["charsum-pp", "--p", "7", "--gamma-max", "3", "--u-max", "-2"]) == 2
    assert main(["charsum-pp", "--p", "7", "--gamma-max", "1"]) == 2
    refused = capsys.readouterr()
    assert refused.out == ""
    assert refused.err.splitlines() == 3 * [
        "error: no (p, gamma, u) cells: need gamma_max >= 2 and u_max >= 1"
    ]
    # df below gamma 1 has no modulus p^gamma and printed its header alone
    assert main(["df", "--p", "3", "--gamma-max", "0"]) == 2
    assert main(["df", "--p", "3", "--gamma-max", "-1"]) == 2
    refused = capsys.readouterr()
    assert refused.out == ""
    assert refused.err.splitlines() == [
        "error: gamma_max 0: df needs a modulus p^gamma, gamma >= 1",
        "error: gamma_max -1: df needs a modulus p^gamma, gamma >= 1",
    ]


def test_df_names_the_moduli_beyond_the_cap_it_skips(capsys):
    # the rows that fit are written and the exit is 0, as before; what is
    # left out is named on stderr, not dropped without a word
    assert main(["df", "--p", "131", "--gamma-max", "3"]) == 0
    skipped = capsys.readouterr()
    assert main(["df", "--p", "131", "--gamma-max", "1"]) == 0
    fitting = capsys.readouterr()
    assert skipped.out == fitting.out and len(skipped.out.splitlines()) == 31
    assert skipped.err.splitlines()[0] == (
        "skipped (p, gamma) with p^gamma above 10000: (131, 2), (131, 3)"
    )
    assert "skipped" not in fitting.err
    assert main(["df", "--p", "3,23", "--gamma-max", "3"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "skipped (p, gamma) with p^gamma above 10000: (23, 3)"


@pytest.mark.parametrize("argv", [["voronoi", "--q", "1", "--X", ","],
                                  ["distribution", "--q", "3", "--X", " , "]])
def test_an_empty_X_list_exits_2(argv, capsys):
    # as an empty q list does; it used to print the CSV header alone and exit 0
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --X: empty list expression" in err


@pytest.mark.parametrize("argv,unknown", [
    (["voronoi", "--q", "3", "--X", "50", "--form", "json"], "--form json"),  # not --format
    (["verify-all", "--quick", "--q", "3"], "--q 3"),  # not --quick
    (["kloosterman", "--q", "5", "--jo", "2"], "--jo 2"),  # not --jobs
])
def test_a_prefix_of_a_flag_is_not_that_flag(argv, unknown, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {unknown}\n" in err


# each option a subcommand does not read, and --tol on every subcommand:
# each check's limit is a constant that its criterion reads too
_UNDECLARED = [(name, key) for name, (_, options) in cli.COMMANDS.items()
               for key in [*cli.OPTIONS, "tol"] if key not in options]


@pytest.mark.parametrize("name,key", _UNDECLARED, ids=[f"{n}-{k}" for n, k in _UNDECLARED])
def test_a_subcommand_refuses_the_flags_it_does_not_read(name, key, capsys):
    flag = f"--{key.replace('_', '-')}"
    switch = cli.OPTIONS.get(key, {}).get("action") == "store_true"
    assert main([name, flag] if switch else [name, flag, "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


def test_the_parser_takes_only_each_subcommands_own_options():
    # 3 shared options (--out, --format, --jobs) on each of 11 subcommands,
    # and 19 of their own
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    values = {name: [a.dest for a in sp._actions if not isinstance(a, argparse._HelpAction)]
              for name, sp in sub.choices.items()}
    assert sum(map(len, values.values())) == 52
    for name, (_, options) in cli.COMMANDS.items():
        assert sorted(values[name]) == sorted(["out", "format", "jobs", *options])


def _readme_examples() -> list[list[str]]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("expsum ")]


def test_readme_examples_parse_and_validate():
    # each example of README's CLI block is parsed and validated, not run, so
    # a flag its subcommand does not take fails here
    examples = _readme_examples()
    assert len(examples) >= 11 and {a[0] for a in examples} == set(cli.COMMANDS)
    for argv in examples:
        validate(build_parser().parse_args(argv))


@pytest.mark.parametrize("x", ["0.5", "0.3"])
def test_voronoi_rejects_scales_with_an_empty_support(x, capsys):
    # (X, 2X) holds no integer for X <= 1/2, so lhs = 0 and the relative
    # residual would be inf; the run is refused before any kernel is built
    assert main(["voronoi", "--q", "1", "--X", x]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "holds no integer" in err


@pytest.mark.parametrize("x,code", [("0.99", 2), ("1", 2), ("1.01", 2),
                                    ("0.9", 0), ("1.03", 0)])
def test_voronoi_refuses_scales_with_almost_no_integer_mass(x, code, capsys):
    # near X = 1 the integers of (X, 2X) sit at the weight's edges: the mass
    # sum d(n) h(n) is 0 to 1.4e-5, so |lhs| is below what the 1e-9 absolute
    # truncation can resolve to 1e-6 relative; 0.9 and 1.03 hold enough
    assert main(["voronoi", "--q", "1", "--X", x]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == ""
        assert "holds no integer" in err
    else:
        assert out.startswith("q,a,X,")


@pytest.mark.parametrize("argv,need", [(["--q", "13", "--X", "2"], 2_718_365),
                                       (["--q", "16", "--X", "4"], 2_211_869),
                                       (["--X", "7"], 2_079_328),
                                       (["--X", "10"], 1_500_400),
                                       (["--q", "42"], 1_516_335)])
def test_voronoi_refuses_cells_that_cannot_converge(argv, need, capsys, monkeypatch):
    # (13, 2), (16, 4), (20, 10) and (42, 50) would build kernels for 1.6-18 s
    # and then fail with CutoffTooSmall; the bound c(X) q^2/X is over the cap,
    # so they are refused before any grid or kernel is built; the default q
    # range ends at 20 and the default X is 50, both checked as given ones are
    builds = []
    monkeypatch.setattr(voronoi, "_grid", lambda *args: builds.append(args))
    monkeypatch.setattr(voronoi, "_build_kernels", lambda *args: builds.append(args))
    assert main(["voronoi"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"at least {need} terms, above the cap 1500000" in err
    assert builds == []


@pytest.mark.parametrize("q,X", [(13, 5.0), (5, 0.58), (6, 0.8), (7, 1.1), (20, 50.0)])
def test_voronoi_accepts_cells_that_converge(q, X):
    # measured n_auto: (13, 5) 1,294,336 terms, (5, 0.58) 1,277,952 (the
    # least n_auto X / q^2 measured), (6, 0.8) 1,425,408, (7, 1.1) 1,458,176
    assert voronoi.predicted_terms(q, X) <= voronoi.N_HARD_CAP
    parse = build_parser().parse_args
    validate(parse(["voronoi", "--q", str(q), "--X", str(X)]))
    for x in ("50", "100", "200"):  # the whole gate
        validate(parse(["voronoi", "--q", "1..20", "--X", x]))


def test_kloosterman_golden_first_rows(capsys):
    assert main(["kloosterman", "--q", "5"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "q,m,value,split_value,abs_diff"
    assert out[1].startswith("5,0,-1.000000000000e+00,")
    assert len(out) == 6


def test_csv_json_same_content(capsys):
    assert main(["hyperkl3", "--q", "7"]) == 0
    csv_text = capsys.readouterr().out
    assert main(["hyperkl3", "--q", "7", "--format", "json"]) == 0
    json_text = capsys.readouterr().out
    rows = json.loads(json_text)
    header = csv_text.strip().split("\n")[0].split(",")
    first_csv = dict(zip(header, csv_text.strip().split("\n")[1].split(",")))
    assert {k: str(v) for k, v in rows[0].items()} == first_csv


# Pinned sha256 of stdout for one small invocation of each scan
# subcommand (some also as JSON); any byte that moves fails here.
SCAN_GOLDENS = [
    (["kloosterman", "--q", "12,25"],
     "43cc3b40f8d7696026c2c20ecb840448be16d6e95365af7c5a9e5c747093f58b"),
    (["kloosterman", "--q", "12,25", "--format", "json"],
     "89c670efece03e3bd62788593be3386272ba3ec4f8fa86870927b876e32582e5"),
    (["hyperkl3", "--q", "9,10"],
     "79b9e9ca0db0992d07bfd09cedc2ff381ba10085e258e8b810e74014510c0e04"),
    (["charsum-pp", "--p", "3", "--gamma-max", "3"],
     "b62279c2244a03f64895b71227ad6cc7e3712e30f696a22116c317af96271951"),
    (["charsum-pp", "--p", "3", "--gamma-max", "3", "--format", "json"],
     "565ca972e3eb2bf273f3178c1e8421f10ef284b0e764a9e46ddd8e1d52a2ae3a"),
    (["charsum-prime", "--p", "5,7"],
     "41a6adb361610e29508c9fb9bec328ea7a13c675d2d2f8a0f5e1bb99b5ffe2fb"),
    (["df", "--p", "3,5", "--gamma-max", "2"],
     "6f91a7ec91e5a5f68b1a805d5aeb0625b8ea68f9d742a95c454769e58e50e025"),
    (["calC", "--q", "2..12"],
     "129991de64cd650f4ea15a7a283b4b9c64064a521a351af77df1c55bdb9e7b22"),
    (["glue", "--q", "2..15"],
     "fe5a74fe337bc9c5a6b06519791faf212d5057e784164e53c16afbe471e838c6"),
    (["glue", "--q", "2..15", "--format", "json"],
     "4b0424d219d69206b6be5af79cb985b910afffdbf7cdfc1475ff093e95242019"),
    (["voronoi", "--q", "3,4", "--X", "50"],
     "04bffa4a9c1196d1830e9d2a4e679033064e47330f3c2b2517e399ae50fb153f"),
    (["voronoi", "--q", "3,4", "--X", "50", "--format", "json"],
     "4debdbc48d2d7855f61ab0b27a841aa09740ca4c5cc57d18ed70a7db73926682"),
    (["bilinear", "--q", "27,49", "--N", "2,3"],
     "c9e650ef40b6af39bfe8d4feb84b1fc326d348e5479f7d1726a7c75dad4e326f"),
    (["bilinear", "--q", "27,49", "--N", "2,3", "--format", "json"],
     "2ab7ade3d61100ef63b5d203693e50d2600189bfd3eca4595b5d60373ecf2a27"),
    (["distribution", "--q", "3,4", "--X", "1000"],
     "e78f050eb8dab39f3bd1e9fbddb00a557464343a4a43ebde327566e68b8e31f6"),
    (["distribution", "--q", "3..30", "--X", "100000"],
     "f85411a25cec5ee6ac27cbe5c8be0637ecd80c2811e9f617a5c10c690dc65671"),
    (["distribution", "--q", "1000..1010", "--X", "1000000"],
     "a3abd1f5acda41f882177aa3ceb34ffcf0bd0b7d5d950401f268451a8ad6ce62"),
]


@pytest.mark.parametrize(
    "argv,digest", SCAN_GOLDENS, ids=[" ".join(a) for a, _ in SCAN_GOLDENS]
)
def test_scan_bytes_are_pinned_and_jobs_independent(argv, digest, tmp_path, capsys):
    assert main(argv + ["--jobs", "1"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest
    path = tmp_path / "out"
    assert main(argv + ["--jobs", "2", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out


# sha256 of `expsum verify-all --quick` stdout: the check rows as written
VERIFY_QUICK_SHA256 = "6178ef597bf96b377646209cdf47971bac6aac79d1d46ca6c7eea91f1162ebc0"


def test_verify_all_quick_bytes_are_pinned(capsys):
    assert main(["verify-all", "--quick"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == VERIFY_QUICK_SHA256


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _pool_scans() -> list[tuple[list[str], str]]:
    """Each benchmark pool scan, with its --jobs, and its golden stdout sha256."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", _PERFBENCH / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    golden = json.loads((_PERFBENCH / "golden.json").read_text())["scans"]
    scans = [argv + ["--jobs", str(wl.SCAN_JOBS)] for argv in wl.scan_variants()]
    return [(argv, golden[wl.scan_key(argv)]) for argv in scans]


def test_every_benchmark_pool_scan_exits_0_with_its_golden_bytes(capsys):
    # the benchmark counts a scan that exits nonzero or moves a byte as failed
    scans = _pool_scans()
    assert len(scans) == 48 and all("--jobs 2" in " ".join(a) for a, _ in scans)
    wrong = []
    for argv, digest in scans:
        code = main(argv)
        out = capsys.readouterr().out.encode()
        if code != 0 or hashlib.sha256(out).hexdigest() != digest:
            wrong.append((" ".join(argv), code))
    assert wrong == []


def test_written_formats_each_value_type_in_one_place():
    row = {"f": 0.1, "np": np.float64(-2.5), "t": True, "fa": False, "nb": np.bool_(True),
           "i": 7, "ni": np.int64(-3), "none": None, "lst": [1, 2, 3], "s": "*",
           "_raw": 0.25}
    out = written(row)
    assert out == {"f": "1.000000000000e-01", "np": "-2.500000000000e+00", "t": 1, "fa": 0,
                   "nb": 1, "i": 7, "ni": -3, "none": "", "lst": "1;2;3", "s": "*",
                   "_raw": 0.25}
    # a bool is an int subclass: it must come out as the int 1 or 0, not True/False
    assert [type(out[k]) for k in ("t", "fa", "nb", "ni")] == [int] * 4
    assert list(out) == list(row)
    text = render([out, out])
    assert text.splitlines()[0] == "f,np,t,fa,nb,i,ni,none,lst,s"  # no _ key
    assert text.splitlines()[1] == "1.000000000000e-01,-2.500000000000e+00,1,0,1,7,-3,,1;2;3,*"
    assert "True" not in text and "False" not in text
    assert json.loads(render([out], "json")) == [{k: v for k, v in out.items() if k != "_raw"}]
    assert written({}) == {}
    assert render([]) == "" and render([], "json") == "[]\n"


# the rows of a few items, all with the keys c0, c1, ... in that order; each
# value of a type that written knows
_CELLS = st.one_of(st.integers(-10**6, 10**6), st.floats(allow_nan=True), st.booleans(),
                   st.none(), st.text("ab*", max_size=3), st.lists(st.integers(0, 9), max_size=3))
_ITEMS = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(st.lists(_CELLS, min_size=width, max_size=width).map(
        lambda values: {f"c{i}": v for i, v in enumerate(values)}), max_size=3),
    max_size=4))


@given(_ITEMS)
def test_joined_pieces_are_the_bytes_of_all_rows_rendered_at_once(items):
    # the one-text writer the pieces replaced: a header or [ ], and the rows
    rows = [written(r) for rs in items for r in rs]
    cols = list(rows[0]) if rows else []
    csv_text = "\n".join([",".join(cols)] + [",".join(str(r[c]) for c in cols)
                                             for r in rows]) + "\n" if rows else ""
    json_text = json.dumps([{c: r[c] for c in cols} for r in rows], indent=0) + "\n"
    for kind, want in (("csv", csv_text), ("json", json_text)):
        assert join_pieces([render_piece(rs, kind) for rs in items], kind) == want
        assert render([r for rs in items for r in rs], kind) == want


def test_a_piece_with_other_columns_raises():
    pieces = [render_piece([{"q": 1, "m": 2}]), "", render_piece([{"q": 3, "x": 4}])]
    with pytest.raises(ValueError, match="'q,x', not 'q,m'"):
        join_pieces(pieces)
    # the same columns in another order are other columns too
    with pytest.raises(ValueError):
        join_pieces([render_piece([{"q": 1, "m": 2}], "json"),
                     render_piece([{"m": 2, "q": 1}], "json")], "json")


def _scan_text(one, items, jobs, kind, capsys):
    cfg = argparse.Namespace(format=kind, jobs=jobs, out=None)
    code = cli._scan(one, items, cfg, ("rows with v above 1", lambda r: r["v"] > 1))
    return (*capsys.readouterr(), code)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_scan_takes_its_columns_from_the_first_item_with_rows(jobs, capsys):
    # item 0 yields no rows, so the header comes from item 1's
    def one(i):
        return [{"i": i, "v": v, "_raw": v} for v in range(i)]

    assert _scan_text(one, [0, 1, 3], jobs, "csv", capsys) == (
        "i,v\n1,0\n3,0\n3,1\n3,2\n", "1 rows with v above 1\n", 1)
    out, *failed = _scan_text(one, [0, 1, 3], jobs, "json", capsys)
    assert json.loads(out) == [{"i": 1, "v": 0}, {"i": 3, "v": 0}, {"i": 3, "v": 1},
                               {"i": 3, "v": 2}]
    assert failed == ["1 rows with v above 1\n", 1]
    # zero items, or items without rows, write what zero rows write, and fail no check
    for items in ([], [0, 0]):
        assert _scan_text(one, items, jobs, "csv", capsys) == ("", "", 0)
        assert _scan_text(one, items, jobs, "json", capsys) == ("[]\n", "", 0)
    with pytest.raises(ValueError, match="'v,i', not 'i,v'"):
        _scan_text(lambda i: [{"v": 0, "i": i}] if i else [{"i": i, "v": 0}],
                   [0, 1], jobs, "csv", capsys)


@_TWO_CPUS
def test_only_text_and_counts_cross_the_pipe_of_a_forked_scan(monkeypatch, capsys):
    # the parent gets each item's piece of text and its counts back from
    # the workers, and no row dict
    results = []

    def spy(fn, items, jobs):
        results.append(pmap(fn, items, jobs))
        return results[-1]

    monkeypatch.setattr(cli, "pmap", spy)
    runs = [  # argv, counts per item: one for each check of the scan
        (["kloosterman", "--q", "12,25"], 1),
        (["hyperkl3", "--q", "9,10", "--format", "json"], 0),
        (["charsum-prime", "--p", "5,7"], 2),
        (["charsum-pp", "--p", "3", "--gamma-max", "3"], 2),
        (["voronoi", "--q", "3,4", "--X", "50,60"], 1),
    ]
    for argv, n in runs:
        results.clear()
        assert main(argv + ["--jobs", "2"]) == 0
        out = capsys.readouterr().out
        (got,) = results
        assert len(got) >= 2
        for result in got:
            assert type(result) is tuple and len(result) == 1 + n
            assert type(result[0]) is str and all(type(c) is int for c in result[1:])
        assert out == join_pieces([r[0] for r in got], "json" if "json" in argv else "csv")


def test_kloosterman_rows_are_the_per_element_values(capsys):
    # the runner reads the table and the split row as whole arrays; each row
    # is what the per-m scalars it replaced wrote
    qs = [*range(1, 120), 1000, 4999, 5000]
    assert main(["kloosterman", "--q", ",".join(map(str, qs))]) == 0
    want = ["q,m,value,split_value,abs_diff"]
    for q in qs:
        tab, split = cli.kloosterman_table(q), cli.kloosterman_split_row(q)
        for m in range(q):
            value, s = float(tab[m]), complex(split[m])
            want.append(f"{q},{m},{fmt(value)},{fmt(s.real)},{fmt(abs(s - value))}")
    assert capsys.readouterr().out.splitlines() == want


def test_kloosterman_counts_the_rows_above_the_tolerance(monkeypatch, capsys):
    assert main(["kloosterman", "--q", "5"]) == 0
    want = capsys.readouterr().out.splitlines()
    real = cli.kloosterman_split_row
    monkeypatch.setattr(cli, "kloosterman_split_row", lambda q: real(q) + (np.arange(q) >= 2))
    assert main(["kloosterman", "--q", "5"]) == 1
    out, err = capsys.readouterr()
    got = out.splitlines()
    assert len(got) == 6 and got[:3] == want[:3]  # every row is still written
    assert [line.split(",")[-1] for line in got[3:]] == [fmt(1.0)] * 3  # m = 2, 3, 4
    assert [line.split(",")[:3] for line in got[3:]] == [line.split(",")[:3] for line in want[3:]]
    lines = err.splitlines()
    assert lines[0] == "3 rows with abs_diff above 1e-09*q or nan"
    assert lines[1].startswith("[time] total: ")


def test_distribution_checks_one_ramanujan_decomposition_per_modulus(monkeypatch, capsys):
    calls = []
    real = distribution.ramanujan_decomposition

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(distribution, "ramanujan_decomposition", spy)
    assert main(["distribution", "--q", "3,4", "--X", "1000"]) == 0
    assert calls == [(1000, 3), (1000, 4)]  # one per modulus, every unit class at once
    capsys.readouterr()


def test_distribution_runs_every_X_in_order(capsys):
    assert main(["distribution", "--q", "3,4", "--X", "1000"]) == 0
    one = capsys.readouterr().out.splitlines()
    assert main(["distribution", "--q", "3,4", "--X", "1000,2000"]) == 0
    both = capsys.readouterr().out.splitlines()
    assert both[: len(one)] == one
    assert [line.split(",")[0] for line in both[len(one):]] == ["2000"] * (len(one) - 1)
    assert main(["distribution", "--q", "3", "--X", "1000.5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "X = 1000.5 is not an integer" in err


def test_distribution_slope_needs_two_distinct_moduli(capsys):
    # a repeated modulus adds no point to the log-log fit
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["distribution", "--q", "5,5", "--X", "1000"]) == 0
    out, err = capsys.readouterr()
    assert caught == [] and "Warning" not in err
    stars = [line.split(",") for line in out.splitlines() if line.split(",")[2] == "*"]
    assert len(stars) == 2 and all(row[-1] == "nan" for row in stars)
    assert main(["distribution", "--q", "5,5,7", "--X", "1000"]) == 0
    repeated = capsys.readouterr().out.splitlines()
    assert main(["distribution", "--q", "5,7", "--X", "1000"]) == 0
    slope = capsys.readouterr().out.splitlines()[-1].split(",")[-1]
    assert {line.split(",")[-1] for line in repeated if ",*," in line} == {slope}


def test_charsum_prime_runs(capsys):
    assert main(["charsum-prime", "--p", "5"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].startswith("p,s1,t1,s2,t2,lam1,lam2,m,value,completed")
    assert len(out) == 26


def test_distribution_runs(capsys):
    assert main(["distribution", "--q", "3,4", "--X", "1000"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "X,q,a,ap_sum,coprime_mean,delta,max_abs_delta,slope_fit"
    stars = [line for line in out[1:] if line.split(",")[2] == "*"]
    assert len(stars) == 2


def test_bilinear_csv_shape(capsys):
    assert main(["bilinear", "--q", "27", "--N", "2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].startswith("q,p,M,N,abs_S,trivial")
    assert len(out) == 2


def test_glue_runs(capsys):
    assert main(["glue", "--q", "15"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "d,q,re,im,bound,ratio,crt_residual,active_k"
    # 15 has four squarefree divisors: 1, 3, 5, 15
    assert len(out) == 5


def test_timings_go_to_stderr_not_stdout(monkeypatch, capsys):
    assert main(["hyperkl3", "--q", "5"]) == 0
    captured = capsys.readouterr()
    assert "[time]" not in captured.out
    assert re.fullmatch(r"\[time\] total: \d+\.\d\ds cpu \d+\.\d\ds\n\[tables\] .*\n", captured.err)
    # each criterion line gives the CPU of its own check, which at --jobs 2
    # ran alone in a worker process; stdout is the same bytes either way
    monkeypatch.setattr(verify, "ALL_CHECKS", [verify.criterion_df, verify.criterion_bilinear])
    runs = {}
    for jobs in ("1", "2"):
        assert main(["verify-all", "--quick", "--jobs", jobs]) == 0
        runs[jobs] = capsys.readouterr()
    assert runs["1"].out == runs["2"].out
    assert runs["1"].out.startswith("check,passed,details\n")
    assert "[time]" not in runs["1"].out and "cpu" not in runs["1"].out
    for jobs in ("1", "2"):
        lines = runs[jobs].err.splitlines()
        assert len(lines) == 4
        for line in lines[:2]:
            assert re.fullmatch(r"\[time\] \w+: \d+\.\d\ds cpu \d+\.\d\ds", line)
        assert re.fullmatch(r"\[time\] total: \d+\.\d\ds cpu \d+\.\d\ds", lines[2])
        assert lines[3].startswith("[tables] ")


def _table_counts(err: str) -> dict[str, tuple[int, int]]:
    """Each kind's (builds, hits) from the stderr line after [time] total."""
    lines = err.splitlines()
    assert lines[-2].startswith("[time] total: ")
    head, _, body = lines[-1].partition(": ")
    assert head == "[tables] builds/hits, --jobs workers included"
    counts = {}
    for item in body.split(", "):
        kind, _, pair = item.partition(" ")
        builds, hits = pair.split("/")
        counts[kind] = (int(builds), int(hits))
    assert list(counts) == list(memo.COUNTS)
    return counts


@_TWO_CPUS
def test_table_counts_go_to_stderr_and_include_the_workers(tmp_path, capsys):
    assert main(["hyperkl3", "--q", "4999"]) == 0
    first = capsys.readouterr()
    assert "[tables]" not in first.out
    before = _table_counts(first.err)
    assert main(["hyperkl3", "--q", "4999"]) == 0
    again = capsys.readouterr()
    assert again.out == first.out
    after = _table_counts(again.err)
    kl3 = "expsums.hyper_kl3_table"
    assert after[kl3] == (before[kl3][0], before[kl3][1] + 1)
    # at --jobs 2 each modulus is built in a forked worker, which hands its
    # counts back with its rows
    hyper_kl3_table.cache_clear()
    assert main(["hyperkl3", "--q", "5,7", "--jobs", "2", "--out", str(tmp_path / "o")]) == 0
    workers = _table_counts(capsys.readouterr().err)
    assert workers[kl3] == (2, 0)
    assert hyper_kl3_table.cache_info()[:2] == (0, 2)  # (hits, misses)


@_TWO_CPUS
def test_pmap_runs_in_at_most_jobs_worker_processes():
    items = list(range(8))
    assert pmap(lambda i: (i * i, os.getpid()), items, 1) == [(i * i, os.getpid()) for i in items]
    got = pmap(lambda i: (i * i, os.getpid()), items, 2)  # a closure: never pickled
    assert [v for v, _ in got] == [i * i for i in items]
    pids = {pid for _, pid in got}
    assert 1 <= len(pids) <= 2 and os.getpid() not in pids


@_TWO_CPUS
def test_pmap_hands_a_free_worker_the_next_item():
    # item 0 holds one worker, so the other takes every later item
    def slow_first(i):
        if i == 0:
            time.sleep(0.3)
        return i, os.getpid()

    got = pmap(slow_first, list(range(8)), 2)
    assert [i for i, _ in got] == list(range(8))
    pids = [pid for _, pid in got]
    assert len(set(pids[1:])) == 1 and pids[0] != pids[1]


@_TWO_CPUS
def test_pmap_raises_the_exception_of_the_earliest_failing_item(monkeypatch, capsys):
    def fail(i):
        if i == 1:
            time.sleep(0.2)  # item 3 fails first
        if i in (1, 3):
            raise ValueError(f"bad item {i}")
        return i

    with pytest.raises(ValueError, match=r"^bad item 1$"):
        pmap(fail, list(range(6)), 2)

    def mismatch(q):
        if q == 5:
            time.sleep(0.2)
        raise AssertionError(f"split mismatch at q={q}")

    monkeypatch.setattr(cli, "kloosterman_split_row", mismatch)
    assert main(["kloosterman", "--q", "5,7,11", "--jobs", "2"]) == 1
    assert capsys.readouterr() == ("", "check failed: AssertionError: split mismatch at q=5\n")


@_TWO_CPUS
def test_pmap_stops_every_worker_when_one_dies():
    def die_or_wait(i):
        if i == 0:
            os._exit(3)
        time.sleep(30)

    t0 = time.perf_counter()
    with pytest.raises(BrokenExecutor, match="exited with code 3"):
        pmap(die_or_wait, [0, 1, 2], 2)
    assert time.perf_counter() - t0 < 10  # the sleeping worker was not waited for
    with pytest.raises(ChildProcessError):  # and no child is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


@_TWO_CPUS
def test_pmap_adds_the_memo_counts_of_each_worker_from_0():
    hyper_kl3_table.cache_clear()
    hyper_kl3_table(5)  # a build here; the workers inherit it and its count
    assert hyper_kl3_table.cache_info()[:2] == (0, 1)  # (hits, misses)
    pmap(lambda q: hyper_kl3_table(q)[1], [5, 7], 2)  # one worker hits, the other builds
    assert hyper_kl3_table.cache_info()[:2] == (1, 2)


@_TWO_CPUS
def test_pmap_takes_more_items_than_a_pipe_holds():
    items = list(range(20_000))  # 80 kB of 4-byte tasks, beyond a 64 KiB pipe buffer
    assert pmap(lambda i: -i, items, 2) == [-i for i in items]


@_TWO_CPUS
def test_the_cpu_of_the_workers_is_counted(tmp_path, capsys):
    hyper_kl3_table.cache_clear()  # else the workers inherit both tables and build none
    before = os.times()
    assert main(["hyperkl3", "--q", "4999,4993", "--jobs", "2", "--out", str(tmp_path / "o")]) == 0
    after = os.times()
    capsys.readouterr()
    # a child's CPU time is added to these when it is reaped, so pmap reaped
    # every worker before it returned; cli._cpu() reads them
    assert (after.children_user + after.children_system
            > before.children_user + before.children_system)


def test_voronoi_maps_one_item_per_X(monkeypatch, capsys):
    # a worker builds the moment grid and kernels of the X it is handed; no other does
    seen = []

    def spy(fn, items, jobs):
        seen.extend(items)
        return [("", 0) for _ in items]  # each X's piece of text and its count

    monkeypatch.setattr(cli, "pmap", spy)
    assert main(["voronoi", "--q", "1..4", "--X", "50,100", "--jobs", "2"]) == 0
    capsys.readouterr()
    assert seen == [50.0, 100.0]


def test_a_criterion_has_one_name_whether_it_passes_or_raises(monkeypatch):
    passing = verify.criterion_df(True)
    assert passing.passed and passing.name == "df_second_moment"

    def boom(*args):
        raise ArithmeticError("boom")

    monkeypatch.setattr(verify, "df_pairs", boom)
    monkeypatch.setattr(verify, "ALL_CHECKS", [verify.criterion_df])
    (failed,) = verify.run_checks(quick=True)
    assert (failed.name, failed.passed) == ("df_second_moment", False)
    assert failed.details == "raised ArithmeticError: boom"
    assert failed.elapsed >= 0 and failed.cpu >= 0


def test_a_nan_in_criterion_3s_split_row_fails_it(monkeypatch):
    # max() keeps its running value against a nan, and nan > tol is False
    real = verify.kloosterman_split_row

    def with_nan(q):
        row = real(q).copy()
        if q == 7:
            row[3] = math.nan
        return row

    monkeypatch.setattr(verify, "kloosterman_split_row", with_nan)
    res = verify.criterion_crt_split(True)
    assert not res.passed
    assert "worst split error nan*q" in res.details


def _one_nan_residual(scale_residuals):
    """scale_residuals with the residual of its first cell at q = 2 a nan."""

    def patched(qs, x):
        cells = scale_residuals(qs, x)
        i = next(i for i, (q, _, _) in enumerate(cells) if q == 2)
        q, a, rep = cells[i]
        cells[i] = (q, a, dataclasses.replace(rep, residual=math.nan))
        return cells

    return patched


def test_a_nan_in_one_criterion_9_cell_fails_it(monkeypatch):
    monkeypatch.setattr(verify, "scale_residuals", _one_nan_residual(verify.scale_residuals))
    res = verify.criterion_voronoi(True)
    assert not res.passed
    assert res.details.endswith("worst relative residual nan")


def test_voronoi_exits_1_on_a_nan_residual(monkeypatch, capsys):
    monkeypatch.setattr(cli, "scale_residuals", _one_nan_residual(cli.scale_residuals))
    assert main(["voronoi", "--q", "1..3", "--X", "50"]) == 1
    out, err = capsys.readouterr()
    assert ",nan,nan\n" in out  # the cell is still written, residual and relative
    assert "1 cells above tolerance 1e-06" in err


# each correlation scan and the family function whose rows it writes
_CAPPED_SCANS = {
    ("charsum-pp", "--p", "3", "--gamma-max", "2"): "charsum_pp",
    ("charsum-prime", "--p", "5"): "charsum_prime",
    ("df", "--p", "3", "--gamma-max", "2"): "df_pairs",
    ("calC", "--q", "2..6"): "calc_tuples",
    ("glue", "--q", "2..6"): "glue_tuples",
}


@pytest.mark.parametrize("ratio", [17.0, math.nan], ids=["17", "nan"])
@pytest.mark.parametrize("argv", list(_CAPPED_SCANS), ids=[a[0] for a in _CAPPED_SCANS])
def test_a_correlation_scan_writes_every_row_and_exits_1_above_the_ratio_cap(
        argv, ratio, monkeypatch, capsys):
    # README: scans assert ratio <= RATIO_CAP = 16, and a nan fails a check
    assert main(list(argv)) == 0
    want = capsys.readouterr().out.splitlines()
    real, patched = getattr(cli, _CAPPED_SCANS[argv]), []

    def one_row_over(*args):
        rows = real(*args)
        if not patched:
            rows[0]["ratio"] = ratio
            patched.append(written(rows[0])["ratio"])
        return rows

    monkeypatch.setattr(cli, _CAPPED_SCANS[argv], one_row_over)
    assert main(list(argv)) == 1
    out, err = capsys.readouterr()
    got = out.splitlines()
    ratio_col = got[0].split(",").index("ratio")
    assert got[0] == want[0] and got[2:] == want[2:]  # every row is still written
    assert got[1].split(",")[ratio_col] == patched[0] == fmt(ratio)
    assert err.splitlines()[0] == "1 rows with ratio above 16.0 or nan"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_charsum_pp_writes_every_row_and_exits_1_on_a_violated_vanishing(
        jobs, monkeypatch, capsys):
    argv = ["charsum-pp", "--p", "3", "--gamma-max", "3", "--jobs", jobs]
    assert main(argv) == 0
    want = capsys.readouterr().out
    real = cli.charsum_pp

    def one_unvanished(*args):  # the first row of the cell (3, 3, 1)
        rows = real(*args)
        if args[:3] == (3, 3, 1):
            rows[0]["predicted_vanishing"] = True
            rows[0]["vanished"] = False
        return rows

    monkeypatch.setattr(cli, "charsum_pp", one_unvanished)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    got, want = out.splitlines(), want.splitlines()
    i = 1 + 50  # the header, then the 50 rows of the cell (3, 2, 1)
    assert got[:i] == want[:i] and got[i + 1:] == want[i + 1:]  # every row is still written
    assert got[i].startswith("3,3,1,") and got[i].endswith(",1,0")
    assert got[i].rsplit(",", 2)[0] == want[i].rsplit(",", 2)[0]
    lines = err.splitlines()
    assert "ratio above" not in err and lines[0] == "1 rows predicted to vanish that did not"
    assert lines[1].startswith("[time] total: ")


@pytest.mark.parametrize("col, named", [
    ("weil", "(Weil at p=13, Deligne at p=47)"),
    ("deligne", "(Weil at p=47, Deligne at p=13)"),
])
def test_a_nan_in_one_criterion_4_row_fails_it_and_names_its_prime(monkeypatch, col, named):
    real = verify.weil_audit

    def with_nan(P):
        rows = real(P)
        next(r for r in rows if r["p"] == 13)[col] = math.nan
        return rows

    monkeypatch.setattr(verify, "weil_audit", with_nan)
    res = verify.criterion_weil_deligne(True)
    assert not res.passed
    assert res.details.endswith(f"worst bound fraction nan {named}")


def _one_trivial_bound_exceeded(monkeypatch):
    """bilinear.trivial_bound at half of |S| for the plain config at q = 49."""
    real = bilinear.trivial_bound

    def patched(cfg):
        if cfg.q == 49 and cfg.alpha is None:
            return abs(bilinear.bilinear_sum(cfg)) / 2
        return real(cfg)

    monkeypatch.setattr(bilinear, "trivial_bound", patched)


def test_bilinear_writes_every_row_and_exits_1_above_the_trivial_bound(monkeypatch, capsys):
    _one_trivial_bound_exceeded(monkeypatch)
    assert main(["bilinear", "--q", "27,49,121", "--N", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in out] == ["q", "27", "49", "121"]
    abs_s, trivial = (float(v) for v in out[2].split(",")[4:6])
    assert abs_s > trivial > 0


def test_criterion_11_fails_on_a_trivial_bound_violation(monkeypatch):
    _one_trivial_bound_exceeded(monkeypatch)
    res = verify.criterion_bilinear(True)
    assert not res.passed
    assert "; 1 trivial-bound violations;" in res.details


def _first_row(name, picks, change):
    """A perturbation: cli.<name>, with change made to the first row of the item picks takes."""
    def perturb(monkeypatch):
        real = getattr(cli, name)

        def patched(*args):
            rows = real(*args)
            if picks(*args):
                change(rows[0])
            return rows

        monkeypatch.setattr(cli, name, patched)
    return perturb


def _split_off_by_one_at_7_3(monkeypatch):
    real = cli.kloosterman_split_row
    monkeypatch.setattr(cli, "kloosterman_split_row",
                        lambda q: real(q) + (q == 7) * (np.arange(q) == 3))


def _nan_residual_at_60(monkeypatch):
    real = cli.scale_residuals
    monkeypatch.setattr(cli, "scale_residuals",
                        lambda qs, x: (_one_nan_residual(real) if x == 60 else real)(qs, x))


# each kind of scan check: argv, a perturbation that fails it on one row,
# the stdout line of that row, and the stderr line that counts it
_ONE_FAILING_ROW = {
    "kloosterman-split": (
        ["kloosterman", "--q", "5,7"], _split_off_by_one_at_7_3, 1 + 5 + 3,
        "1 rows with abs_diff above 1e-09*q or nan"),
    "charsum-prime-route": (
        ["charsum-prime", "--p", "5,7"],
        _first_row("charsum_prime", lambda p, n: p == 7, lambda r: r.update(route_diff=math.nan)),
        1 + 25, "1 rows with route_diff above 1e-06*p^2 or nan"),
    "charsum-pp-vanishing": (
        ["charsum-pp", "--p", "3", "--gamma-max", "3"],
        _first_row("charsum_pp", lambda *cell: cell[:3] == (3, 3, 1),
                   lambda r: r.update(predicted_vanishing=True, vanished=False)),
        1 + 50, "1 rows predicted to vanish that did not"),
    "bilinear-trivial": (
        ["bilinear", "--q", "27,49,121", "--N", "2"], _one_trivial_bound_exceeded, 2,
        "1 rows with abs_S above the trivial bound"),
    "voronoi-tol": (
        ["voronoi", "--q", "1,2", "--X", "50,60"], _nan_residual_at_60, 4,
        "1 cells above tolerance 1e-06"),
    "ratio-cap": (
        ["calC", "--q", "2..6"],
        _first_row("calc_tuples", lambda q, rng: q == 5, lambda r: r.update(ratio=17.0)),
        7, "1 rows with ratio above 16.0 or nan"),
}


@pytest.mark.parametrize("kind", list(_ONE_FAILING_ROW))
def test_a_scan_writes_every_row_then_counts_each_failed_check(kind, monkeypatch, capsys):
    argv, perturb, line, label = _ONE_FAILING_ROW[kind]
    assert main(argv) == 0
    want = capsys.readouterr().out.splitlines()
    perturb(monkeypatch)
    runs = {}
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == 1
        runs[jobs] = capsys.readouterr()
        got, err = runs[jobs].out.splitlines(), runs[jobs].err.splitlines()
        assert len(got) == len(want)  # every row is written
        assert [i for i, (g, w) in enumerate(zip(got, want)) if g != w] == [line]
        assert err[0] == label
        assert [e for e in err if not e.startswith("[")] == [label]
    assert runs["1"].out == runs["2"].out
    assert runs["1"].err.splitlines()[0] == runs["2"].err.splitlines()[0]


def _in_cli_and_verify(monkeypatch, name, moved):
    for module in (cli, verify):
        monkeypatch.setattr(module, name, moved)


def _split_at(factor, monkeypatch):
    """The CRT split of S(1, 3; 7) moved by factor times its limit."""
    real = verify.kloosterman_split_row
    _in_cli_and_verify(monkeypatch, "kloosterman_split_row", lambda q: real(q) + (
        (q == 7) * factor * verify.SPLIT_TOL * q * (np.arange(q) == 3)))


def _route_at(factor, monkeypatch):
    """The first c_{1,1} route difference mod 7 at factor times its limit."""
    real = verify.charsum_prime

    def moved(p, n):
        rows = real(p, n)
        if p == 7:
            rows[0]["route_diff"] = factor * verify.ROUTE_TOL * p * p
        return rows

    _in_cli_and_verify(monkeypatch, "charsum_prime", moved)


def _residual_at(factor, monkeypatch):
    """The relative residual of the first cell at q = 2 at factor times its limit."""
    real = verify.scale_residuals

    def moved(qs, x):
        cells = real(qs, x)
        i = next(i for i, (q, _, _) in enumerate(cells) if q == 2)
        q, a, rep = cells[i]
        residual = factor * verify.VORONOI_TOL * abs(rep.lhs)
        cells[i] = (q, a, dataclasses.replace(rep, residual=residual))
        return cells

    _in_cli_and_verify(monkeypatch, "scale_residuals", moved)
    # each X's moment grid is built once in the test, not once per run
    monkeypatch.setattr(voronoi, "_grid", functools.lru_cache(voronoi._grid))


def _splitting_at(factor, monkeypatch):
    """The Ramanujan terms of the class 1 mod 3 off their sum by factor times the limit."""
    real = distribution.ramanujan_decomposition

    def moved(X, q):
        dec = real(X, q)
        if q != 3:
            return dec
        (d, s), *rest = dec.terms
        s = s + factor * distribution.RAMANUJAN_TOL * (np.arange(len(s)) == 0)
        return dataclasses.replace(dec, terms=((d, s), *rest))

    monkeypatch.setattr(distribution, "ramanujan_decomposition", moved)


# each limit that a scan shares with its criterion: the scan's argv, the
# criterion, a perturbation that puts one value at a factor times the limit,
# and the stderr line of the scan above the limit, as a regular expression
_AT_THE_LIMIT = {
    "split": (["kloosterman", "--q", "5,7"], verify.criterion_crt_split, _split_at,
              re.escape("1 rows with abs_diff above 1e-09*q or nan")),
    "route": (["charsum-prime", "--p", "5,7"], verify.criterion_charsum_prime, _route_at,
              re.escape("1 rows with route_diff above 1e-06*p^2 or nan")),
    "residual": (["voronoi", "--q", "1,2", "--X", "50,60"], verify.criterion_voronoi,
                 _residual_at, re.escape("2 cells above tolerance 1e-06")),
    "splitting": (["distribution", "--q", "3,4", "--X", "1000,2000"],
                  verify.criterion_distribution, _splitting_at,
                  r"check failed: AssertionError: Ramanujan splitting defect "
                  r"[0-9.e-]+ at q=3, a=1"),
}


@pytest.mark.parametrize("factor", [2.0, 0.5], ids=["above", "below"])
@pytest.mark.parametrize("kind", list(_AT_THE_LIMIT))
def test_a_scan_and_its_criterion_agree_at_its_limit(kind, factor, monkeypatch, capsys):
    # twice the limit fails both, half of it passes both: one limit, read by each
    argv, criterion, at, label = _AT_THE_LIMIT[kind]
    at(factor, monkeypatch)
    above = factor > 1
    assert criterion(True).passed is not above
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == int(above)
        err = [e for e in capsys.readouterr().err.splitlines() if not e.startswith("[")]
        assert len(err) == int(above) and all(re.fullmatch(label, e) for e in err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to fill")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_out_that_fails_at_write_time_exits_2(jobs, capsys):
    assert main(["hyperkl3", "--q", "9,10", "--jobs", jobs, "--out", "/dev/full"]) == 2
    assert capsys.readouterr() == (
        "", "error: cannot write --out /dev/full: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to fill")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_stdout_that_fails_at_write_time_exits_2(unbuffered):
    # the rule of an --out that fails: one error line and exit 2, no traceback.
    # Block-buffered, the bytes that the failed flush kept are flushed again
    # at interpreter exit, which must not fail too (it would exit 120)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "expsum.cli", "hyperkl3", "--q", "9"],
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
                              env=env)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


def test_distribution_and_bilinear_bytes_are_jobs_independent(capsys):
    # distribution maps its X values, so at --jobs 2 each X runs in a worker;
    # bilinear's configs are one item, which runs in the CLI's own process
    dist = ["distribution", "--q", "3..40", "--X", "10000,200000"]
    for argv in (dist, dist + ["--format", "json"], ["bilinear", "--q", "27,49,121", "--N", "2,3"]):
        outs = []
        for jobs in ("1", "2"):
            assert main(argv + ["--jobs", jobs]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] != ""
        if argv == dist:
            assert hashlib.sha256(outs[0].encode()).hexdigest() == (
                "a993f28fd8a2f74b3089c6b16c84f37ed8155f7a3ad5ae40db75ce8ea7d5b8f5")


def test_a_check_raising_in_a_worker_fails_as_at_jobs_1(monkeypatch, capsys):
    def boom(q):
        raise AssertionError(f"split mismatch at q={q}")

    monkeypatch.setattr(cli, "kloosterman_split_row", boom)
    errs = {}
    for jobs in ("1", "2"):
        assert main(["kloosterman", "--q", "5,7", "--jobs", jobs]) == 1
        out, errs[jobs] = capsys.readouterr()
        assert out == ""
    assert errs["1"] == errs["2"] == "check failed: AssertionError: split mismatch at q=5\n"


@_TWO_CPUS
def test_a_worker_that_dies_gives_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "kloosterman_split_row", lambda q: os._exit(3))
    assert main(["kloosterman", "--q", "5,7", "--jobs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("worker failed: ")
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_module_invocation_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "expsum.cli", "kloosterman", "--q", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("q,m,value")
