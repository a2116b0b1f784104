"""CLI: parsing, validation, output formats, reproducibility."""

import argparse
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expsum import cli, distribution, memo, verify, voronoi
from expsum.cli import (
    CAPS,
    ParseError,
    ValidationError,
    build_parser,
    load_config,
    main,
    parse_int_list,
    validate,
)
from expsum.expsums import hyper_kl3_table
from expsum.families import pmap
from expsum.modarith import units

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


def test_load_config_accepts_known_keys(tmp_path):
    # a config stands for flags: lists joined by commas, null absent, quick a boolean
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"q": "3..5", "X": [50, 100.5], "jobs": 2, "tol": None,
                                "u_max": "2", "quick": True, "self_test": True}))
    keys = {"q", "X", "jobs", "tol", "u_max", "quick", "self_test"}
    switches = {"quick", "self_test"}
    assert load_config(str(path), keys, switches) == [
        "--q=3..5", "--X=50,100.5", "--jobs=2", "--u-max=2", "--quick", "--self-test"]
    path.write_text(json.dumps({"q": [-3], "quick": False, "self_test": False}))
    assert load_config(str(path), keys, switches) == ["--q=-3"]


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"qq": 3}))
    with pytest.raises(ValidationError, match="'qq'"):
        load_config(str(path), {"q"})


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("not json")
    with pytest.raises(ParseError):
        load_config(str(path), {"q"})
    with pytest.raises(ParseError):
        load_config(str(tmp_path / "missing.json"), {"q"})
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ParseError):
        load_config(str(path), {"q"})


def _spy_run_checks(monkeypatch) -> list:
    """Record (quick, jobs) of each verify-all run, which then runs no check."""
    seen = []
    monkeypatch.setattr(cli, "run_checks", lambda quick, jobs: seen.append((quick, jobs)) or [])
    return seen


@pytest.mark.parametrize("sub,config,env,error", [
    ("verify-all", {"jobs": "x"}, None, "argument --jobs: invalid int value: 'x'"),
    ("distribution", {"tol": "abc"}, None, "argument --tol: invalid float value: 'abc'"),
    ("hyperkl3", {"q": [3, "a"]}, None, "argument --q: bad integer 'a'"),
    ("verify-all", {"quick": "false"}, None, "config quick must be true or false"),
    ("verify-all", {"jobs": 2.7}, None, "argument --jobs: invalid int value: '2.7'"),
    ("hyperkl3", {"q": [1.5]}, None, "argument --q: bad integer '1.5'"),
    ("verify-all", None, "x", "argument --jobs: invalid int value: 'x'"),
    ("distribution", {"tol": math.nan}, None, "tolerance nan is not a finite number >= 1e-12"),
    ("distribution", {"tol": math.inf}, None, "tolerance inf is not a finite number >= 1e-12"),
], ids=["jobs-x", "tol-abc", "q-3-a", "quick-false", "jobs-2.7", "q-1.5", "EXPSUM_JOBS-x",
        "tol-nan", "tol-inf"])
def test_bad_config_values_and_EXPSUM_JOBS_exit_2(sub, config, env, error, tmp_path,
                                                   monkeypatch, capsys):
    # each value goes through the flag's converter, so a bad one is a usage
    # error; a key is given to a subcommand that reads its option
    seen = _spy_run_checks(monkeypatch)
    argv = [sub]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    if env is None:
        monkeypatch.delenv("EXPSUM_JOBS", raising=False)
    else:
        monkeypatch.setenv("EXPSUM_JOBS", env)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and seen == []
    assert error in err.splitlines()[-1]


def test_config_quick_is_a_boolean_and_flags_override_the_file(tmp_path, monkeypatch, capsys):
    seen = _spy_run_checks(monkeypatch)
    monkeypatch.setenv("EXPSUM_JOBS", "2")
    path = tmp_path / "cfg.json"
    for config, argv in [({"quick": True}, []),
                         ({"quick": False, "jobs": 1}, []),
                         ({"jobs": 1}, ["--jobs", "2", "--quick"]),
                         ({"jobs": None, "quick": None}, [])]:  # null counts as absent
        path.write_text(json.dumps(config))
        assert main(["verify-all", "--config", str(path), *argv]) == 0
    assert seen == [(True, 2), (False, 1), (True, 2), (False, 2)]
    capsys.readouterr()
    # --quick is a verify-all flag; in any other subcommand's config it is unknown
    path.write_text(json.dumps({"quick": True}))
    assert main(["hyperkl3", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unknown config key 'quick'" in err


@pytest.mark.parametrize("self_test", [True, False])
def test_config_self_test_is_a_boolean(self_test, tmp_path, monkeypatch, capsys):
    # self_test is a store_true flag, as quick is: true stands for --self-test
    seen = _spy_run_checks(monkeypatch)
    ran = []
    monkeypatch.setattr(cli, "criterion_determinism", lambda: ran.append(1) or verify.CheckResult(
        "verify_all_determinism", True, "stub", 0.0, 0.0))
    monkeypatch.delenv("EXPSUM_JOBS", raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"self_test": self_test}))
    assert main(["verify-all", "--config", str(path)]) == 0
    assert seen == [(False, 1)] and len(ran) == self_test
    out = capsys.readouterr().out
    assert ("verify_all_determinism" in out) == self_test
    path.write_text(json.dumps({"self_test": "true"}))
    assert main(["verify-all", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "config self_test must be true or false" in err


@pytest.mark.parametrize("config,argv", [
    ({"q": "3..5"}, ["hyperkl3", "--q", "3..5"]),
    ({"q": [3], "X": [1000, 2000]}, ["distribution", "--q", "3", "--X", "1000,2000"]),
    ({"p": 3, "u_max": "2", "gamma_max": 4}, ["charsum-pp", "--p", "3", "--u-max", "2",
                                              "--gamma-max", "4"]),
])
def test_config_values_mean_what_the_flags_mean(config, argv, tmp_path, capsys):
    assert main(argv) == 0
    want = capsys.readouterr().out
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([argv[0], "--config", str(path)]) == 0
    assert capsys.readouterr().out == want


def test_exit_code_2_on_bad_usage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    assert main(["hyperkl3", "--config", str(bad)]) == 2
    assert "unknown config key 'nope'" in capsys.readouterr().err
    assert main(["hyperkl3", "--q", "5..3"]) == 2
    assert "argument --q: reversed range '5..3'" in capsys.readouterr().err
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


@pytest.mark.parametrize("argv", [["kloosterman", "--q", "6", "--tol", "nan"],
                                  ["voronoi", "--q", "3", "--X", "50", "--tol", "nan"],
                                  ["charsum-prime", "--p", "5", "--tol", "inf"],
                                  ["distribution", "--q", "3", "--tol", "1e-13"]])
def test_a_tolerance_that_is_not_a_finite_number_from_1e_12_exits_2(argv, capsys):
    # no residual is above a nan or inf tolerance, so either would turn the
    # check off; both are refused before any work, as a tiny one is
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: tolerance {float(argv[-1])} is not a finite number >= 1e-12" in err


@pytest.mark.parametrize("argv", [["voronoi", "--q", "1", "--X", ","],
                                  ["distribution", "--q", "3", "--X", " , "]])
def test_an_empty_X_list_exits_2(argv, tmp_path, capsys):
    # as an empty q list does; it used to print the CSV header alone and exit 0
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --X: empty list expression" in err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"X": []}))
    assert main([argv[0], "--config", str(path)]) == 2
    assert "argument --X: empty list expression ''" in capsys.readouterr().err


@pytest.mark.parametrize("argv,unknown", [
    (["voronoi", "--q", "3", "--X", "50", "--t", "1e-3"], "--t 1e-3"),  # not --tol
    (["verify-all", "--quick", "--q", "3"], "--q 3"),  # not --quick
    (["kloosterman", "--q", "5", "--to", "1e-3"], "--to 1e-3"),
])
def test_a_prefix_of_a_flag_is_not_that_flag(argv, unknown, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {unknown}\n" in err


_UNDECLARED = [(name, key) for name, (_, options) in cli.COMMANDS.items()
               for key in cli.OPTIONS if key not in options]


@pytest.mark.parametrize("name,key", _UNDECLARED, ids=[f"{n}-{k}" for n, k in _UNDECLARED])
def test_a_subcommand_refuses_the_flags_it_does_not_read(name, key, capsys):
    flag = f"--{key.replace('_', '-')}"
    switch = cli.OPTIONS[key].get("action") == "store_true"
    assert main([name, flag] if switch else [name, flag, "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


def test_the_parser_takes_only_each_subcommands_own_options():
    # 4 shared options (--config, --out, --format, --jobs) on each of 11
    # subcommands, and 23 of their own
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    values = {name: [a.dest for a in sp._actions if not isinstance(a, argparse._HelpAction)]
              for name, sp in sub.choices.items()}
    assert sum(map(len, values.values())) == 67
    for name, (_, options) in cli.COMMANDS.items():
        assert sorted(values[name]) == sorted(["config", "out", "format", "jobs", *options])


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
    # so they are refused before any kernel is built; the default q range ends
    # at 20 and the default X is 50, both checked as given ones are
    builds = []
    monkeypatch.setattr(voronoi, "_build_kernels", lambda q, X: builds.append((q, X)))
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
# subcommand (bilinear also as JSON); any byte that moves fails here.
SCAN_GOLDENS = [
    (["kloosterman", "--q", "12,25"],
     "43cc3b40f8d7696026c2c20ecb840448be16d6e95365af7c5a9e5c747093f58b"),
    (["hyperkl3", "--q", "9,10"],
     "79b9e9ca0db0992d07bfd09cedc2ff381ba10085e258e8b810e74014510c0e04"),
    (["charsum-pp", "--p", "3", "--gamma-max", "3"],
     "b62279c2244a03f64895b71227ad6cc7e3712e30f696a22116c317af96271951"),
    (["charsum-prime", "--p", "5,7"],
     "41a6adb361610e29508c9fb9bec328ea7a13c675d2d2f8a0f5e1bb99b5ffe2fb"),
    (["df", "--p", "3,5", "--gamma-max", "2"],
     "6f91a7ec91e5a5f68b1a805d5aeb0625b8ea68f9d742a95c454769e58e50e025"),
    (["calC", "--q", "2..12"],
     "129991de64cd650f4ea15a7a283b4b9c64064a521a351af77df1c55bdb9e7b22"),
    (["glue", "--q", "2..15"],
     "fe5a74fe337bc9c5a6b06519791faf212d5057e784164e53c16afbe471e838c6"),
    (["voronoi", "--q", "3,4", "--X", "50"],
     "04bffa4a9c1196d1830e9d2a4e679033064e47330f3c2b2517e399ae50fb153f"),
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


def test_distribution_tol_keeps_the_ramanujan_check(monkeypatch, capsys):
    calls = []
    real = distribution.ramanujan_decomposition

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(distribution, "ramanujan_decomposition", spy)
    argv = ["distribution", "--q", "3,4", "--X", "1000"]
    assert main(argv + ["--tol", "1e-3"]) == 0
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


# with one CPU pmap runs everything in the caller, where os._exit would end pytest
_TWO_CPUS = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="pmap needs 2 CPUs to fork")


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


def test_voronoi_maps_one_item_per_X(monkeypatch, capsys):
    # a worker builds the moment grid and kernels of the X it is handed; no other does
    seen = []

    def spy(fn, items, jobs):
        seen.extend(items)
        return [[] for _ in items]

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


def test_a_check_raising_in_a_worker_fails_as_at_jobs_1(monkeypatch, capsys):
    def boom(q):
        raise AssertionError(f"split mismatch at q={q}")

    monkeypatch.setattr(cli, "split_vs_table", boom)
    errs = {}
    for jobs in ("1", "2"):
        assert main(["kloosterman", "--q", "5,7", "--jobs", jobs]) == 1
        out, errs[jobs] = capsys.readouterr()
        assert out == ""
    assert errs["1"] == errs["2"] == "check failed: AssertionError: split mismatch at q=5\n"


@_TWO_CPUS
def test_a_worker_that_dies_gives_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "split_vs_table", lambda q: os._exit(3))
    assert main(["kloosterman", "--q", "5,7", "--jobs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("worker failed: ")


def test_module_invocation_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "expsum.cli", "kloosterman", "--q", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("q,m,value")
