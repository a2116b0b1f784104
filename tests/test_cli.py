"""CLI: parsing, validation, output formats, reproducibility."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expsum import cli, distribution, verify, voronoi
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
from expsum.families import pmap, units

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
                                "u_max": "2", "quick": True}))
    keys = {"q", "X", "jobs", "tol", "u_max", "quick"}
    assert load_config(str(path), keys) == [
        "--q=3..5", "--X=50,100.5", "--jobs=2", "--u-max=2", "--quick"]
    path.write_text(json.dumps({"q": [-3], "quick": False}))
    assert load_config(str(path), keys) == ["--q=-3"]


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


@pytest.mark.parametrize("config,env,error", [
    ({"jobs": "x"}, None, "argument --jobs: invalid int value: 'x'"),
    ({"tol": "abc"}, None, "argument --tol: invalid float value: 'abc'"),
    ({"q": [3, "a"]}, None, "argument --q: bad integer 'a'"),
    ({"quick": "false"}, None, "config quick must be true or false"),
    ({"jobs": 2.7}, None, "argument --jobs: invalid int value: '2.7'"),
    ({"q": [1.5]}, None, "argument --q: bad integer '1.5'"),
    (None, "x", "argument --jobs: invalid int value: 'x'"),
], ids=["jobs-x", "tol-abc", "q-3-a", "quick-false", "jobs-2.7", "q-1.5", "EXPSUM_JOBS-x"])
def test_bad_config_values_and_EXPSUM_JOBS_exit_2(config, env, error, tmp_path, monkeypatch,
                                                   capsys):
    # each value goes through the flag's converter, so a bad one is a usage error
    seen = _spy_run_checks(monkeypatch)
    argv = ["verify-all"]
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
    capsys.readouterr()


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
                                       (["--X", "10"], 1_500_400)])
def test_voronoi_refuses_cells_that_cannot_converge(argv, need, capsys):
    # (13, 2), (16, 4) and (20, 10) would build kernels for 1.6-18 s and
    # then fail with CutoffTooSmall; the bound c(X) q^2/X is over the cap, so
    # they are refused before any kernel is built; the default q range ends at 20
    voronoi._STORE.clear()
    assert main(["voronoi"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"at least {need} terms, above the cap 1500000" in err
    assert voronoi._STORE.kernel_builds == 0


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
    assert len(calls) == 4  # one per coprime (q, a): a = 1, 2 mod 3 and 1, 3 mod 4
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
    assert re.fullmatch(r"\[time\] total: \d+\.\d\ds cpu \d+\.\d\ds\n", captured.err)
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
        assert len(lines) == 3
        for line in lines[:2]:
            assert re.fullmatch(r"\[time\] \w+: \d+\.\d\ds cpu \d+\.\d\ds", line)
        assert re.fullmatch(r"\[time\] total: \d+\.\d\ds cpu \d+\.\d\ds", lines[2])


# with one CPU pmap runs everything in the caller, where os._exit would end pytest
_TWO_CPUS = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="pmap needs 2 CPUs to fork")


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
    assert seen == [[(q, a, x) for q in range(1, 5) for a in units(q)] for x in (50.0, 100.0)]


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
