import ast
import csv
import hashlib
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from gerryopt import benchmarks as B
from gerryopt import cli
from gerryopt import estimation as E
from gerryopt import verify as V
from gerryopt.model import GerryOptError, uniform_instance


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_writes_outputs(tmp_path, capsys):
    code, out, err = run(
        capsys, "solve", "--gamma", "2", "--grid", "41", "--out", str(tmp_path)
    )
    assert code == 0, err
    for name in ("plan.json", "assignment.csv", "dual.csv", "summary.json"):
        assert (tmp_path / name).exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["gamma"] == 2.0
    assert 0.5 <= summary["objective"] <= 1.0
    assert summary["duality_gap"] < 1e-7
    assert summary["solver"]["stage1_method"] == "structured-ipm"
    assert summary["solver"]["stage1_fallback"] is None
    assert summary["solver"]["stage1_complementarity"] < 1e-14
    assert summary["solver"]["face_cells"] >= 41
    # stdout carries the same summary
    assert json.loads(out.strip())["objective"] == summary["objective"]


def test_solve_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "solve", "--gamma", "2", "--grid", "41", "--out", str(a))[0] == 0
    assert run(capsys, "solve", "--gamma", "2", "--grid", "41", "--out", str(b))[0] == 0
    for name in ("plan.json", "assignment.csv", "dual.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_dual_csv_flags_the_pinned_multipliers(tmp_path, capsys, solve_cached):
    # lambda(r) is pinned iff its interval [L, U] of optimal multipliers,
    # with check_dual_support_optimality's formulas, has width <= DUAL_TOL
    assert run(capsys, "solve", "--gamma", "2", "--out", str(tmp_path))[0] == 0
    with open(tmp_path / "dual.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    flags = {kind: [int(r["pinned"]) for r in rows if r["kind"] == kind] for kind in ("phi", "lambda")}
    assert len(flags["phi"]) == len(flags["lambda"]) == 201
    assert set(flags["phi"]) == {1}

    inst, sol = solve_cached(2.0)
    a, cert = sol.assignment, sol.certificate
    dv = a.vote - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (cert.phi[:, None] - np.asarray(inst.G(a.type_grid))[None, :]) / dv
    lower = np.where(dv < 0, bound, -np.inf).max(axis=0)
    upper = np.where(dv > 0, bound, np.inf).min(axis=0)
    assert flags["lambda"] == (upper - lower <= V.DUAL_TOL).astype(int).tolist()
    assert sum(flags["lambda"]) == 27


def test_solve_config_errors(tmp_path, capsys):
    code, _out, err = run(capsys, "solve", "--gamma", "-1", "--out", str(tmp_path))
    assert code == 2
    assert json.loads(err.strip())["error"] == "config"
    code, _out, err = run(
        capsys, "solve", "--gamma", "2", "--grid", "40", "--out", str(tmp_path)
    )
    assert code == 2
    code, _out, _err = run(capsys, "solve", "--gamma", "2", "--taste", "cauchy")
    assert code == 2


def test_schema_flag(capsys):
    code, out, _ = run(capsys, "solve", "--schema")
    assert code == 0
    schema = json.loads(out)
    assert "summary.json" in schema


def test_sweep_serial_and_parallel_match(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["sweep", "--gammas", "0.5,2,6", "--grid", "41"]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b), "--jobs", "2")[0] == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    with open(a / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["gamma"]) for r in rows] == [0.5, 2.0, 6.0]
    objs = [float(r["objective"]) for r in rows]
    assert objs == sorted(objs)


def test_benchmark_command(tmp_path, capsys):
    code, out, err = run(
        capsys, "benchmark", "--gamma", "6", "--grid", "101", "--out", str(tmp_path)
    )
    assert code == 0, err
    data = json.loads((tmp_path / "benchmarks.json").read_text())
    assert data["gamma"] == 6.0
    assert 0.0 <= data["no_aggregate"]["value"] <= 1.0


def test_benchmark_no_winning_district(tmp_path, capsys):
    # at r0 = 1.5 no type votes for the designer: nothing can be won
    code, _out, err = run(
        capsys, "benchmark", "--gamma", "2", "--grid", "51", "--r0", "1.5", "--out", str(tmp_path)
    )
    assert code == 0, err
    no_aggregate = json.loads((tmp_path / "benchmarks.json").read_text())["no_aggregate"]
    assert (no_aggregate["cutoff"], no_aggregate["pool_mean"], no_aggregate["value"]) == (None, None, 0.0)
    assert [len(d["support"]) for d in no_aggregate["plan"]] == [1] * 51


def test_benchmark_non_finite_r0_exit_2(tmp_path, capsys):
    code, _out, err = run(capsys, "benchmark", "--gamma", "2", "--grid", "51", "--r0", "nan", "--out", str(tmp_path))
    assert code == 2
    error = json.loads(err.strip())
    assert error["error"] == "config" and "r0" in error["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag,r0", [(["--r0=-1e-3"], -1e-3), (["--r0", "-0.5"], -0.5)])
def test_benchmark_negative_r0(tmp_path, capsys, flag, r0):
    # argparse reads "-0.5" as a value but "-1e-3" as an option; "--r0=" takes either
    code, _out, err = run(capsys, "benchmark", "--gamma", "2", "--grid", "11", *flag, "--out", str(tmp_path))
    assert code == 0, err
    expected = B.no_aggregate_solution(uniform_instance(n=11, gamma=2.0), r0)
    assert json.loads((tmp_path / "benchmarks.json").read_text())["no_aggregate"]["value"] == expected.value


@pytest.mark.parametrize("command", ["solve", "benchmark"])
@pytest.mark.parametrize("gamma", ["inf", "nan"])
def test_non_finite_gamma_exit_2(tmp_path, capsys, command, gamma):
    code, _out, err = run(capsys, command, "--gamma", gamma, "--grid", "11", "--out", str(tmp_path))
    assert code == 2
    error = json.loads(err.strip())
    assert error["error"] == "config" and "gamma" in error["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("grid", ["40", "1"])
def test_sweep_bad_grid_exit_2(tmp_path, capsys, grid):
    code, _out, err = run(capsys, "sweep", "--gammas", "2", "--grid", grid, "--out", str(tmp_path))
    assert code == 2
    assert json.loads(err.strip())["error"] == "config"
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_non_numeric_gamma_exit_2(tmp_path, capsys):
    code, _out, err = run(capsys, "sweep", "--gammas", "2,abc", "--grid", "11", "--out", str(tmp_path))
    assert code == 2
    error = json.loads(err.strip())
    assert error["error"] == "config" and "'abc'" in error["message"]
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_bad_jobs_exit_2(tmp_path, capsys, jobs):
    code, _out, err = run(capsys, "sweep", "--gammas", "2", "--grid", "11", "--jobs", jobs, "--out", str(tmp_path))
    assert code == 2
    error = json.loads(err.strip())
    assert error["error"] == "config" and "jobs" in error["message"]
    assert not (tmp_path / "sweep.csv").exists()


def test_simulate_nan_gamma_exit_2(tmp_path, capsys):
    # 1 / 1e-310 overflows to inf, and a shock past about 7 prints every share
    # of its year as 0 or 1, which estimate drops: at seed 3, 1e-300 would
    # empty all three years and 0.1 two of them
    for gamma in ("nan", "inf", "1e-310", "1e-300", "0.1"):
        argv = ["simulate", "--gamma", gamma, "--elections", "3", "--precincts", "50", "--seed", "3"]
        code, _out, err = run(capsys, *argv, "--out", str(tmp_path / gamma))
        assert code == 2
        error = json.loads(err.strip())
        assert error["error"] == "config" and "gamma" in error["message"]
        assert not (tmp_path / gamma / "returns.csv").exists()
    assert error["message"] == "gamma 0.1 is too small: every share of 2016 prints as 0 or 1"


def test_simulate_negative_seed_exit_2(tmp_path, capsys):
    code, _out, err = run(capsys, "simulate", "--seed", "-1", "--out", str(tmp_path))
    assert code == 2
    error = json.loads(err.strip())
    assert error["error"] == "config" and "seed" in error["message"]
    assert not (tmp_path / "returns.csv").exists()


# `benchmark --gamma 2` (n=201) and the plan of `solve --gamma 2 --grid 41`,
# pinned at the per-district root finder.  Values read off district thresholds
# are compared to 1e-12; everything else, cutoffs included, exactly.
BENCHMARK_GAMMA2 = {
    "gamma": 2.0,
    "perfect_info": 1.0,
    "no_idiosyncratic": 0.8056265783055411,
    "pop_pool": {"cutoff": -0.51, "value": 0.5377390974981663},
    "traditional_pc": {"cutoff": -0.55, "value": 0.5361228008052256},
    "matching_slices": 0.49999999999999906,
}
BENCHMARK_GAMMA2_NO_AGGREGATE_SHA256 = "3663ce58ff855529fd339a5d76a370477de539ecd90a558a0c1df675d054abed"
SOLVE_GRID41_PLAN_SHA256 = "712d4ce3cef0c2e204cd44518c846d09a91a9bd7ef9541a2911b3fc621bb2fec"
# `sweep --grid 101` over the figure's nine gamma and `solve --gamma 2 --grid 101`.
# summary.json and dual.csv stay unpinned: their stage-1 digits depend on the BLAS build.
SWEEP_GRID101_SHA256 = "640de3f025bd5597646bc040d492cba780021f09e7cb9d27d5fa938cb29e7979"
SOLVE_GRID101_SHA256 = {
    "plan.json": "f70225de0476bb17465cd00981781b3fa94d0243defd3b27751bbe8f0644f085",
    "assignment.csv": "79c2b5779463fd458fe4ef47bd64678d8aaac5e93c8bd9798a724153504989a2",
}


def test_benchmark_and_plan_outputs_pinned(tmp_path, capsys):
    code, _out, err = run(capsys, "benchmark", "--gamma", "2", "--out", str(tmp_path / "b"))
    assert code == 0, err
    data = json.loads((tmp_path / "b" / "benchmarks.json").read_text())
    assert sorted(data) == sorted([*BENCHMARK_GAMMA2, "no_aggregate"])
    no_aggregate = json.dumps(data["no_aggregate"], sort_keys=True).encode()
    assert hashlib.sha256(no_aggregate).hexdigest() == BENCHMARK_GAMMA2_NO_AGGREGATE_SHA256
    for key in ("gamma", "perfect_info", "no_idiosyncratic"):
        assert data[key] == BENCHMARK_GAMMA2[key]
    for key in ("pop_pool", "traditional_pc"):
        assert data[key]["cutoff"] == BENCHMARK_GAMMA2[key]["cutoff"]
        assert data[key]["value"] == pytest.approx(BENCHMARK_GAMMA2[key]["value"], abs=1e-12)
    assert data["matching_slices"] == pytest.approx(BENCHMARK_GAMMA2["matching_slices"], abs=1e-12)

    code, _out, err = run(capsys, "solve", "--gamma", "2", "--grid", "41", "--out", str(tmp_path / "s"))
    assert code == 0, err
    assert _sha256(tmp_path / "s" / "plan.json") == SOLVE_GRID41_PLAN_SHA256


def test_lp_outputs_pinned(tmp_path, capsys):
    gammas = "0.2,0.5,1,1.2,1.4,1.6,1.7,3,6"
    code, _out, err = run(capsys, "sweep", "--grid", "101", "--gammas", gammas, "--out", str(tmp_path / "w"))
    assert code == 0, err
    assert _sha256(tmp_path / "w" / "sweep.csv") == SWEEP_GRID101_SHA256

    code, _out, err = run(capsys, "solve", "--gamma", "2", "--grid", "101", "--out", str(tmp_path / "s"))
    assert code == 0, err
    assert {name: _sha256(tmp_path / "s" / name) for name in SOLVE_GRID101_SHA256} == SOLVE_GRID101_SHA256


def test_verify_pap_exit_zero(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--pap", "--gamma", "2", "--out", str(tmp_path)
    )
    assert code == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["all_ok"]
    assert report["checks"]["pap_condition"]["ok"]


@pytest.mark.filterwarnings("error")
def test_verify_pap_logistic_large_gamma_is_quiet(tmp_path, capsys):
    # G(-5) = Q(-500) overflows exp in the logistic cdf; 1/(1 + inf) = 0 is the exact limit
    code, _out, err = run(
        capsys, "verify", "--pap", "--taste", "logistic", "--gamma", "100", "--out", str(tmp_path)
    )
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv", [["--pap"], ["--pap", "--gamma", "2", "--grid", "40"]], ids=["no_gamma", "even_grid"]
)
def test_verify_pap_config_errors(tmp_path, capsys, argv):
    # the PAP scan reads a fixed grid, but --gamma and --grid are still validated
    code, _out, err = run(capsys, "verify", *argv, "--out", str(tmp_path))
    assert code == 2
    assert json.loads(err.strip())["error"] == "config"
    assert not list(tmp_path.iterdir())


def test_verify_structural_checks(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--gamma", "6", "--grid", "201", "--out", str(tmp_path)
    )
    assert code == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    checks = report["checks"]
    assert checks["single_dipped"]["ok"]
    assert checks["pack_and_pair"]["ok"]
    assert checks["regime"]["detail"] == "POP"
    assert checks["duality_gap"]["ok"]
    assert checks["dual_support"]["ok"]
    # the continuum multiplier identity is reported but never gates the exit
    assert checks["dual_multiplier_formula"]["informational"]


def test_large_gamma_verdict_is_pop(tmp_path, capsys):
    # gamma >= 10 leaves columns with G(r) ~ 0 whose mass can sit anywhere at
    # no cost; the canonical face vertex still reads as pack-and-pair POP.
    code, _out, err = run(capsys, "verify", "--gamma", "10", "--out", str(tmp_path / "v"))
    assert code == 0, err
    checks = json.loads((tmp_path / "v" / "verification.json").read_text())["checks"]
    assert checks["pack_and_pair"]["ok"]
    assert checks["single_dipped"]["ok"]
    assert checks["regime"]["detail"] == "POP"


# (gamma, regime, bifurcation) of `sweep --grid 101`, pinned at the values the
# per-column split gives on the canonical face vertex.
SWEEP_VERDICTS = [
    ("0.2", "PMP", "-0.52"),
    ("0.5", "PMP", "-0.34"),
    ("1.0", "PMP", "0"),
    ("1.2", "MixedPMP", "0"),
    ("1.4", "MixedPMP", "0"),
    ("1.6", "MixedPOP", "0"),
    ("1.7", "POP", "0.02"),
    ("3.0", "POP", "0.18"),
    ("6.0", "POP", "0.18"),
    ("10.0", "POP", "0.14"),
    ("15.0", "POP", "0.1"),
    ("30.0", "POP", "0.06"),
]


def test_sweep_verdicts_pinned(tmp_path, capsys):
    gammas = ",".join(g for g, _, _ in SWEEP_VERDICTS)
    code, _out, err = run(capsys, "sweep", "--gammas", gammas, "--grid", "101", "--out", str(tmp_path))
    assert code == 0, err
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = [(r["gamma"], r["regime"], r["bifurcation"]) for r in csv.DictReader(fh)]
    assert rows == SWEEP_VERDICTS


def test_estimate_round_trip(tmp_path, capsys):
    returns = tmp_path / "returns.csv"
    E.simulate_returns(str(returns), gamma=12.0, T=3, n_precincts=200, seed=5)
    code, out, err = run(
        capsys,
        "estimate",
        "--input",
        str(returns),
        "--out",
        str(tmp_path),
        "--descriptives",
    )
    assert code == 0, err
    with open(tmp_path / "estimates.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["state"] == "SY"
    assert float(rows[0]["gamma_hat"]) > 0
    for name in ("share_hist.csv", "swing_hist.csv", "qq.csv"):
        assert (tmp_path / name).exists()


@pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
def test_estimate_alpha_out_of_range_exit_2(tmp_path, capsys, alpha):
    returns = tmp_path / "returns.csv"
    E.simulate_returns(str(returns), gamma=10.0, T=3, n_precincts=50, seed=0)
    out = tmp_path / "out"
    code, _out, err = run(capsys, "estimate", "--input", str(returns), "--alpha", alpha, "--out", str(out))
    assert code == 2
    error = json.loads(err.strip())
    assert error["error"] == "config" and "alpha" in error["message"]
    assert not out.exists()


def test_estimate_missing_input(tmp_path, capsys):
    out = tmp_path / "out"
    code, _out, err = run(capsys, "estimate", "--input", str(tmp_path / "nope.csv"), "--out", str(out))
    assert code == 3
    error = json.loads(err.strip())
    assert error["error"] == "data"
    assert "No such file or directory" in error["message"] and "nope.csv" in error["message"]
    assert not out.exists()


def test_estimate_without_input_exit_2(tmp_path, capsys):
    code, _out, err = run(capsys, "estimate", "--out", str(tmp_path))
    assert code == 2
    error = json.loads(err.strip())
    assert error["error"] == "config" and "--input" in error["message"]


def test_estimate_byte_order_mark(tmp_path, capsys):
    # a UTF-8 byte-order mark before the header estimates like the plain file
    plain = tmp_path / "plain.csv"
    E.simulate_returns(str(plain), gamma=12.0, T=3, n_precincts=200, seed=5)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    estimates = []
    for path in (plain, marked):
        out = tmp_path / path.stem
        code, _out, err = run(capsys, "estimate", "--input", str(path), "--out", str(out))
        assert code == 0, err
        estimates.append((out / "estimates.csv").read_bytes())
    assert estimates[0] == estimates[1]


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    # a non-ASCII state is written as UTF-8 whatever the locale's encoding
    script = (
        "import locale, sys\n"
        "from gerryopt import cli, estimation\n"
        "print(locale.getpreferredencoding(False), flush=True)\n"
        "estimation.simulate_returns(sys.argv[1] + '/returns.csv', gamma=6.0, n_precincts=50, state='\\u00d1u')\n"
        "sys.exit(cli.main(['estimate', '--input', sys.argv[1] + '/returns.csv', '--out', sys.argv[1]]))\n"
    )
    src = str(pathlib.Path(E.__file__).parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", script, str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "utf" not in proc.stdout.splitlines()[0].lower()  # the locale really is not UTF-8
    assert (tmp_path / "returns.csv").read_bytes().split(b"\r\n")[1].startswith("Ñu,2016,p00000,".encode())
    assert (tmp_path / "estimates.csv").read_bytes().split(b"\r\n")[1].startswith("Ñu,".encode())


def test_estimate_malformed_data_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("state,year\nAA,2016\n")
    code, _out, err = run(capsys, "estimate", "--input", str(bad), "--out", str(tmp_path))
    assert code == 3
    assert json.loads(err.strip())["error"] == "data"


def test_estimate_non_utf8_input_exit_3(tmp_path, capsys):
    binary = tmp_path / "bin.csv"
    binary.write_bytes(b"\xff\xfe\x00bad")
    code, _out, err = run(capsys, "estimate", "--input", str(binary), "--out", str(tmp_path))
    assert code == 3
    assert json.loads(err.strip())["error"] == "data"
    assert not (tmp_path / "estimates.csv").exists()


@pytest.mark.parametrize(
    "states",
    [
        ("AA", "AA"),  # one state with a single election: the fallback estimate fails
        ("AA", "BB"),  # every state is skipped, and the ALL row spans one year as well
    ],
    ids=["single_state", "all_states_skipped"],
)
def test_estimate_one_election_exit_3(tmp_path, capsys, states):
    data = tmp_path / "returns.csv"
    data.write_text(
        "state,year,precinct_id,district_id,total_votes,rep_share,contested\n"
        f"{states[0]},2016,P1,D1,1000,0.4,1\n{states[1]},2016,P2,D1,1000,0.6,1\n"
    )
    code, _out, err = run(capsys, "estimate", "--input", str(data), "--out", str(tmp_path))
    assert code == 3
    error = json.loads(err.strip())
    assert error["error"] == "data"
    assert "need at least 2 elections" in error["message"]


INSTANCE_FLAGS = {"--gamma", "--grid", "--taste"}
OUTPUT_FLAGS = {"--out", "--schema"}
CLI_FLAGS = {
    "solve": INSTANCE_FLAGS | OUTPUT_FLAGS,
    "sweep": {"--grid", "--taste", "--gammas", "--jobs"} | OUTPUT_FLAGS,
    "benchmark": INSTANCE_FLAGS | OUTPUT_FLAGS | {"--r0", "--with-lp"},
    "verify": INSTANCE_FLAGS | OUTPUT_FLAGS | {"--pap"},
    "estimate": OUTPUT_FLAGS | {"--input", "--alpha", "--strict", "--descriptives"},
    "simulate": OUTPUT_FLAGS | {"--gamma", "--elections", "--precincts", "--votes", "--seed"},
}


def test_cli_surface():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    assert not parser.allow_abbrev
    surface = {}
    for name, sub in subparsers.choices.items():
        assert not sub.allow_abbrev, name
        surface[name] = {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
    assert surface == CLI_FLAGS


def test_flags_only_where_read(tmp_path, capsys):
    for argv in (
        ["verify", "--gamma", "2", "--seed", "1"],
        ["solve", "--gamma", "2", "--jobs", "2"],
        ["sweep", "--gamma", "2"],
        ["sweep", "--gamma", "2", "--gammas", "1"],  # no prefix match to --gammas
        ["estimate", "--gamma", "2", "--input", "returns.csv"],
        ["estimate", "--grid", "41", "--input", "returns.csv"],
        ["estimate", "--taste", "logistic", "--input", "returns.csv"],
        ["simulate", "--grid", "41"],
        ["simulate", "--taste", "logistic"],
    ):
        code, _out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2, argv
        assert "unrecognized arguments" in err, argv
    assert not list(tmp_path.iterdir())


def test_simulate_then_estimate(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--gamma",
        "10",
        "--precincts",
        "100",
        "--seed",
        "2",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "returns.csv").exists()
    code, _out, err = run(
        capsys, "estimate", "--input", str(tmp_path / "returns.csv"), "--out", str(tmp_path)
    )
    assert code == 0, err


def test_unknown_command_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_out_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GERRYOPT_OUT", str(tmp_path / "envout"))
    code, _out, _err = run(capsys, "solve", "--gamma", "2", "--grid", "41")
    assert code == 0
    assert (tmp_path / "envout" / "summary.json").exists()


def _write_opens(tree, scope=None):
    """(outermost enclosing function, or None) of every ``open(...)`` call in
    ``tree`` whose mode is not a read-only constant."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope or node.name
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if modes and not (isinstance(modes[0], ast.Constant) and set(modes[0].value) <= set("rbt")):
                yield scope
        yield from _write_opens(node, inner)


def test_only_cli_writes_output_files():
    # the library returns values and cli writes the report files; the one other
    # writer is the simulator, which writes the returns format ingest reads
    writers = {
        (path.stem, fn)
        for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py"))
        for fn in _write_opens(ast.parse(path.read_text()))
    }
    assert {m for m, _ in writers} == {"cli", "estimation"}
    assert {fn for m, fn in writers if m != "cli"} == {"simulate_returns"}


def test_benchmark_trace_targets_exist(monkeypatch):
    # The benchmark's traced run wraps these functions by name and fails when
    # one disappears from the package.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    missing = [
        (module, attr)
        for module, attr, _span, _hook in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.TARGETS
    assert missing == []


# span name -> calls, as the benchmark's tracer counts them for one command
# (the same counts as when cli imported every module at its top)
TRACED_CALLS = {
    "benchmark": {
        "benchmarks.closed_forms": 4,
        "benchmarks.optimize_cutoff": 2,
        "model.district_threshold": 5,
        "model.expected_seat_share": 3,
    },
    "benchmark --with-lp": {
        "benchmarks.closed_forms": 4,
        "benchmarks.optimize_cutoff": 2,
        "lp.build_lp": 1,
        "lp.highs": 1,
        "lp.solve_lp": 1,
        "model.district_threshold": 5,
        "model.expected_seat_share": 3,
        "verify.classify": 1,
        "verify.decompose": 1,
        "verify.refine_assignment": 1,
    },
    "verify": {
        "lp.build_lp": 1,
        "lp.highs": 1,
        "lp.solve_lp": 1,
        "verify.classify": 1,
        "verify.decompose": 1,
        "verify.dual_support": 1,
        "verify.refine_assignment": 2,
        "verify.single_dipped": 1,
    },
    "verify --pap": {"verify.pap_scan": 1},
}


@pytest.mark.parametrize("command", sorted(TRACED_CALLS))
def test_traced_commands_reach_every_wrapped_binding(tmp_path, capsys, monkeypatch, command):
    # cli imports the package modules inside each command, so the names it
    # calls are looked up after the tracer has wrapped them
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    argv = command.split() + ["--gamma", "2", "--grid", "11", "--out", str(tmp_path)]
    with tracing.installed(tracer):
        code, _out, err = run(capsys, *argv)
    assert code == 0, err
    assert {name: row["calls"] for name, row in tracer.summary().items()} == TRACED_CALLS[command]


# ---------------------------------------------------------------------------
# golden outputs of simulate and estimate on a fixed input
# ---------------------------------------------------------------------------

GOLDEN_HEADER = ["district_id", "state", "precinct_id", "year", "contested", "rep_share", "total_votes"]


def _row(state="AA", year="2018", precinct="q0", district="d01", votes="900", share="0.42", contested="1"):
    return {"state": state, "year": year, "precinct_id": precinct, "district_id": district,
            "total_votes": votes, "rep_share": share, "contested": contested}


# (position among the simulated rows, injected row); a string is written verbatim
GOLDEN_INJECTED = [
    (0, "\r\n"),                                              # blank line before the first record
    (5, _row(district="d03", precinct="u0", contested="0")),  # AA d03 uncontested in 2018
    (40, _row(votes="20")),                                   # small
    (41, _row(share="0")),                                    # degenerate
    (42, _row(share="1.0")),                                  # degenerate
    (300, _row(year="2016.0")),                               # non-int year
    (301, "\r\n"),
    (302, _row(votes="0")),                                   # votes 0
    (303, _row(share="1.5")),                                 # share outside [0, 1]
    (304, _row(share="")),                                    # empty share
    (305, _row(share="nan")),                                 # NaN share
    (306, _row(votes="1e3")),                                 # non-int votes
    (307, "d01,AA,q9,2018\r\n"),                              # short row
    (700, "d01,AA,q1,2018,1,0.47,900,x\r\n"),                 # valid, with an extra column
    # whitespace-padded ids and year
    (900, _row(state=" BB ", district=" d04 ", precinct=" q2 ", year=" 2020 ", share="0.55")),
    (1100, _row(state="BB", precinct="q,3", share="0.61")),   # quoted comma
    (1500, _row(state="ZZ", year="2016", precinct="z0", share="0.4")),  # single-election state
    (1501, _row(state="ZZ", year="2016", precinct="z1", share="0.6")),
    (1800, _row(state="BB", precinct="q4", contested="true")),
]


def write_golden_returns(tmp_path):
    """Two simulated states, re-written under a reordered header, with the
    GOLDEN_INJECTED rows spliced in.  Returns the path."""
    records = []
    for state, gamma, seed in (("AA", 12.0, 11), ("BB", 4.0, 12)):
        sim = tmp_path / f"sim_{state}.csv"
        E.simulate_returns(str(sim), gamma=gamma, T=3, n_precincts=300, seed=seed, state=state)
        with open(sim, newline="") as fh:
            records += [dict(zip(E.CSV_FIELDS, r)) for r in list(csv.reader(fh))[1:]]
    path = tmp_path / "golden.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GOLDEN_HEADER)
        pending = iter(GOLDEN_INJECTED)
        pos, item = next(pending)
        for i, rec in enumerate(records + [None]):
            while pos == i:
                if isinstance(item, str):
                    fh.write(item)
                else:
                    writer.writerow([item[c] for c in GOLDEN_HEADER])
                pos, item = next(pending, (None, None))
            if rec is not None:
                writer.writerow([rec[c] for c in GOLDEN_HEADER])
    return path


# sha256 of the outputs at the row-record implementation, on write_golden_returns
GOLDEN_SHA256 = {
    "estimates.csv": "b4ebea92cb46dec48db224054fbb32e2981059c997db4883ecdd830aa332947f",
    "share_hist.csv": "3e53d483e0155ba1d961f3fbf8cf9fbda600a012017daa80a5df6c3f30072b88",
    "swing_hist.csv": "4398d49c83e39ae0e4d737fc2631fdd92cbf3d4ad77e1324984cc200dfe829a8",
    "qq.csv": "cc7828ca252fc6c4af8b9a923e771b123fd34e0ac72662c77c041481c12cf78e",
}
GOLDEN_SIMULATE_SHA256 = "1998cd7ff1ba021ed774ae182581c784ae48617830d8cdc34209a0adb08daa51"
# Line numbers count non-blank records from 2, as csv.DictReader does.
GOLDEN_BAD_ROWS = [
    (306, "line 306: malformed row (invalid literal for int() with base 10: '2016.0')"),
    (309, "line 309: total_votes must be >= 1"),
    (311, "line 311: rep_share outside [0, 1]"),
    (313, "line 313: malformed row (could not convert string to float: '')"),
    (315, "line 315: rep_share outside [0, 1]"),
    (317, "line 317: malformed row (invalid literal for int() with base 10: '1e3')"),
    (319, "line 319: malformed row (int() argument must be a string, a bytes-like object "
          "or a real number, not 'NoneType')"),
]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_simulate_output(tmp_path, capsys):
    argv = ["simulate", "--gamma", "14.75", "--elections", "3", "--precincts", "500", "--seed", "3"]
    assert run(capsys, *argv, "--out", str(tmp_path))[0] == 0
    assert _sha256(tmp_path / "returns.csv") == GOLDEN_SIMULATE_SHA256


def test_golden_estimate_outputs(tmp_path, capsys):
    path = write_golden_returns(tmp_path)
    _returns, report = E.ingest(str(path))
    assert report == E.FilterReport(
        n_input=1810, n_kept=1716, dropped_uncontested=91, dropped_small=1, dropped_degenerate=2,
        bad_rows=GOLDEN_BAD_ROWS,
    )
    with pytest.raises(GerryOptError, match=re.escape(GOLDEN_BAD_ROWS[0][1])):
        E.ingest(str(path), strict=True)

    out = tmp_path / "out"
    code, stdout, err = run(capsys, "estimate", "--input", str(path), "--descriptives", "--out", str(out))
    assert code == 0, err
    assert {name: _sha256(out / name) for name in GOLDEN_SHA256} == GOLDEN_SHA256
    with open(out / "bad_rows.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["line", "message"]] + [[str(n), m] for n, m in GOLDEN_BAD_ROWS]
    summary = json.loads(stdout)
    assert (summary["states"], summary["kept"], summary["dropped"]) == (3, 1716, 94)
    assert summary["bad_rows"] == len(GOLDEN_BAD_ROWS)
    assert summary["skipped_states"] == [{"state": "ZZ", "reason": "need at least 2 elections, got 1"}]


def test_ingest_chunk_boundaries(tmp_path, monkeypatch):
    # codes of each chunk are re-based onto the labels of the whole file, and
    # line numbers run on across chunks
    path = write_golden_returns(tmp_path)
    whole, report = E.ingest(str(path))
    monkeypatch.setattr(E, "CHUNK_ROWS", 7)
    chunked, chunked_report = E.ingest(str(path))
    assert chunked_report == report
    assert list(chunked.rows()) == list(whole.rows())
    assert list(E.Returns.from_records(whole.rows()).rows()) == list(whole.rows())


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("error")
def test_extreme_gamma_runs_are_quiet_and_write_valid_json(tmp_path, capsys):
    # Deep in the tails G, g and q underflow to 0 and x * x overflows; each
    # run must still exit 0 with no warning, and NaN or Infinity in a JSON
    # file would make it unreadable to a strict parser.
    runs = [
        [command, "--gamma", gamma, "--taste", taste, "--grid", grid, *extra]
        for gamma in ("1e-300", "1e4", "1e300")
        for taste in ("normal", "logistic")
        for command, extra in (("solve", []), ("verify", []), ("benchmark", ["--with-lp"]))
        for grid in ("3", "11")
    ] + [
        ["verify", "--pap", "--gamma", gamma, "--taste", taste]
        for gamma in ("1e-300", "1e4", "1e300")
        for taste in ("normal", "logistic")
    ]
    for k, argv in enumerate(runs):
        out = tmp_path / str(k)
        assert run(capsys, *argv, "--out", str(out))[::2] == (0, ""), argv
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
