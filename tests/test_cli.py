import csv
import json

import pytest

from gerryopt import cli
from gerryopt import estimation as E


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
    assert summary["solver"]["stage1_method"] == "highs-ipm"
    assert summary["solver"]["face_cells"] >= 41
    # stdout carries the same summary
    assert json.loads(out.strip())["objective"] == summary["objective"]


def test_solve_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "solve", "--gamma", "2", "--grid", "41", "--out", str(a))[0] == 0
    assert run(capsys, "solve", "--gamma", "2", "--grid", "41", "--out", str(b))[0] == 0
    for name in ("plan.json", "assignment.csv", "dual.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


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


def test_verify_pap_exit_zero(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--pap", "--gamma", "2", "--out", str(tmp_path)
    )
    assert code == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["all_ok"]
    assert report["checks"]["pap_condition"]["ok"]


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
    args = ["sweep", "--gammas", "10,15,30", "--grid", "101", "--out", str(tmp_path / "s")]
    assert run(capsys, *args)[0] == 0
    with open(tmp_path / "s" / "sweep.csv", newline="") as fh:
        assert [row["regime"] for row in csv.DictReader(fh)] == ["POP"] * 3


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


def test_estimate_missing_input(tmp_path, capsys):
    code, _out, err = run(
        capsys, "estimate", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)
    )
    assert code == 3
    assert json.loads(err.strip())["error"] == "data"


def test_estimate_malformed_data_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("state,year\nAA,2016\n")
    code, _out, err = run(capsys, "estimate", "--input", str(bad), "--out", str(tmp_path))
    assert code == 3
    assert json.loads(err.strip())["error"] == "data"


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
