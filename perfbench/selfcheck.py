"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selfcheck.py

Kept out of the repository's tier-1 suite (pytest collects only test_*.py)
because the trace tests solve the workloads' LPs and take about a minute.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

cli = run.import_cli()
from gerryopt import estimation as est  # noqa: E402


def traced_pass(workload, runner):
    tracer = tracing.Tracer()
    runner.tracer = tracer
    try:
        with tracing.installed(tracer):
            result = workload.run_pass(runner)
    finally:
        runner.tracer = None
    return result, tracer


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_two_traced_runs_give_identical_counts(name, tmp_path):
    counts, workload = [], run.WORKLOADS[name](seed=7)
    for i in range(2):
        result, tracer = traced_pass(workload, run.Runner(cli, tmp_path / str(i)))
        assert result.failed == 0, result.failures
        _times, c, missing = run.layer_values(tracer.summary(), tracer.counters, tracer.missing)
        assert not missing
        assert run.check_coverage(workload, c["calls"]) == []
        counts.append(c)

        # self-time arithmetic: the self times of all spans add up to the
        # durations of the root (cli command) spans
        summary = tracer.summary()
        roots = sum(end - start for _sid, parent, _n, start, end in tracer.spans if parent < 0)
        assert math.isclose(sum(r["self_s"] for r in summary.values()), roots, rel_tol=1e-9)
    assert counts[0] == counts[1]
    if name == "figure_sweep":
        assert counts[0]["lp.solves"] == 9 and counts[0]["lp.highs_iterations"] > 0
    if name == "solve_verify":
        assert counts[0]["lp.highs_iterations"] == 2 * 9472


def test_tracing_restores_the_program(tmp_path):
    from gerryopt import benchmarks, lp, model

    before = (lp.linprog, lp.solve_lp, model.expected_seat_share, benchmarks.expected_seat_share)
    with tracing.installed(tracing.Tracer()):
        assert lp.solve_lp is not before[1]
        assert benchmarks.expected_seat_share is model.expected_seat_share
    assert (lp.linprog, lp.solve_lp, model.expected_seat_share, benchmarks.expected_seat_share) == before


def test_missing_highs_call_site_is_reported_not_zero():
    summary = {"lp.solve_lp": {"calls": 2, "total_s": 1.0, "self_s": 1.0}}
    _times, counts, missing = run.layer_values(summary, {}, set())
    assert {"lp.highs_s", "lp.highs_iterations"} <= missing


def _sweep_rows():
    return [
        {"gamma": str(g), "objective": f"{o:.10g}", "regime": lab, "bifurcation": "0", "error": ""}
        for g, o, lab in zip(gate.FIG_GAMMAS, gate.FIG_OBJECTIVES, gate.FIG_LABELS)
    ]


def test_gate_accepts_seed_values_and_flags_perturbed_results():
    rows = _sweep_rows()
    assert gate.check_sweep(0, rows) == []
    bad = copy.deepcopy(rows)
    bad[3]["objective"] = repr(gate.FIG_OBJECTIVES[3] + 5e-9)
    (msg,) = gate.check_sweep(0, bad)
    assert "gamma=1.2" in msg and "objective" in msg
    bad = copy.deepcopy(rows)
    bad[5]["regime"] = "POP"
    assert gate.check_sweep(0, bad) == ["sweep gamma=1.6: regime POP != MixedPOP"]
    assert len(gate.check_sweep(1, None)) == len(gate.FIG_GAMMAS)

    assert gate.check_solve(0, {"objective": gate.SOLVE_OBJECTIVE}) == []
    assert gate.check_solve(0, {"objective": gate.SOLVE_OBJECTIVE + 2e-9})

    ok = {"all_ok": True, "checks": {"regime": {"ok": True}}}
    assert gate.check_verify(0, ok) == []
    assert gate.check_verify(4, {"all_ok": False, "checks": {"regime": {"ok": False}}})
    pap = {"checks": {"pap_condition": {"ok": True, "detail": {"n_violations": 0}}}}
    assert gate.check_pap(0, pap) == []
    pap["checks"]["pap_condition"]["detail"]["n_violations"] = 1
    assert gate.check_pap(4, pap)

    result = {"perfect_info": 1.0, "no_idiosyncratic": gate.BENCHMARK_VALUES["no_idiosyncratic"],
              "matching_slices": gate.BENCHMARK_VALUES["matching_slices"]}
    for key in ("no_aggregate", "pop_pool", "traditional_pc"):
        result[key] = {f: gate.BENCHMARK_VALUES[f"{key}.{f}"] for f in ("cutoff", "value")}
    assert gate.check_benchmark(0, result) == []
    result["pop_pool"]["value"] += 1e-8
    (msg,) = gate.check_benchmark(0, result)
    assert msg.startswith("benchmark pop_pool.value")


def _simulated_table(tmp_path, seed=3):
    """Two simulated states plus rows for each filter, as the program reads them."""
    frames = []
    for k, gamma in enumerate((3.0, 12.0)):
        path = tmp_path / f"s{k}.csv"
        est.simulate_returns(str(path), gamma=gamma, T=3, n_precincts=300, seed=seed + k, state=f"S{k}")
        frames.append(path.read_text().splitlines()[1:])
    lines = frames[0] + frames[1] + [
        "S0,2016,u1,d03,1000,0.5,0",  # drops district d03 of S0 in every year
        "S1,2018,x1,d01,20,0.4,1",    # too few votes
        "S1,2020,z1,d02,900,1,1",     # degenerate share
        "S0,2016,m1,d01,0,0.5,1",     # malformed: total_votes < 1
    ]
    csv_path = tmp_path / "returns.csv"
    csv_path.write_text(",".join(run.CSV_HEADER) + "\n" + "\n".join(lines) + "\n")
    rows = [line.split(",") for line in lines[:-1]]
    table = {
        "state": np.array([r[0] for r in rows]),
        "district": np.array([r[3] for r in rows]),
        "year": np.array([int(r[1]) for r in rows]),
        "votes": np.array([int(r[4]) for r in rows]),
        "share": np.array([float(r[5]) for r in rows]),
        "contested": np.array([r[6] == "1" for r in rows]),
    }
    return csv_path, table


def test_reference_estimator_matches_the_program(tmp_path):
    csv_path, table = _simulated_table(tmp_path)
    ref = gate.reference_estimates(table)
    records, report = est.ingest(str(csv_path))
    assert (ref["dropped_uncontested"], ref["dropped_small"], ref["dropped_degenerate"]) == (
        report.dropped_uncontested, report.dropped_small, report.dropped_degenerate)
    assert ref["dropped_uncontested"] == 3 * 30 + 1 and ref["kept"] == report.n_kept
    for state, want in ref["estimates"]:
        sub = records if state == "ALL" else [r for r in records if r.state == state]
        got = est.estimate_gamma(sub)
        for key in ("gamma_hat", "ci_low", "ci_high"):
            assert abs(getattr(got, key) - want[key]) <= gate.TOL
        assert (got.T, got.n_precincts) == (want["T"], want["n_precincts"])


def test_gate_flags_perturbed_estimates(tmp_path):
    _csv, table = _simulated_table(tmp_path)
    ref = gate.reference_estimates(table)
    rows = [
        {"state": s, "gamma_hat": f"{e['gamma_hat']:.6f}", "ci_low": f"{e['ci_low']:.6f}",
         "ci_high": f"{e['ci_high']:.6f}", "T": str(e["T"]), "n_precincts": str(e["n_precincts"])}
        for s, e in ref["estimates"]
    ]
    dropped = ref["dropped_uncontested"] + ref["dropped_small"] + ref["dropped_degenerate"]
    stdout = {"states": ref["states"], "kept": ref["kept"], "dropped": dropped}
    assert gate.check_estimate(0, stdout, rows, ref, 3) == []

    bad = copy.deepcopy(rows)
    bad[1]["gamma_hat"] = f"{float(bad[1]['gamma_hat']) + 1e-5:.6f}"
    (msg,) = gate.check_estimate(0, stdout, bad, ref, 3)
    assert msg.startswith("estimate S1 gamma_hat")
    (msg,) = gate.check_estimate(0, dict(stdout, kept=ref["kept"] + 1), rows, ref, 3)
    assert msg.startswith("estimate kept")
    report = {"dropped_uncontested": ref["dropped_uncontested"], "dropped_small": 1,
              "dropped_degenerate": 1, "bad_rows": 1, "kept": ref["kept"]}
    assert gate.check_filter_report(report, ref, 1) == []
    assert gate.check_filter_report(dict(report, dropped_small=0), ref, 1) == ["ingest dropped_small: 0 != 1"]


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate_returns", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
