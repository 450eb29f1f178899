#!/usr/bin/env python3
"""gerryopt benchmark: drives the public CLI in process and checks its outputs.

    python3 perfbench/run.py --workload figure_sweep --seed 1 --seconds 10 --trace 0

One client, closed loop: each CLI command (``gerryopt.cli.main(argv)``)
starts when the previous one has finished, in this one process.  A *pass* is
one run of the workload's command sequence; passes repeat until ``--seconds``
have elapsed (at least one).  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run, whose passes alternate with untraced ones to measure the
tracing overhead.  See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
from statistics import median
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3  # fresh interpreters timed per run, after one untimed warm-up
SETUP_CODE = "import gerryopt.cli as cli; cli.build_parser()"

CSV_HEADER = ["state", "year", "precinct_id", "district_id", "total_votes", "rep_share", "contested"]
KINDS = ("sweep", "solve", "verify", "pap", "benchmark", "simulate", "estimate")


@dataclass
class Command:
    rc: int
    stdout: str
    stderr: str
    seconds: float


@dataclass
class PassResult:
    times: dict                                  # command kind -> seconds in this pass
    ops: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    record: dict = field(default_factory=dict)   # outputs written to the result file
    trace: dict | None = None

    def add(self, messages: list, ops: int = 1) -> None:
        self.ops += ops
        self.failed += min(len(messages), ops)
        self.failures += messages


class Runner:
    """Calls ``cli.main`` with captured stdout/stderr and times each command."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.tracer: tracing.Tracer | None = None

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def command(self, kind: str, argv: list) -> Command:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                if self.tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = self.tracer.call(f"cli.{kind}", self.cli.main, argv)
            except Exception:  # an uncaught program error is a failed op, not a crashed benchmark
                traceback.print_exc()
                rc = -1
            seconds = perf_counter() - start
        return Command(rc, out.getvalue(), err.getvalue(), seconds)


def _stderr(kind: str, cmd: Command) -> list:
    """The error a failed command printed, to go with the gate's message."""
    return [f"{kind} stderr: {cmd.stderr.strip()[-300:]}"] if cmd.rc != 0 and cmd.stderr.strip() else []


def _read_dicts(path: Path) -> list | None:
    if not path.is_file():
        return None
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict | None:
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)


def _last_json_line(text: str) -> dict | None:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


# ---------------------------------------------------------------------------
# Workloads


class FigureSweep:
    """The seat-share-vs-gamma figure: nine LPs sharing one constraint matrix."""

    kinds = ("sweep",)
    expected_calls = {
        "lp.sweep_gamma": 1,
        "lp.build_lp": 9,
        "lp.solve_lp": 9,
        "verify.decompose": 9,
        "verify.refine_assignment": 9,
        "verify.classify": 9,
    }

    def __init__(self, seed: int):
        self.seed = seed  # the LP inputs are fixed grids

    def run_pass(self, runner: Runner) -> PassResult:
        out = runner.fresh("sweep")
        gammas = ",".join(f"{g:g}" for g in gate.FIG_GAMMAS)
        cmd = runner.command("sweep", ["sweep", "--gammas", gammas, "--grid", "101", "--jobs", "1", "--out", str(out)])
        rows = _read_dicts(out / "sweep.csv") if cmd.rc == 0 else None
        result = PassResult({"sweep": cmd.seconds}, record={"sweep": rows})
        result.add(gate.check_sweep(cmd.rc, rows) + _stderr("sweep", cmd), ops=len(gate.FIG_GAMMAS))
        return result


class SolveVerify:
    """One cold solve plus the checks the sweep skips, and two LP-free paths."""

    kinds = ("solve", "verify", "pap", "benchmark")
    expected_calls = {
        "lp.build_lp": 2,
        "lp.solve_lp": 2,
        "lp.extract_plan": 1,
        "verify.decompose": 2,
        "verify.classify": 2,
        "verify.refine_assignment": 3,
        "verify.single_dipped": 1,
        "verify.dual_support": 1,
        "verify.pap_scan": 1,
        "benchmarks.optimize_cutoff": 2,
    }

    def __init__(self, seed: int):
        self.seed = seed  # the LP inputs are fixed grids

    def run_pass(self, runner: Runner) -> PassResult:
        gamma = f"{gate.SOLVE_GAMMA:g}"
        result = PassResult({})
        steps = (
            ("solve", ["solve"], "summary.json", gate.check_solve),
            ("verify", ["verify"], "verification.json", gate.check_verify),
            ("pap", ["verify", "--pap"], "verification.json", gate.check_pap),
            ("benchmark", ["benchmark"], "benchmarks.json", gate.check_benchmark),
        )
        for kind, argv, output, check in steps:
            out = runner.fresh(kind)
            cmd = runner.command(kind, argv + ["--gamma", gamma, "--out", str(out)])
            result.times[kind] = cmd.seconds
            data = _read_json(out / output)
            result.add(check(cmd.rc, data) + _stderr(kind, cmd))
            if kind == "solve":
                result.record["solve"] = data
        return result


class EstimateReturns:
    """Write side (simulate) and read side (estimate) of the estimation module."""

    kinds = ("simulate", "estimate")
    expected_calls = {
        "estimation.simulate": 8,
        "estimation.ingest": 1,
        "estimation.probit": 9,
        "estimation.estimate_gamma": 9,
        "estimation.descriptives": 1,
    }
    STATE_GAMMAS = (1.5, 2.5, 4.0, 6.0, 9.0, 14.75, 20.0, 30.0)  # one state each
    ELECTIONS = 4
    PRECINCTS = 5000
    SMALL_ROWS = 30       # total_votes below 50
    DEGENERATE_ROWS = 30  # rep_share exactly 0 or 1
    UNCONTESTED = 2       # districts marked uncontested in one year

    def __init__(self, seed: int):
        self.seed = seed
        self.digests: list | None = None
        self.input: Path | None = None
        self.reference: dict | None = None
        self.n_bad = 0

    def run_pass(self, runner: Runner) -> PassResult:
        result = PassResult({"simulate": 0.0, "estimate": 0.0})
        sims, digests = [], []
        for k, gamma in enumerate(self.STATE_GAMMAS):
            out = runner.fresh(f"sim{k}")
            argv = [
                "simulate", "--gamma", f"{gamma:g}", "--elections", str(self.ELECTIONS),
                "--precincts", str(self.PRECINCTS), "--seed", str(self.seed * len(self.STATE_GAMMAS) + k),
                "--out", str(out),
            ]
            cmd = runner.command("simulate", argv)
            result.times["simulate"] += cmd.seconds
            path = out / "returns.csv"
            rows = _read_rows(path) if cmd.rc == 0 else None
            messages = gate.check_simulate(cmd.rc, rows, self.ELECTIONS * self.PRECINCTS) + _stderr("simulate", cmd)
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if rows is not None else None
            if self.digests is not None and digest != self.digests[k]:
                messages.append(f"simulate state {k}: output differs from the first pass with the same seed")
            result.add(messages)
            if not messages:
                sims.append((path, len(rows), {r[1] for r in rows}, {r[3] for r in rows}))
            digests.append(digest)
        if len(sims) < len(self.STATE_GAMMAS):
            result.add(["estimate: not run, simulate failed"])
            return result
        if self.input is None:
            self.digests = digests
            self.input = runner.work / "input.csv"
            self.reference, self.n_bad = build_input(sims, self.seed, self.input)

        out = runner.fresh("estimate")
        cmd = runner.command("estimate", ["estimate", "--input", str(self.input), "--descriptives", "--out", str(out)])
        result.times["estimate"] = cmd.seconds
        rows = _read_dicts(out / "estimates.csv")
        messages = gate.check_estimate(cmd.rc, _last_json_line(cmd.stdout), rows, self.reference, self.ELECTIONS)
        messages += _stderr("estimate", cmd)
        if not messages:
            messages = gate.check_descriptives(
                _read_dicts(out / "share_hist.csv"), _read_dicts(out / "swing_hist.csv"),
                _read_dicts(out / "qq.csv"), self.ELECTIONS,
            )
        if runner.tracer is not None:
            c = runner.tracer.counters
            report = {k: c[f"estimation.{k}"] for k in ("dropped_uncontested", "dropped_small", "dropped_degenerate", "bad_rows")}
            report["kept"] = c["estimation.rows_kept"]
            messages += gate.check_filter_report(report, self.reference, self.n_bad)
        result.add(messages)
        result.record["estimates"] = rows
        result.record["filters"] = {k: v for k, v in self.reference.items() if k != "estimates"}
        return result


def _read_rows(path: Path) -> list | None:
    if not path.is_file():
        return None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            return None
        return list(reader)


def build_input(sims: list, seed: int, path: Path) -> tuple[dict, int]:
    """Concatenate the simulated files under distinct state names, inject rows
    each filter must drop plus malformed rows at seeded positions, and write
    the CSV.  Returns the reference result for it and the number of malformed
    rows.  ``sims`` holds (path, row count, years, districts) per state.
    Untimed; streams the files so the benchmark's memory stays small."""
    rng = np.random.default_rng(seed)
    years = sorted(set().union(*(s[2] for s in sims)))
    districts = sorted(set().union(*(s[3] for s in sims)))
    states = [f"S{k}" for k in range(len(sims))]

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    uncontested = set()
    while len(uncontested) < EstimateReturns.UNCONTESTED:
        uncontested.add((pick(states), pick(districts)))
    contested = [(s, d) for s in states for d in districts if (s, d) not in uncontested]
    valid = [[s, pick(years), f"u{i:03d}", d, "1000", "0.5", "0"] for i, (s, d) in enumerate(sorted(uncontested))]
    for i in range(EstimateReturns.SMALL_ROWS):
        s, d = pick(contested)
        valid.append([s, pick(years), f"x{i:03d}", d, str(int(rng.integers(1, 50))), f"{rng.uniform(0.05, 0.95):.12f}", "1"])
    for i in range(EstimateReturns.DEGENERATE_ROWS):
        s, d = pick(contested)
        valid.append([s, pick(years), f"z{i:03d}", d, "800", pick(["0", "1", "0.0", "1.000000000000"]), "1"])
    s, d = pick(contested)
    y = pick(years)
    malformed = [
        [s, "twenty", "m000", d, "1000", "0.5", "1"],
        [s, y, "m001", d, "0", "0.5", "1"],
        [s, y, "m002", d, "1000", "1.5", "1"],
        [s, y, "m003", d, "many", "0.5", "1"],
        [s, y, "m004", d, "1000", "", "1"],
    ]
    injected = valid + malformed
    n_sim = sum(s[1] for s in sims)
    slots = sorted(zip(rng.integers(0, n_sim + 1, size=len(injected)).tolist(), range(len(injected))))

    cols = {k: [] for k in ("state", "district", "year", "votes", "share", "contested")}

    def write(writer, row, well_formed=True):
        writer.writerow(row)
        if well_formed:
            cols["state"].append(row[0])
            cols["district"].append(row[3])
            cols["year"].append(int(row[1]))
            cols["votes"].append(int(row[4]))
            cols["share"].append(float(row[5]))
            cols["contested"].append(row[6] == "1")

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        pos = 0
        pending = iter(slots + [(n_sim + 1, -1)])
        slot, i = next(pending)
        for state, (sim_path, *_rest) in zip(states, sims):
            with open(sim_path, newline="") as src:
                reader = csv.reader(src)
                next(reader)
                for row in reader:
                    while slot == pos:
                        write(writer, injected[i], i < len(valid))
                        slot, i = next(pending)
                    write(writer, [state] + row[1:7])
                    pos += 1
        while slot == pos:
            write(writer, injected[i], i < len(valid))
            slot, i = next(pending)
    ref = gate.reference_estimates({k: np.array(v) for k, v in cols.items()})
    want = (EstimateReturns.SMALL_ROWS, EstimateReturns.DEGENERATE_ROWS)
    if (ref["dropped_small"], ref["dropped_degenerate"]) != want:
        raise RuntimeError(f"injected rows do not match the reference filters: {ref} vs {want}")
    return ref, len(malformed)


WORKLOADS = {"figure_sweep": FigureSweep, "solve_verify": SolveVerify, "estimate_returns": EstimateReturns}


# ---------------------------------------------------------------------------
# Metrics

END_TO_END = {
    "pass_s": "s",
    "cmd_geomean_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span whose self time it reports (every traced span)
LAYER_TIMES = {f"{span}_s": span for span in dict.fromkeys(t[2] for t in tracing.TARGETS)}
LAYER_CALLS = {
    "lp.solves": "lp.solve_lp",
    "verify.refine_assignment_calls": "verify.refine_assignment",
    "benchmarks.plans_evaluated": "model.expected_seat_share",
    "model.district_threshold_calls": "model.district_threshold",
}
LAYER_COUNTERS = (
    "lp.highs_iterations",
    "estimation.rows_read",
    "estimation.rows_kept",
    "estimation.bad_rows",
    "estimation.probit_rows",
)


def per_layer_units() -> dict:
    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in (*LAYER_CALLS, *LAYER_COUNTERS)})
    units["estimation.kept_ratio"] = "ratio"
    for kind in KINDS:
        units[f"cli.{kind}_s"] = "s"
        units[f"cli.{kind}.self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def layer_values(summary: dict, counters: dict, missing: set) -> tuple[dict, dict, set]:
    """Per-pass layer metrics: (times, counts, names reported missing)."""
    calls = {name: row["calls"] for name, row in summary.items()}
    times = {metric: summary.get(span, {}).get("self_s", 0.0) for metric, span in LAYER_TIMES.items()}
    for kind in KINDS:
        row = summary.get(f"cli.{kind}", {})
        times[f"cli.{kind}_s"] = row.get("total_s", 0.0)
        times[f"cli.{kind}.self_s"] = row.get("self_s", 0.0)
    counts = {metric: calls.get(span, 0) for metric, span in LAYER_CALLS.items()}
    counts.update({name: counters.get(name, 0) for name in LAYER_COUNTERS})
    counts["trace.spans"] = sum(calls.values())
    counts["calls"] = calls
    missing = set(missing)
    if calls.get("lp.solve_lp", 0) and not calls.get("lp.highs", 0):
        missing |= {"lp.highs_s", "lp.highs_iterations"}  # linprog is no longer the call site
    return times, counts, missing


def check_coverage(workload, calls: dict) -> list:
    """A wrapper that missed a binding site shows as a call count below the
    workload's fixed expectation."""
    return [
        f"{span}: {calls.get(span, 0)} traced calls, expected {want}"
        for span, want in workload.expected_calls.items()
        if calls.get(span, 0) != want
    ]


def end_to_end(workload, passes: list, setup: list) -> tuple[dict, dict]:
    """(metrics, per-kind command medians) of an untraced run."""
    per_kind = {k: median([p.times[k] for p in passes]) for k in workload.kinds}
    values = {
        "pass_s": median([sum(p.times.values()) for p in passes]),
        "cmd_geomean_s": math.exp(statistics.fmean(math.log(max(v, 1e-9)) for v in per_kind.values())),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    return values, per_kind


def traced_run(workload, runner: Runner, seconds: float) -> tuple:
    """Traced and untraced passes alternate until ``seconds`` have elapsed
    (at least one of each), so both see the same machine conditions; the
    tracing overhead is the difference of their medians.

    Returns (metrics, untraced passes, traced passes, problems, missing names)."""
    tracer = tracing.Tracer()
    traced, untraced = [], []
    deadline = perf_counter() + seconds
    while not untraced or perf_counter() < deadline:
        if len(traced) > len(untraced):
            untraced.append(workload.run_pass(runner))
            continue
        tracer.reset()
        runner.tracer = tracer
        try:
            with tracing.installed(tracer):
                p = workload.run_pass(runner)
        finally:
            runner.tracer = None
        p.trace = {"summary": tracer.summary(), "counters": dict(tracer.counters),
                   "missing": set(tracer.missing), "spans": tracer.spans}
        traced.append(p)

    problems = []
    rows = [layer_values(p.trace["summary"], p.trace["counters"], p.trace["missing"]) for p in traced]
    counts = rows[0][1]
    if any(r[1] != counts for r in rows[1:]):
        problems.append("trace counts differ between traced passes of the same inputs")
    if not any(p.failed for p in traced):
        coverage = check_coverage(workload, counts["calls"])
        if coverage:
            raise tracing.TraceError("trace coverage: " + "; ".join(coverage))
    missing = set().union(*(r[2] for r in rows))
    metrics = {name: median([r[0][name] for r in rows]) for name in rows[0][0]}
    metrics.update({k: v for k, v in counts.items() if k != "calls"})
    read = counts["estimation.rows_read"]
    metrics["estimation.kept_ratio"] = counts["estimation.rows_kept"] / read if read else 0.0
    metrics["trace.overhead_s"] = median([sum(p.times.values()) for p in traced]) - median(
        [sum(p.times.values()) for p in untraced])
    for name in missing:
        metrics.pop(name, None)
    return metrics, untraced, traced, problems, missing


# ---------------------------------------------------------------------------
# Environment and set-up


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import scipy

    try:
        from scipy.optimize._highspy import _core

        highs = f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}.{_core.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
        "commit": git_commit(),
        "seed": seed,
    }


def measure_setup(repeats: int = SETUP_REPEATS) -> list:
    """Wall time of fresh interpreters importing the CLI and building its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for i in range(repeats + 1):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        if i:  # the first start compiles bytecode and warms the page cache
            samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_cli():
    """Import gerryopt from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    from gerryopt import cli

    if Path(cli.__file__).resolve().parent != SRC / "gerryopt":
        raise ImportError(f"gerryopt imported from {cli.__file__}, not from {SRC}")
    return cli


def run(args, work: Path) -> dict:
    workload = WORKLOADS[args.workload](args.seed)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    setup = [] if args.trace else measure_setup()
    runner = Runner(import_cli(), work)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}

    if args.trace:
        metrics, untraced, passes, problems, missing = traced_run(workload, runner, args.seconds)
        all_passes = passes + untraced
        units = per_layer_units()
        for name in sorted(missing):
            print(f"missing {name}: not measurable at this commit (its call site moved)")
        last = passes[-1].trace
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            t0 = last["spans"][0][3] if last["spans"] else 0.0
            for sid, parent, name, start, end in last["spans"]:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start - t0, "end": end - t0}) + "\n")
        report["trace_calls"] = last["summary"]
        print(f"spans {spans_path.relative_to(ROOT)} ({len(last['spans'])} spans, last traced pass)")
    else:
        passes, problems = [], []
        deadline = perf_counter() + args.seconds
        while True:
            passes.append(workload.run_pass(runner))
            if perf_counter() >= deadline:
                break
        all_passes = passes
        metrics, per_kind = end_to_end(workload, passes, setup)
        units = dict(END_TO_END)
        for kind, value in per_kind.items():
            print(f"command {kind}_s {value!r} s (median of {len(passes)} passes)")
        report["setup_samples"] = setup

    for key, value in all_passes[0].record.items():
        print(f"output {key} " + json.dumps(value, sort_keys=True))
    for p in all_passes:
        for message in p.failures:
            print(f"FAIL {message}")
    for message in problems:
        print(f"FAIL {message}")
    attempted = sum(p.ops for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    print(f"ops_attempted {attempted}\nops_failed {failed}\npasses {len(passes)}")

    report["passes"] = [{"times": p.times, "ops": p.ops, "failed": p.failed, "failures": p.failures} for p in all_passes]
    report["records"] = all_passes[0].record
    report["metrics"] = metrics
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in sorted(metrics)},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gerryopt" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, work)
    except (tracing.TraceError, RuntimeError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
