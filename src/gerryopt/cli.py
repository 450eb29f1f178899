"""Command-line interface wiring the solver, verification, benchmarks, and
estimation into file-producing commands.

Outputs are data-only (JSON/CSV) for external plotting.  Exit codes:
0 success, 2 config error or failed solve, 3 data error, 4 verification
failure.
"""

from __future__ import annotations

# Only the standard library loads here.  Each command imports the package
# modules it runs when it runs, so --help, --schema and argparse errors load
# neither numpy nor scipy, and only the commands that solve the LP load ``lp``
# and scipy.optimize.  Imported names are looked up at call time, never kept
# in this module, so a wrapper installed on a module attribute still applies.
import argparse
import contextlib
import csv
import json
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_VERIFY = 4
# exit code per error kind (``GerryOptError.kind``)
EXIT_CODES = {"config": EXIT_CONFIG, "solver": EXIT_CONFIG, "data": EXIT_DATA}

SCHEMAS = {
    "solve": {
        "plan.json": "[{support: [[type, weight]...], mass}] per district",
        "assignment.csv": "type,threshold,mass (active cells only)",
        "dual.csv": "kind{phi|lambda},point,value,pinned{0|1}",
        "summary.json": "{gamma, objective, regime, bifurcation, duality_gap, n_districts, "
        "solver: {stage1_iterations (structured interior point), stage1_complementarity (final sum x*z), "
        "face_cells, stage2_iterations}}",
    },
    "sweep": {"sweep.csv": "gamma,objective,regime,bifurcation,error"},
    "benchmark": {
        "benchmarks.json": "{gamma, lp_objective?, lp_regime?, perfect_info, no_aggregate, "
        "no_idiosyncratic, matching_slices, pop_pool, traditional_pc}"
    },
    "verify": {"verification.json": "{checks: {name: {ok, detail, informational?}}, all_ok}"},
    "estimate": {
        "estimates.csv": "state,gamma_hat,ci_low,ci_high,T,n_precincts",
        "share_hist.csv": "bin_low,bin_high,density",
        "swing_hist.csv": "bin_low,bin_high,count",
        "qq.csv": "grid_v,year,matched_v",
        "bad_rows.csv": "line,message (each malformed row, in file order)",
    },
    "simulate": {"returns.csv": "state,year,precinct_id,district_id,total_votes,rep_share,contested"},
}


def _outdir(args) -> str:
    from .model import GerryOptError

    out = args.out or os.environ.get("GERRYOPT_OUT") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # e.g. a regular file: the output path is configuration, not input data
        raise GerryOptError(f"output directory {out!r} cannot be created: {exc}") from None
    return out


@contextlib.contextmanager
def _output(out: str, name: str):
    """Yield the path of output file ``name`` in ``out``; every output write
    goes through here, and an ``OSError`` while writing is a config error."""
    from .model import GerryOptError

    path = os.path.join(out, name)
    try:
        yield path
    except OSError as exc:
        raise GerryOptError(f"output file {path!r} cannot be written: {exc}") from None


def _write_csv(out: str, name: str, header: str, rows) -> str:
    """Write the comma-separated ``header`` and then ``rows`` as UTF-8; return
    the path."""
    with _output(out, name) as path, open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header.split(","))
        w.writerows(rows)
    return path


def _write_report(out: str, name: str, report: dict) -> None:
    """Write ``report`` as indented JSON and echo it compactly on stdout."""
    with _output(out, name) as path, open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps(report, sort_keys=True))


def _instance(args, gamma):
    from .model import GerryOptError, get_taste, uniform_instance

    if gamma is None:
        raise GerryOptError("--gamma must be given")
    if args.grid < 3 or args.grid % 2 == 0:
        raise GerryOptError("--grid must be odd and at least 3")
    return uniform_instance(n=args.grid, gamma=gamma, taste=get_taste(args.taste))


def cmd_solve(args) -> int:
    import numpy as np

    from . import lp as lpmod
    from .model import SUPPORT_TOL

    inst = _instance(args, args.gamma)
    out = _outdir(args)
    sol, decomp, regime = lpmod.solve_and_classify(inst)

    plan = lpmod.extract_plan(sol.lp, sol.pi)
    with _output(out, "plan.json") as path, open(path, "w") as fh:
        fh.write(plan.to_json())
    active = sol.pi > SUPPORT_TOL
    grid = inst.type_grid  # also the threshold grid
    rows = ([f"{grid[i]:.10g}", f"{grid[j]:.10g}", f"{sol.pi[i, j]:.12g}"] for i, j in zip(*np.nonzero(active)))
    _write_csv(out, "assignment.csv", "type,threshold,mass", rows)
    # pinned: lambda(r) is fixed by complementary slackness given phi where an
    # active cell of column r has a != 0; each phi is the least value dual
    # feasible given lambda, and its row is flagged 1
    pinned = (active & (sol.lp.a != 0)).any(axis=0)
    dual = (("phi", grid, sol.phi, np.ones_like(pinned)), ("lambda", grid, sol.lam, pinned))
    rows = (
        [kind, f"{x:.10g}", f"{v:.12g}", int(p)]
        for kind, points, values, flags in dual
        for x, v, p in zip(points, values, flags)
    )
    _write_csv(out, "dual.csv", "kind,point,value,pinned", rows)
    summary = {
        "gamma": inst.gamma,
        "objective": sol.objective,
        "regime": regime.value,
        "bifurcation": decomp.bifurcation,
        "duality_gap": sol.duality_gap(),
        "n_districts": plan.mass.size,
        "solver": sol.stats,
    }
    _write_report(out, "summary.json", summary)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import lp as lpmod
    from .model import GerryOptError, check_gamma

    if args.jobs != 1:  # perfbench/run.py passes --jobs 1; the flag goes when it stops
        raise GerryOptError(f"--jobs must be 1 (sweeps run in one process), got {args.jobs}")
    gammas = []
    for token in filter(str.strip, args.gammas.split(",")):
        try:
            gammas.append(float(token))
        except ValueError:
            raise GerryOptError(f"--gammas value {token.strip()!r} is not a number") from None
        check_gamma(gammas[-1])
    if not gammas:
        raise GerryOptError("--gammas requires at least one value")
    template = _instance(args, gammas[0])
    out = _outdir(args)
    rows = lpmod.sweep_gamma(template, gammas)
    table = (
        [
            row.gamma,
            "" if row.objective is None else f"{row.objective:.10g}",
            row.regime or "",
            "" if row.bifurcation is None else f"{row.bifurcation:.10g}",
            row.error or "",
        ]
        for row in rows
    )
    print(_write_csv(out, "sweep.csv", "gamma,objective,regime,bifurcation,error", table))
    return EXIT_OK


def cmd_benchmark(args) -> int:
    from . import benchmarks as bm
    from .model import expected_seat_share

    inst = _instance(args, args.gamma)
    no_aggregate = bm.no_aggregate_solution(inst, args.r0)
    out = _outdir(args)
    m = float(inst.type_weights[inst.type_grid >= 0.0].sum())
    pop = bm.optimize_cutoff(inst, bm.pop_pool_plan)
    pc = bm.optimize_cutoff(inst, bm.traditional_pc_plan)
    slices = bm.matching_slices_plan(inst)
    result = {
        "gamma": inst.gamma,
        "perfect_info": bm.perfect_info_value(m),
        "no_aggregate": {
            "cutoff": no_aggregate.cutoff,
            "pool_mean": no_aggregate.pool_mean,
            "value": no_aggregate.value,
            "plan": json.loads(no_aggregate.plan.to_json()),
        },
        "no_idiosyncratic": bm.no_idiosyncratic_value(inst),
        "matching_slices": expected_seat_share(inst, slices),
        "pop_pool": {"cutoff": pop.cutoff, "value": pop.value},
        "traditional_pc": {"cutoff": pc.cutoff, "value": pc.value},
    }
    if args.with_lp:
        from . import lp as lpmod

        sol, _, regime = lpmod.solve_and_classify(inst)
        result["lp_objective"] = sol.objective
        result["lp_regime"] = regime.value
    _write_report(out, "benchmarks.json", result)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify as vf

    inst = _instance(args, args.gamma)
    out = _outdir(args)
    if args.pap:
        report = vf.pap_report(inst.gamma, inst.taste)
    else:
        from . import lp as lpmod

        report = vf.report(*lpmod.solve_and_classify(inst))
    _write_report(out, "verification.json", report)
    return EXIT_OK if report["all_ok"] else EXIT_VERIFY


def cmd_estimate(args) -> int:
    from . import estimation as est
    from .model import DataError, GerryOptError

    if not 0.0 < args.alpha < 1.0:
        raise GerryOptError(f"--alpha must lie strictly between 0 and 1, got {args.alpha!r}")
    if not args.input:
        raise GerryOptError("--input is required")
    returns, report = est.ingest(args.input, strict=args.strict)
    out = _outdir(args)  # after the read, so input that cannot be read leaves no --out directory
    _write_csv(out, "bad_rows.csv", "line,message", report.bad_rows)
    if not len(returns):
        raise DataError("no records remain after filtering")
    rows, skipped = [], []
    states = returns.states.tolist()
    for code, state in enumerate(states):
        try:
            sub = returns.select(returns.state == code)
            rows.append((state, est.estimate_gamma(sub, alpha=args.alpha)))
        except DataError as exc:  # e.g. single-election state
            skipped.append({"state": state, "reason": str(exc)})
    if len(states) > 1:
        rows.append(("ALL", est.estimate_gamma(returns, alpha=args.alpha)))
    elif skipped:  # the only state is all the records
        raise DataError(skipped[0]["reason"])
    table = ([s, f"{g.gamma_hat:.6f}", f"{g.ci_low:.6f}", f"{g.ci_high:.6f}", g.T, g.n_precincts] for s, g in rows)
    path = _write_csv(out, "estimates.csv", "state,gamma_hat,ci_low,ci_high,T,n_precincts", table)
    if args.descriptives:
        ds = est.descriptive_summaries(returns)
        share = zip(ds.share_bin_edges, ds.share_bin_edges[1:], ds.share_hist)
        _write_csv(out, "share_hist.csv", "bin_low,bin_high,density", ([lo, hi, f"{d:.10g}"] for lo, hi, d in share))
        swing = zip(ds.swing_bin_edges, ds.swing_bin_edges[1:], ds.swing_hist)
        _write_csv(out, "swing_hist.csv", "bin_low,bin_high,count", ([lo, hi, int(c)] for lo, hi, c in swing))
        qq = (
            [f"{v:.4f}", year, f"{mv:.8f}"]
            for year, curve in sorted(ds.qq_curves.items())
            for v, mv in zip(ds.qq_grid, curve)
        )
        _write_csv(out, "qq.csv", "grid_v,year,matched_v", qq)
    print(
        json.dumps(
            {
                "states": len(states),
                "kept": report.n_kept,
                "dropped": report.n_input - report.n_kept,
                "bad_rows": len(report.bad_rows),
                "skipped_states": skipped,
                "estimates": path,
            }
        )
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import estimation as est

    with _output(_outdir(args), "returns.csv") as path:
        est.simulate_returns(
            path,
            gamma=args.gamma,
            T=args.elections,
            n_precincts=args.precincts,
            votes_per_precinct=args.votes,
            seed=args.seed,
        )
    print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gerryopt", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    def instance(p, gamma=True):
        if gamma:
            p.add_argument("--gamma", type=float)
        p.add_argument("--grid", type=int, default=201, help="type grid size (odd, >= 3)")
        p.add_argument("--taste", choices=["normal", "logistic"], default="normal")

    def output(p):
        p.add_argument("--out", default=None, help="output dir (default $GERRYOPT_OUT or .)")
        p.add_argument("--schema", action="store_true", help="print output schema and exit")

    p = command("solve", cmd_solve, "solve the designer LP at one gamma")
    instance(p)
    output(p)

    p = command("sweep", cmd_sweep, "solve across a gamma list")
    instance(p, gamma=False)
    output(p)
    p.add_argument("--gammas", default="", help="comma-separated gamma values")
    p.add_argument("--jobs", type=int, default=1, help="accepted only as 1, until the benchmark drops it")

    p = command("benchmark", cmd_benchmark, "closed-form benchmarks and heuristic plans")
    instance(p)
    output(p)
    p.add_argument("--r0", type=float, default=0.5, help="known shock for the no-aggregate benchmark")
    p.add_argument("--with-lp", action="store_true", help="also solve the LP for comparison")

    p = command("verify", cmd_verify, "structural and duality checks on a fresh solve")
    instance(p)
    output(p)
    p.add_argument("--pap", action="store_true", help="run the quadruple-scan certificate instead")

    p = command("estimate", cmd_estimate, "estimate gamma from precinct returns CSV")
    output(p)
    p.add_argument("--input", required=False)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--strict", action="store_true", help="malformed rows are fatal")
    p.add_argument("--descriptives", action="store_true", help="also emit histogram and Q-Q CSVs")

    p = command("simulate", cmd_simulate, "write synthetic precinct returns")
    p.add_argument("--gamma", type=float, default=14.75)
    output(p)
    p.add_argument("--elections", type=int, default=3)
    p.add_argument("--precincts", type=int, default=1000)
    p.add_argument("--votes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse config errors -> exit code 2
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    if args.schema:
        print(json.dumps(SCHEMAS[args.command], indent=2))
        return EXIT_OK
    from .model import GerryOptError

    try:
        return args.func(args)
    except (GerryOptError, OSError, UnicodeDecodeError) as exc:
        kind = getattr(exc, "kind", "data")  # a file that cannot be read, or is not UTF-8 text, is bad data
        print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
        return EXIT_CODES[kind]


if __name__ == "__main__":
    sys.exit(main())
