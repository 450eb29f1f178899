"""Correctness gate: every CLI output the benchmark produces is checked here.

Each check returns a list of failure messages; an empty list means the output
is correct.  A message names the check and the values that broke it.  The LP
values are pinned from the seed implementation on the fixed benchmark inputs.
The estimation values depend on the workload seed, so they are compared with
an independent columnar reimplementation of the filters and the estimator
(``reference_estimates``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import chi2

TOL = 1e-9

FIG_GAMMAS = (0.2, 0.5, 1.0, 1.2, 1.4, 1.6, 1.7, 3.0, 6.0)
FIG_LABELS = ("PMP", "PMP", "PMP", "MixedPMP", "MixedPMP", "MixedPOP", "POP", "POP", "POP")
# sweep.csv objectives at --grid 101 (printed with 10 significant digits).
FIG_OBJECTIVES = (
    0.5024857883,
    0.5061815508,
    0.5127522118,
    0.5158260551,
    0.5195069836,
    0.5249156233,
    0.5283188824,
    0.5876504391,
    0.7102783808,
)

SOLVE_GAMMA = 2.0
SOLVE_OBJECTIVE = 0.539605124881839  # summary.json at gamma=2, 201-point grid

# benchmarks.json at gamma=2, 201-point grid, r0=0.5; dotted keys index nested objects.
BENCHMARK_VALUES = {
    "perfect_info": 1.0,
    "no_aggregate.cutoff": 0.0,
    "no_aggregate.value": 0.5024875621890552,
    "no_idiosyncratic": 0.8056265783055411,
    "matching_slices": 0.49999999999999906,
    "pop_pool.cutoff": -0.51,
    "pop_pool.value": 0.5377390974981663,
    "traditional_pc.cutoff": -0.55,
    "traditional_pc.value": 0.5361228008052256,
}

# estimates.csv prints gamma_hat and the interval with 6 decimals, so the
# comparison allows the rounding half-unit on top of TOL.
ESTIMATE_TOL = 0.5e-6 + TOL


def _close(got, want, tol=TOL) -> bool:
    return got is not None and math.isfinite(got) and abs(got - want) <= tol


def _exit(name: str, rc: int, want: int = 0) -> list:
    return [] if rc == want else [f"{name}: exit code {rc}, expected {want}"]


def check_sweep(rc: int, rows: list | None) -> list:
    """One message per failed sweep row (rows: dicts read from sweep.csv)."""
    if rc != 0 or rows is None:
        return [f"sweep: exit code {rc}; row gamma={g} not produced" for g in FIG_GAMMAS]
    failures = []
    by_gamma = {float(r["gamma"]): r for r in rows}
    for g, label, obj in zip(FIG_GAMMAS, FIG_LABELS, FIG_OBJECTIVES):
        row = by_gamma.get(g)
        if row is None:
            failures.append(f"sweep gamma={g}: row missing")
        elif row["error"]:
            failures.append(f"sweep gamma={g}: row error {row['error']!r}")
        elif row["regime"] != label:
            failures.append(f"sweep gamma={g}: regime {row['regime']} != {label}")
        elif not _close(_float(row["objective"]), obj):
            failures.append(f"sweep gamma={g}: objective {row['objective']} != {obj!r} (tol {TOL:g})")
    if len(rows) != len(FIG_GAMMAS):
        failures.append(f"sweep: {len(rows)} rows, expected {len(FIG_GAMMAS)}")
    return failures


def check_solve(rc: int, summary: dict | None) -> list:
    if rc != 0 or summary is None:
        return _exit("solve", rc) or ["solve: summary.json missing"]
    got = summary.get("objective")
    if not _close(got, SOLVE_OBJECTIVE):
        return [f"solve gamma={SOLVE_GAMMA}: objective {got!r} != {SOLVE_OBJECTIVE!r} (tol {TOL:g})"]
    return []


def check_verify(rc: int, report: dict | None) -> list:
    if report is None:
        return _exit("verify", rc) or ["verify: verification.json missing"]
    failures = _exit("verify", rc)
    if report.get("all_ok") is not True:
        bad = sorted(
            k for k, c in report.get("checks", {}).items() if not c.get("ok") and not c.get("informational")
        )
        failures.append(f"verify gamma={SOLVE_GAMMA}: all_ok={report.get('all_ok')!r}, failing checks {bad}")
    return failures


def check_pap(rc: int, report: dict | None) -> list:
    if report is None:
        return _exit("verify --pap", rc) or ["verify --pap: verification.json missing"]
    failures = _exit("verify --pap", rc)
    n = report.get("checks", {}).get("pap_condition", {}).get("detail", {}).get("n_violations")
    if n != 0:
        failures.append(f"verify --pap gamma={SOLVE_GAMMA}: {n!r} violations, expected 0")
    return failures


def check_benchmark(rc: int, result: dict | None) -> list:
    if rc != 0 or result is None:
        return _exit("benchmark", rc) or ["benchmark: benchmarks.json missing"]
    failures = []
    for key, want in BENCHMARK_VALUES.items():
        got = result
        for part in key.split("."):
            got = got.get(part) if isinstance(got, dict) else None
        if not isinstance(got, (int, float)) or not _close(float(got), want):
            failures.append(f"benchmark {key}: {got!r} != {want!r} (tol {TOL:g})")
    return failures


def check_simulate(rc: int, rows: list | None, n_rows: int) -> list:
    if rc != 0 or rows is None:
        return _exit("simulate", rc) or ["simulate: returns.csv missing"]
    failures = []
    if len(rows) != n_rows:
        failures.append(f"simulate: {len(rows)} rows, expected {n_rows}")
    bad = [r for r in rows if not 0.0 < _float(r[5], -1.0) < 1.0 or r[6] != "1"]
    if bad:
        failures.append(f"simulate: {len(bad)} rows with a share outside (0, 1) or uncontested, first {bad[0]}")
    return failures


def _float(text, default=None):
    try:
        return float(text)
    except (TypeError, ValueError):
        return default


# ---------------------------------------------------------------------------
# Estimation reference


def reference_estimates(table: dict, alpha: float = 0.1) -> dict:
    """Filters and gamma estimator of ``gerryopt estimate``, on columnar arrays.

    ``table`` holds equal-length arrays ``state``, ``district``, ``year``,
    ``votes``, ``share`` and ``contested`` (bool) for every well-formed row.
    Returns the drop count of each filter, the kept count, and one estimate
    per state (in sorted order) followed by ``ALL`` when there are several.
    """
    state, district = table["state"], table["district"]
    year, votes, share = table["year"], table["votes"], table["share"]
    contested = table["contested"]
    unc = set(zip(state[~contested].tolist(), district[~contested].tolist()))
    keep1 = np.array([(s, d) not in unc for s, d in zip(state.tolist(), district.tolist())], dtype=bool)
    keep2 = keep1 & (votes >= 50)
    keep3 = keep2 & (share > 0.0) & (share < 1.0)
    n = state.size

    def estimate(mask):
        w = ndtri(share[mask])
        k = votes[mask].astype(float)
        y = year[mask]
        means = np.array([k[y == t] @ w[y == t] / k[y == t].sum() for t in np.unique(y)])
        T = means.size
        if T < 2:
            return None
        gamma_hat = 1.0 / math.sqrt(float(np.sum((means - means.mean()) ** 2) / (T - 1)))
        return {
            "gamma_hat": gamma_hat,
            "ci_low": math.sqrt(chi2.ppf(alpha / 2.0, T - 1) / (T - 1)) * gamma_hat,
            "ci_high": math.sqrt(chi2.ppf(1.0 - alpha / 2.0, T - 1) / (T - 1)) * gamma_hat,
            "T": T,
            "n_precincts": int(mask.sum()),
        }

    states = sorted(set(state[keep3].tolist()))
    estimates = [(s, e) for s in states if (e := estimate(keep3 & (state == s))) is not None]
    if len(states) > 1:
        estimates.append(("ALL", estimate(keep3)))
    return {
        "dropped_uncontested": int(n - keep1.sum()),
        "dropped_small": int(keep1.sum() - keep2.sum()),
        "dropped_degenerate": int(keep2.sum() - keep3.sum()),
        "kept": int(keep3.sum()),
        "states": len(states),
        "estimates": estimates,
    }


def check_estimate(rc: int, stdout: dict | None, rows: list | None, ref: dict, n_years: int) -> list:
    """Compare ``gerryopt estimate`` outputs with the reference.

    ``stdout`` is the command's JSON summary line; ``rows`` are the dicts
    read from estimates.csv.
    """
    if rc != 0 or stdout is None or rows is None:
        return _exit("estimate", rc) or ["estimate: estimates.csv or summary line missing"]
    failures = []
    for key, want in (("states", ref["states"]), ("kept", ref["kept"]), ("dropped", _dropped(ref))):
        if stdout.get(key) != want:
            failures.append(f"estimate {key}: {stdout.get(key)!r} != {want!r}")
    want_states = [s for s, _ in ref["estimates"]]
    got_states = [r["state"] for r in rows]
    if got_states != want_states:
        return failures + [f"estimate states: {got_states} != {want_states}"]
    for row, (state, want) in zip(rows, ref["estimates"]):
        for key in ("gamma_hat", "ci_low", "ci_high"):
            got = _float(row[key])
            if not _close(got, want[key], ESTIMATE_TOL):
                failures.append(f"estimate {state} {key}: {row[key]} != {want[key]!r} (tol {ESTIMATE_TOL:g})")
        for key in ("T", "n_precincts"):
            if _float(row[key]) != want[key]:
                failures.append(f"estimate {state} {key}: {row[key]} != {want[key]}")
    if rows and any(int(_float(r["T"], 0)) != n_years for r in rows):
        failures.append(f"estimate: some state has T != {n_years}")
    return failures


def check_filter_report(report: dict, ref: dict, n_bad: int) -> list:
    """Per-filter drop counts that ``ingest`` returned, against the reference."""
    failures = []
    want = {k: ref[k] for k in ("dropped_uncontested", "dropped_small", "dropped_degenerate")}
    want["bad_rows"] = n_bad
    want["kept"] = ref["kept"]
    for key, value in want.items():
        if report.get(key) != value:
            failures.append(f"ingest {key}: {report.get(key)!r} != {value!r}")
    return failures


def _dropped(ref: dict) -> int:
    return ref["dropped_uncontested"] + ref["dropped_small"] + ref["dropped_degenerate"]


def check_descriptives(share_hist: list, swing_hist: list, qq: list, n_years: int) -> list:
    failures = []
    total = sum(_float(r["density"], math.nan) for r in share_hist)
    if len(share_hist) != 20 or not _close(total, 1.0, 1e-8):
        failures.append(f"descriptives share_hist: {len(share_hist)} bins summing to {total!r}, expected 20 bins summing to 1")
    if len(swing_hist) != 20:
        failures.append(f"descriptives swing_hist: {len(swing_hist)} bins, expected 20")
    if len(qq) != 19 * n_years:
        failures.append(f"descriptives qq: {len(qq)} rows, expected {19 * n_years}")
    return failures
