"""Closed-form benchmark values and heuristic plan families.

Three limiting benchmarks (perfect information, no aggregate uncertainty, no
idiosyncratic uncertainty) plus the two classic plan families:
pack-opponents-and-pool (segregate the bottom, pool the rest) and traditional
pack-and-crack (two pooled districts).  A family's plans at many cutoffs are
one cutoff x type table of (district, type, weight) entries; one cutoff's plan
is its one-row table as a ``model.Plan``.  Cutoffs are optimized by exhaustive
scan over the type grid: the family's table is solved in one
``district_threshold`` call, and only the winning cutoff becomes a ``Plan``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    MASS_TOL,
    ROUNDING_TOL,
    GerryOptError,
    Plan,
    ProblemInstance,
    check_plan_entries,
    district_threshold,
    expected_seat_share,
    segregation_plan,
    uniform_plan,
    vote_share,
)


@dataclass(frozen=True)
class BenchmarkResult:
    cutoff: float | None
    pool_mean: float | None
    value: float
    plan: Plan


def perfect_info_value(m: float) -> float:
    """Skew measure 2m of districts to a bare majority of supporters."""
    if not 0.0 <= m <= 1.0:
        raise GerryOptError("supporter share must lie in [0, 1]")
    return min(1.0, 2.0 * m)


def no_aggregate_solution(inst: ProblemInstance, r0: float) -> BenchmarkResult:
    """Optimum under a known shock r0: pool the top so it votes exactly 1/2.

    Finds the cutoff s* with mean vote share 1/2 above it (splitting the
    boundary type fractionally), segregates everything below.  The pool wins
    with certainty, so the value is its mass 1 - F(s*).  When no type votes
    for the designer at r0, no district can be won: the value is 0 and the
    plan is full segregation.
    """
    if not np.isfinite(r0):
        raise GerryOptError(f"r0 must be finite, got {r0!r}")
    v = np.asarray(vote_share(inst, inst.type_grid, r0), dtype=float)
    f = inst.type_weights
    if float(f @ v) >= 0.5:  # designer already holds a majority
        return BenchmarkResult(
            cutoff=float(inst.type_grid[0]),
            pool_mean=float(f @ inst.type_grid),
            value=1.0,
            plan=uniform_plan(inst),
        )

    # from the top, cumulative f (v - 1/2) starts positive and decreases;
    # types pool whole while it stays nonnegative, and the first type below
    # joins fractionally so the pool balances exactly
    excess = f * (v - 0.5)
    acc = np.r_[np.cumsum(excess[::-1])[::-1], 0.0]
    pool = f.copy()
    short = np.flatnonzero((acc[:-1] < 0.0) & (excess < 0.0))
    if short.size:
        i = short[-1]
        pool[:i] = 0.0
        pool[i] = f[i] * min(max(-acc[i + 1] / excess[i], 0.0), 1.0)
    keep = pool > ROUNDING_TOL
    if not keep.any():
        return BenchmarkResult(cutoff=None, pool_mean=None, value=0.0, plan=segregation_plan(inst))

    pool = np.where(keep, pool, 0.0)  # the residue leaves the pool mass too, so the pool weights sum to 1
    grid, left = inst.type_grid, f - pool
    seg = left > ROUNDING_TOL
    pool_mass = float(pool.sum())
    pool_w = pool[keep] / pool_mass
    return BenchmarkResult(
        cutoff=float(grid[np.flatnonzero(keep)[0]]),
        pool_mean=float(pool_w @ grid[keep]),
        value=pool_mass,
        plan=_segregate_and_pool(grid[seg], left[seg], grid[keep], pool_w, pool_mass),
    )


def _segregate_and_pool(seg_types, seg_mass, pool_types, pool_weights, pool_mass) -> Plan:
    """One one-type district per ``seg_types`` entry, then one pooled district."""
    n = seg_types.size
    district = np.minimum(np.arange(n + pool_types.size), n)
    return Plan(district, np.r_[seg_types, pool_types], np.r_[np.ones(n), pool_weights], np.r_[seg_mass, pool_mass])


def no_idiosyncratic_value(inst: ProblemInstance) -> float:
    """Optimum when every voter in a district votes identically.

    The winning probability of the optimal plan is min(1, 2(1 - F(r)))
    integrated over the shock; exact for the step population cdf F.
    """
    cum = np.cumsum(inst.type_weights)
    g_at = np.asarray(inst.G(inst.type_grid), dtype=float)
    # g_at[0]: r below every type, the designer wins all districts; cumsum adds left to right
    steps = np.minimum(1.0, 2.0 * (1.0 - cum[:-1])) * np.diff(g_at)
    return float(np.cumsum(np.r_[g_at[0], steps])[-1])


def step_threshold(plan: Plan) -> np.ndarray:
    """District thresholds in the no-idiosyncratic limit (step vote shares):
    for each district, the largest type at which at least half the district's
    mass lies weakly above, i.e. the upper median."""
    order = np.lexsort((plan.types, plan.district))
    d, t = plan.district[order], plan.types[order]
    after = np.r_[np.cumsum(plan.weights[order][::-1])[::-1], 0.0]  # mass from each entry on
    ends = np.flatnonzero(np.r_[d[1:] != d[:-1], True]) + 1  # one past each district
    tail = after[:-1] - after[ends][d]  # district mass weakly above each entry
    n_above = np.bincount(d[tail >= 0.5 - MASS_TOL], minlength=ends.size)
    return t[np.r_[0, ends[:-1]] + n_above - 1]


def no_idio_plan_value(inst: ProblemInstance, plan: Plan) -> float:
    """Plan value when every voter in a district votes identically: each
    district is won iff the shock is below its upper-median type."""
    return float(plan.mass @ inst.G(step_threshold(plan)))


def matching_slices_plan(inst: ProblemInstance) -> Plan:
    """Pair the u-th quantile with the (1-u)-th in half/half districts."""
    f = inst.type_weights.copy()
    lo, hi = 0, f.size - 1
    rows = []  # (low type index, high type index, mass); low == high is one type
    while lo <= hi:
        while lo < f.size and f[lo] <= ROUNDING_TOL:
            lo += 1
        while hi >= 0 and f[hi] <= ROUNDING_TOL:
            hi -= 1
        if lo > hi:
            break
        if lo == hi:
            rows.append((lo, lo, f[lo]))
            break
        t = min(f[lo], f[hi])
        rows.append((lo, hi, 2.0 * t))
        f[lo] -= t
        f[hi] -= t
    low, high, mass = (np.array(col) for col in zip(*rows))
    pair = high != low
    district = np.repeat(np.arange(low.size), 1 + pair)
    first = np.r_[True, np.diff(district) > 0]
    types = inst.type_grid[np.where(first, low[district], high[district])]
    return Plan(district, types, np.where(pair, 0.5, 1.0)[district], mass)


def _pop_pool_districts(j, n_low):
    """District of type j when n_low types lie below the cutoff: one each below, one pool above."""
    return np.minimum(j, n_low)


def _pack_and_crack_districts(j, n_low):
    """District of type j when n_low types lie below the cutoff: one pool
    below, one above, or a single pool when every type lies on one side."""
    above = (j >= n_low).astype(np.intp)
    return above - above[:, :1]


def _cutoff_table(inst: ProblemInstance, cutoffs: np.ndarray, family) -> tuple:
    """Every cutoff's plan of ``family`` as one cutoff x type table.

    Row k holds the plan at ``cutoffs[k]`` as (district, type, weight)
    entries, one per positive-weight type, with district codes running on
    from row to row; ``mass`` holds a mass per district and ``row`` the row
    it belongs to.  A district's mass is the sum of its types' weights.
    Every row gets the checks ``Plan`` makes of one plan."""
    keep = inst.type_weights > 0
    types, f = inst.type_grid[keep], inst.type_weights[keep]
    local = family(np.arange(types.size), np.searchsorted(types, cutoffs)[:, None])
    sizes = local[:, -1] + 1
    district = (local + (np.cumsum(sizes) - sizes)[:, None]).ravel()
    f = np.broadcast_to(f, local.shape).ravel()
    mass = np.bincount(district, weights=f)
    weights = f / mass[district]
    row = np.repeat(np.arange(sizes.size), sizes)
    check_plan_entries(district, weights, mass, row)
    return district, np.tile(types, sizes.size), weights, mass, row


def _cutoff_plan(inst: ProblemInstance, s_star: float, family) -> Plan:
    """The one-row table of ``family`` at ``s_star`` as a ``Plan``."""
    if not inst.type_grid[0] <= s_star <= inst.type_grid[-1]:
        raise GerryOptError("cutoff outside the type grid range")
    district, types, weights, mass, _row = _cutoff_table(inst, np.array([s_star]), family)
    return Plan(district, types, weights, mass)


def pop_pool_plan(inst: ProblemInstance, s_star: float) -> Plan:
    """Pack-opponents-and-pool: segregate below the cutoff, pool the rest."""
    return _cutoff_plan(inst, s_star, _pop_pool_districts)


def traditional_pc_plan(inst: ProblemInstance, s_star: float) -> Plan:
    """Traditional pack-and-crack: one pool below the cutoff, one above."""
    return _cutoff_plan(inst, s_star, _pack_and_crack_districts)


_FAMILIES = {pop_pool_plan: _pop_pool_districts, traditional_pc_plan: _pack_and_crack_districts}


def optimize_cutoff(inst: ProblemInstance, builder) -> BenchmarkResult:
    """Exhaustive scan of the cutoff over the type grid for the family of
    ``builder``: the family's cutoff x type table is solved in one
    ``district_threshold`` call, and the first best cutoff wins.  Only the
    winner is built as a plan, after the table is freed."""
    grid = inst.type_grid
    district, types, weights, mass, row = _cutoff_table(inst, grid, _FAMILIES[builder])
    seats = mass * inst.G(district_threshold(inst, district, types, weights))
    k = int(np.argmax(np.bincount(row, weights=seats)))
    del district, types, weights, mass, row, seats
    s_star = float(grid[k])
    plan = builder(inst, s_star)
    above = grid >= s_star
    w = inst.type_weights[above]
    pool_mean = float(w @ grid[above] / w.sum()) if w.sum() > 0 else None
    return BenchmarkResult(cutoff=s_star, pool_mean=pool_mean, value=expected_seat_share(inst, plan), plan=plan)
