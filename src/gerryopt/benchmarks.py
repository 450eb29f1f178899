"""Closed-form benchmark values and heuristic plan families.

Three limiting benchmarks (perfect information, no aggregate uncertainty, no
idiosyncratic uncertainty) plus the two classic plan families:
pack-opponents-and-pool (segregate the bottom, pool the rest) and traditional
pack-and-crack (two pooled districts), each built as one ``model.Plan`` table.
Cutoffs are optimized by exhaustive scan over the type grid, solving every
candidate plan's thresholds in one ``district_threshold`` call.
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
    s = inst.type_grid
    cum = np.cumsum(inst.type_weights)
    g_at = np.asarray(inst.G(s), dtype=float)
    value = float(g_at[0])  # r below every type: designer wins all districts
    for i in range(s.size - 1):
        value += min(1.0, 2.0 * (1.0 - cum[i])) * float(g_at[i + 1] - g_at[i])
    return value


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


def pop_pool_plan(inst: ProblemInstance, s_star: float) -> Plan:
    """Pack-opponents-and-pool: segregate below the cutoff, pool the rest."""
    grid, f = inst.type_grid, inst.type_weights
    if not grid[0] <= s_star <= grid[-1]:
        raise GerryOptError("cutoff outside the type grid range")
    low = (grid < s_star) & (f > 0)
    high = (grid >= s_star) & (f > 0)
    if not np.any(high):
        return segregation_plan(inst)
    mass = f[high].sum()
    return _segregate_and_pool(grid[low], f[low], grid[high], f[high] / mass, mass)


def traditional_pc_plan(inst: ProblemInstance, s_star: float) -> Plan:
    """Traditional pack-and-crack: one pool below the cutoff, one above."""
    grid, f = inst.type_grid, inst.type_weights
    if not grid[0] <= s_star <= grid[-1]:
        raise GerryOptError("cutoff outside the type grid range")
    keep = f > 0
    w = f[keep]
    district = (grid[keep] >= s_star).astype(np.intp)
    district -= district[0]  # a single pool when no type lies below the cutoff
    mass = np.array([w[district == d].sum() for d in range(district[-1] + 1)])
    return Plan(district=district, types=grid[keep], weights=w / mass[district], mass=mass)


def optimize_cutoff(inst: ProblemInstance, builder) -> BenchmarkResult:
    """Exhaustive scan of the cutoff over the type grid: the thresholds of all
    candidate plans are solved in one call, and the first best cutoff wins."""
    plans = [builder(inst, float(s_star)) for s_star in inst.type_grid]
    sizes = np.array([plan.mass.size for plan in plans])
    offsets = np.cumsum(sizes) - sizes
    r = district_threshold(
        inst,
        np.concatenate([plan.district + o for plan, o in zip(plans, offsets)]),
        np.concatenate([plan.types for plan in plans]),
        np.concatenate([plan.weights for plan in plans]),
    )
    seats = np.concatenate([plan.mass for plan in plans]) * inst.G(r)
    k = int(np.argmax(np.bincount(np.repeat(np.arange(len(plans)), sizes), weights=seats)))
    s_star, plan = float(inst.type_grid[k]), plans[k]
    above = inst.type_grid >= s_star
    w = inst.type_weights[above]
    pool_mean = float(w @ inst.type_grid[above] / w.sum()) if w.sum() > 0 else None
    return BenchmarkResult(cutoff=s_star, pool_mean=pool_mean, value=expected_seat_share(inst, plan), plan=plan)
