"""Closed-form benchmark values and heuristic plan families.

Four limiting benchmarks (perfect information, no aggregate uncertainty, no
idiosyncratic uncertainty, linear vote shares) plus the two classic plan
families: pack-opponents-and-pool (segregate the bottom, pool the rest) and
traditional pack-and-crack (two pooled districts).  Cutoffs are optimized by
exhaustive scan over the type grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import (
    District,
    GerryOptError,
    Plan,
    ProblemInstance,
    expected_seat_share,
    point_district,
    segregation_plan,
    uniform_plan,
    vote_share,
)

SHAPE_TOL = 1e-9  # numerical slack of the S-shape and linearity checks


@dataclass(frozen=True)
class SShapeProfile:
    """Seat payoff of a pooled district as a function of its mean type."""

    U: object               # callable x -> G(r*(x))
    inflection: float       # convexity flips from convex to concave here

    def validate(self, grid: np.ndarray) -> bool:
        """U increasing, convex below the inflection, concave above (on grid)."""
        x = np.asarray(grid, dtype=float)
        u = np.asarray(self.U(x), dtype=float)
        if np.any(np.diff(u) < -SHAPE_TOL):
            return False
        second = np.diff(u, 2)
        mid = x[1:-1]
        lo = second[mid < self.inflection - 1e-12]
        hi = second[mid > self.inflection + 1e-12]
        return bool(np.all(lo >= -SHAPE_TOL) and np.all(hi <= SHAPE_TOL))


def s_shape_from_instance(inst: ProblemInstance) -> SShapeProfile:
    """In the linear case a pool's threshold is its mean, so U(x) = G(x)."""
    return SShapeProfile(U=lambda x: inst.G(x), inflection=0.0)


@dataclass(frozen=True)
class BenchmarkResult:
    cutoff: float | None
    pool_mean: float | None
    value: float
    plan: Plan | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "cutoff": self.cutoff,
                "pool_mean": self.pool_mean,
                "value": self.value,
                "plan": None if self.plan is None else json.loads(self.plan.to_json()),
            }
        )


def perfect_info_value(m: float) -> float:
    """Skew measure 2m of districts to a bare majority of supporters."""
    if not 0.0 <= m <= 1.0:
        raise GerryOptError("supporter share must lie in [0, 1]")
    return min(1.0, 2.0 * m)


def no_aggregate_solution(inst: ProblemInstance, r0: float) -> BenchmarkResult:
    """Optimum under a known shock r0: pool the top so it votes exactly 1/2.

    Finds the cutoff s* with mean vote share 1/2 above it (splitting the
    boundary type fractionally), segregates everything below.  The pool wins
    with certainty, so the value is its mass 1 - F(s*).
    """
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
    # include the boundary type fractionally so the pool balances exactly
    excess = f * (v - 0.5)
    pool = np.zeros_like(f)
    acc = 0.0
    for i in range(f.size - 1, -1, -1):
        if acc + excess[i] >= 0.0 or excess[i] >= 0.0:
            pool[i] = f[i]
            acc += excess[i]
        else:
            frac = -acc / excess[i]  # excess[i] < 0 <= acc
            pool[i] = f[i] * min(max(frac, 0.0), 1.0)
            acc += pool[i] / f[i] * excess[i]
            break

    districts = []
    for i in range(f.size):
        left = f[i] - pool[i]
        if left > 1e-15:
            districts.append((point_district(inst.type_grid[i]), float(left)))
    keep = pool > 1e-15
    pool_mass = float(pool.sum())
    pool_d = District(types=inst.type_grid[keep], weights=pool[keep] / pool_mass)
    districts.append((pool_d, pool_mass))
    cutoff_idx = int(np.flatnonzero(keep)[0])
    return BenchmarkResult(
        cutoff=float(inst.type_grid[cutoff_idx]),
        pool_mean=pool_d.mean_type(),
        value=pool_mass,
        plan=Plan(districts=districts),
    )


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


def step_threshold(district: District) -> float:
    """District threshold in the no-idiosyncratic limit (step vote shares):
    the largest type at which at least half the district's mass lies weakly
    above, i.e. the upper median."""
    order = np.argsort(district.types)
    tail = np.cumsum(district.weights[order][::-1])[::-1]
    return float(district.types[order][tail >= 0.5 - 1e-12][-1])


def no_idio_plan_value(inst: ProblemInstance, plan: Plan) -> float:
    """Plan value when every voter in a district votes identically: each
    district is won iff the shock is below its upper-median type."""
    return float(sum(m * float(inst.G(step_threshold(d))) for d, m in plan.districts))


def matching_slices_plan(inst: ProblemInstance) -> Plan:
    """Pair the u-th quantile with the (1-u)-th in half/half districts."""
    f = inst.type_weights.copy()
    grid = inst.type_grid
    lo, hi = 0, f.size - 1
    districts = []
    while lo <= hi:
        while lo < f.size and f[lo] <= 1e-15:
            lo += 1
        while hi >= 0 and f[hi] <= 1e-15:
            hi -= 1
        if lo > hi:
            break
        if lo == hi:
            districts.append((point_district(grid[lo]), float(f[lo])))
            break
        t = min(f[lo], f[hi])
        districts.append(
            (
                District(types=np.array([grid[lo], grid[hi]]), weights=np.array([0.5, 0.5])),
                float(2.0 * t),
            )
        )
        f[lo] -= t
        f[hi] -= t
    return Plan(districts=districts)


def pop_pool_plan(inst: ProblemInstance, s_star: float) -> Plan:
    """Pack-opponents-and-pool: segregate below the cutoff, pool the rest."""
    grid, f = inst.type_grid, inst.type_weights
    if not grid[0] <= s_star <= grid[-1]:
        raise GerryOptError("cutoff outside the type grid range")
    low = (grid < s_star) & (f > 0)
    high = (grid >= s_star) & (f > 0)
    if not np.any(high):
        return segregation_plan(inst)
    districts = [(point_district(s), float(w)) for s, w in zip(grid[low], f[low])]
    mass = float(f[high].sum())
    districts.append((District(types=grid[high], weights=f[high] / mass), mass))
    return Plan(districts=districts)


def traditional_pc_plan(inst: ProblemInstance, s_star: float) -> Plan:
    """Traditional pack-and-crack: one pool below the cutoff, one above."""
    grid, f = inst.type_grid, inst.type_weights
    if not grid[0] <= s_star <= grid[-1]:
        raise GerryOptError("cutoff outside the type grid range")
    low = (grid < s_star) & (f > 0)
    high = (grid >= s_star) & (f > 0)
    districts = []
    for mask in (low, high):
        if np.any(mask):
            mass = float(f[mask].sum())
            districts.append((District(types=grid[mask], weights=f[mask] / mass), mass))
    return Plan(districts=districts)


def optimize_cutoff(inst: ProblemInstance, builder) -> BenchmarkResult:
    """Exhaustive scan of the cutoff over the type grid."""
    best = None
    for s_star in inst.type_grid:
        plan = builder(inst, float(s_star))
        value = expected_seat_share(inst, plan, check=False)
        if best is None or value > best[1]:
            best = (float(s_star), value, plan)
    s_star, value, plan = best
    above = inst.type_grid >= s_star
    w = inst.type_weights[above]
    pool_mean = float(w @ inst.type_grid[above] / w.sum()) if w.sum() > 0 else None
    return BenchmarkResult(cutoff=s_star, pool_mean=pool_mean, value=value, plan=plan)


@dataclass(frozen=True)
class LinearPopResult:
    s_star: float
    x_star: float
    value: float
    boundary: bool  # no interior optimum; the scan stopped at a grid endpoint


def linear_pop_foc(
    profile: SShapeProfile, type_grid: np.ndarray, type_weights: np.ndarray
) -> LinearPopResult:
    """Optimal pack-opponents-and-pool cutoff in the linear case.

    Scans the cutoff s* over the grid maximizing
        sum_{s < s*} U(s) f(s) + U(x*) (1 - F(s*)),   x* = E[s | s >= s*],
    which at an interior optimum satisfies u(x*)(x* - s*) = U(x*) - U(s*).
    """
    grid = np.asarray(type_grid, dtype=float)
    f = np.asarray(type_weights, dtype=float)
    if not profile.validate(grid):
        raise GerryOptError("payoff profile is not S-shaped on the grid")
    u_at = np.asarray(profile.U(grid), dtype=float)
    best = None
    for k in range(grid.size):
        pool_w = f[k:]
        mass = float(pool_w.sum())
        seg_value = float(f[:k] @ u_at[:k])
        if mass <= 0:
            value, x_star = seg_value, grid[-1]
        else:
            x_star = float(pool_w @ grid[k:] / mass)
            value = seg_value + float(profile.U(x_star)) * mass
        if best is None or value > best[1] + 1e-15:
            best = (k, value, x_star)
    k, value, x_star = best
    return LinearPopResult(
        s_star=float(grid[k]),
        x_star=float(x_star),
        value=float(value),
        boundary=k in (0, grid.size - 1),
    )


def check_linearity(inst: ProblemInstance) -> bool:
    """True iff v(s, r) is affine in s across the grid support for every r."""
    live = inst.type_grid[inst.type_weights > 0]
    if live.size <= 2:
        return True
    v = np.asarray(vote_share(inst, live[:, None], inst.type_grid[None, :]), dtype=float)
    span = live[-1] - live[0]
    w = (live - live[0]) / span
    interp = v[0][None, :] + w[:, None] * (v[-1] - v[0])[None, :]
    return bool(np.max(np.abs(v - interp)) <= SHAPE_TOL)
