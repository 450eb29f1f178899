"""Electoral model core.

Voter types s live on a finite grid with point masses f(s).  A district is a
distribution P over types; it is won at aggregate shock r iff the mean vote
share Q(s - r) over P is at least 1/2, i.e. iff r <= r*(P).  A plan is a
distribution over districts whose type-marginal reproduces the population
weights.  The designer's payoff from a plan is sum of mass * G(r*(P)) where
G(r) = Q(gamma * r).  A plan is one ``Plan`` table of (district, type, weight)
entries plus a mass per district; ``district_threshold`` finds r*(P) for every
district of such entries in one vectorised safeguarded Newton iteration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

# Tolerances, one per role; lp adds the stage-1 IPM_* and FACE_TOL, verify
# DUAL_TOL and PAP_MARGIN.  A plateau is the range over which no verdict moved
# (labels, r_b, objectives to 1e-12, district counts, single-dippedness) on the
# seat-share figure's uniform-grid instances: the nine figure gammas at n=101
# and gamma in {2, 6, 10, 30} at n=201, both tastes.  "worst" is the largest
# value measured.
MASS_TOL = 1e-12      # type weights and district weights sum to 1 within this (plateau 1e-14..1e-6, the largest tried)
ROOT_TOL = 1e-10      # |mean vote share at r* - 1/2|; worst 2.2e-15
FEAS_TOL = 1e-8       # mass conservation: plan marginals, LP residuals, unplaced split mass; worst 7.5e-16
SUPPORT_TOL = 1e-9    # mass below this is numerically zero, and plan masses sum to 1 within it; plateau 1e-15..1e-7
GRID_TOL = 1e-9       # grid coordinates closer than this are one point; plateau 1e-15..1e-3
# Rounding at unit scale, 4 ulp of 1.  Benchmark plans drop masses at or below
# ROUNDING_TOL as the residue of subtracting masses; what they drop stays far
# inside SUPPORT_TOL.
ROUNDING_TOL = 8.9e-16
# Newton stops a district once its step moves r by at most ROOT_STEP_ABS plus
# ROUNDING_TOL of |r|.  Plateau 1e-18..1e-7: r* moves by at most 4e-15 on 60
# random districts with Dirichlet(0.05) weights, and the benchmark command's
# cutoffs do not move and its values by at most 4.4e-16; at 1e-6 r* moves by
# 4.7e-13.
ROOT_STEP_ABS = 1e-14
ROOT_STEPS = 100      # safeguarded Newton steps before a ConvergenceError

_SQRT3_OVER_PI = math.sqrt(3.0) / math.pi  # logistic scale for unit variance


class GerryOptError(Exception):
    """Base class for errors raised by this package."""


class ConvergenceError(GerryOptError):
    """Root finding failed to converge (malformed taste distribution)."""


class InfeasiblePlanError(GerryOptError):
    """A plan's type marginal does not match the population distribution."""


@dataclass(frozen=True)
class TasteDistribution:
    """Idiosyncratic taste shock distribution.

    Must be symmetric about 0 with unit variance and strictly increasing CDF.
    """

    name: str
    cdf: Callable[[np.ndarray], np.ndarray]
    pdf: Callable[[np.ndarray], np.ndarray]


def _logistic_cdf(x):
    # exp overflows to inf for very negative x; 1/(1 + inf) = 0 is the exact limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float) / _SQRT3_OVER_PI))


def _logistic_pdf(x):
    z = np.asarray(x, dtype=float) / _SQRT3_OVER_PI
    p = 1.0 / (1.0 + np.exp(-np.abs(z)))
    return p * (1.0 - p) / _SQRT3_OVER_PI


def _normal_cdf(x):
    return ndtr(np.asarray(x, dtype=float))


def _normal_pdf(x):
    x = np.asarray(x, dtype=float)
    # x * x overflows to inf for |x| > ~1.3e154; exp(-inf) = 0 is the exact limit
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# module-level functions, not lambdas, so instances pickle into sweep workers
NORMAL = TasteDistribution(name="normal", cdf=_normal_cdf, pdf=_normal_pdf)

LOGISTIC = TasteDistribution(name="logistic", cdf=_logistic_cdf, pdf=_logistic_pdf)

_TASTES = {"normal": NORMAL, "logistic": LOGISTIC}


def get_taste(name: str) -> TasteDistribution:
    try:
        return _TASTES[name]
    except KeyError:
        raise GerryOptError(f"unknown taste distribution {name!r}") from None


@dataclass(frozen=True)
class ProblemInstance:
    """One designer problem: type grid, type masses, taste shock, gamma.

    gamma is the ratio of idiosyncratic to aggregate standard deviation; the
    aggregate shock CDF is G(r) = Q(gamma * r) with density gamma * q(gamma*r).
    """

    type_grid: np.ndarray
    type_weights: np.ndarray
    taste: TasteDistribution = NORMAL
    gamma: float = 1.0

    def __post_init__(self):
        grid = np.asarray(self.type_grid, dtype=float)
        w = np.asarray(self.type_weights, dtype=float)
        object.__setattr__(self, "type_grid", grid)
        object.__setattr__(self, "type_weights", w)
        if grid.ndim != 1 or grid.size < 1:
            raise GerryOptError("type_grid must be a nonempty 1-D array")
        if grid.size != w.size:
            raise GerryOptError("type_grid and type_weights must have equal length")
        if not np.all(np.diff(grid) > 0):
            raise GerryOptError("type_grid must be strictly increasing")
        if np.any(w < 0):
            raise GerryOptError("type_weights must be nonnegative")
        if abs(w.sum() - 1.0) > MASS_TOL:
            raise GerryOptError(f"type_weights sum to {w.sum()!r}, expected 1")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise GerryOptError(f"gamma must be finite and positive, got {self.gamma!r}")

    def G(self, r):
        """Aggregate shock CDF, G(r) = Q(gamma * r)."""
        return self.taste.cdf(self.gamma * np.asarray(r, dtype=float))

    def g(self, r):
        """Aggregate shock density, g(r) = gamma * q(gamma * r)."""
        return self.gamma * self.taste.pdf(self.gamma * np.asarray(r, dtype=float))


def uniform_instance(n: int = 201, gamma: float = 1.0, taste: TasteDistribution = NORMAL) -> ProblemInstance:
    """Uniform point masses on an n-point grid over [-1, 1]."""
    grid = np.linspace(-1.0, 1.0, n)
    w = np.full(n, 1.0 / n)
    w[-1] = 1.0 - w[:-1].sum()  # exact unit mass
    return ProblemInstance(type_grid=grid, type_weights=w, taste=taste, gamma=gamma)


def vote_share(inst: ProblemInstance, s, r):
    """Share of type-s voters supporting the designer at shock r: Q(s - r)."""
    return inst.taste.cdf(np.asarray(s, dtype=float) - np.asarray(r, dtype=float))


def district_threshold(inst: ProblemInstance, district, types, weights) -> np.ndarray:
    """Threshold shock r*(P) of every district: the root of mean vote share = 1/2.

    Entries ``(types, weights)`` carry district codes 0..n-1, grouped; the
    result holds the n thresholds.  Mean vote share is strictly decreasing in
    r, so each root is unique.  A one-type district delta_s returns s exactly
    (Q symmetric).  Since Q(0) = 1/2, every other root lies in the closed
    bracket [min t, max t] of its types.  A safeguarded Newton iteration
    starts each district at its weighted-mean type.  It takes the Newton
    step when the step lands inside the bracket (the ends included) and is
    at most half the step before, bisects the bracket otherwise, and stops
    the district once a step moves it by at most
    ``ROOT_STEP_ABS + ROUNDING_TOL * |r|``.  A district's root depends on its
    own entries only.
    """
    district = np.asarray(district)
    types = np.asarray(types, dtype=float)
    sizes = np.bincount(district)
    r = types[np.cumsum(sizes) - sizes]
    multi = sizes > 1
    if not multi.any():
        return r
    keep = multi[district]
    t, w = types[keep], np.asarray(weights, dtype=float)[keep]
    code = np.repeat(np.arange(int(multi.sum())), sizes[multi])
    first = np.cumsum(sizes[multi]) - sizes[multi]

    def excess(z):  # z = t - x per entry
        return np.add.reduceat(w * inst.taste.cdf(z), first) - 0.5

    lo, hi = np.minimum.reduceat(t, first), np.maximum.reduceat(t, first)
    x = np.clip(np.add.reduceat(w * t, first), lo, hi)
    last = np.full(x.size, np.inf)
    active = np.ones(x.size, bool)
    for _ in range(ROOT_STEPS):
        z = t - x[code]
        e = excess(z)
        slope = np.add.reduceat(w * inst.taste.pdf(z), first)
        lo = np.where(e > 0, x, lo)  # still winning at x: the root lies above
        hi = np.where(e < 0, x, hi)
        with np.errstate(divide="ignore"):  # a zero slope gives an infinite step, which bisects
            step = np.divide(e, slope, out=np.zeros_like(e), where=e != 0)
        # the halving test ends a cycle between two bracket ends that
        # rounding noise in the excess can set off
        newton = (lo <= x + step) & (x + step <= hi) & (2.0 * np.abs(step) <= last)
        nxt = np.where(newton, x + step, 0.5 * (lo + hi))
        last = np.abs(nxt - x)
        done = last <= ROOT_STEP_ABS + ROUNDING_TOL * np.abs(x)
        x = np.where(active, nxt, x)
        active &= ~done
        if not active.any():
            break
    else:
        raise ConvergenceError(f"threshold root finding took more than {ROOT_STEPS} steps")
    if not np.all(np.abs(excess(t - x[code])) <= ROOT_TOL):
        raise ConvergenceError(f"threshold root did not reach tolerance {ROOT_TOL:g}")
    r[multi] = x
    return r


def check_plan_entries(district, weights, mass, plan) -> None:
    """Raise ``GerryOptError`` unless every entry weight is positive, each
    district's weights sum to 1 within MASS_TOL, and each plan's masses sum to
    1 within SUPPORT_TOL; district d belongs to plan ``plan[d]``."""
    if np.any(weights <= 0):
        raise GerryOptError("district weights must be strictly positive")
    for sums, name, tol in (
        (np.bincount(district, weights=weights), "district weights", MASS_TOL),
        (np.bincount(plan, weights=mass), "plan masses", SUPPORT_TOL),
    ):
        if np.any(np.abs(sums - 1.0) > tol):
            raise GerryOptError(f"{name} sum to {float(sums[np.argmax(np.abs(sums - 1.0))])!r}, expected 1")


@dataclass(frozen=True)
class Plan:
    """A plan as one table: entry k gives district ``district[k]`` (codes
    0..n-1, each district's entries contiguous) weight ``weights[k]`` on type
    ``types[k]``; ``mass[d]`` is district d's population share, summing to 1."""

    district: np.ndarray
    types: np.ndarray
    weights: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        for name, dtype in (("district", np.intp), ("types", float), ("weights", float), ("mass", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        district, types, weights, mass = self.district, self.types, self.weights, self.mass
        if district.size == 0 or not district.size == types.size == weights.size:
            raise GerryOptError("district support and weights must be nonempty and equal length")
        steps = np.diff(district)
        if district[0] != 0 or np.any((steps != 0) & (steps != 1)) or district[-1] + 1 != mass.size:
            raise GerryOptError("plan entries must be grouped by district codes 0..n-1, one mass each")
        check_plan_entries(district, weights, mass, np.zeros(mass.size, np.intp))

    def type_marginal(self, inst: ProblemInstance) -> np.ndarray:
        """Aggregate mass per instance grid type (types matched by value)."""
        grid = inst.type_grid
        idx = np.clip(np.searchsorted(grid, self.types), 0, grid.size - 1)
        left = np.clip(idx - 1, 0, grid.size - 1)
        take_left = np.abs(grid[left] - self.types) < np.abs(grid[idx] - self.types)
        idx = np.where(take_left, left, idx)
        if np.any(np.abs(grid[idx] - self.types) > GRID_TOL):
            raise GerryOptError("district contains a type not on the instance grid")
        return np.bincount(idx, weights=self.mass[self.district] * self.weights, minlength=grid.size)

    def to_json(self) -> str:
        support = np.column_stack([self.types, self.weights]).tolist()
        bounds = np.flatnonzero(np.r_[True, np.diff(self.district) != 0, True]).tolist()
        return json.dumps(
            [{"support": support[a:b], "mass": m} for a, b, m in zip(bounds, bounds[1:], self.mass.tolist())]
        )

    @staticmethod
    def from_json(text: str) -> "Plan":
        data = json.loads(text)
        support = np.array([pair for entry in data for pair in entry["support"]], dtype=float).reshape(-1, 2)
        district = np.repeat(np.arange(len(data)), [len(entry["support"]) for entry in data])
        return Plan(district, support[:, 0], support[:, 1], [entry["mass"] for entry in data])


def uniform_plan(inst: ProblemInstance) -> Plan:
    """Single district equal to the population distribution."""
    keep = inst.type_weights > 0
    w = inst.type_weights[keep]
    return Plan(district=np.zeros(w.size, dtype=np.intp), types=inst.type_grid[keep], weights=w / w.sum(), mass=[1.0])


def segregation_plan(inst: ProblemInstance) -> Plan:
    """One point-mass district per type with positive weight."""
    keep = inst.type_weights > 0
    k = int(keep.sum())
    return Plan(district=np.arange(k), types=inst.type_grid[keep], weights=np.ones(k), mass=inst.type_weights[keep])


@dataclass(frozen=True)
class FeasibilityReport:
    max_deviation: float

    @property
    def feasible(self) -> bool:
        return self.max_deviation <= FEAS_TOL


def check_feasibility(inst: ProblemInstance, plan: Plan) -> FeasibilityReport:
    """Per-type deviation between the plan's marginal and the population."""
    dev = plan.type_marginal(inst) - inst.type_weights
    return FeasibilityReport(max_deviation=float(np.max(np.abs(dev))))


def expected_seat_share(inst: ProblemInstance, plan: Plan) -> float:
    """Designer's objective: sum over districts of mass * G(r*(P))."""
    report = check_feasibility(inst, plan)
    if not report.feasible:
        raise InfeasiblePlanError(
            f"plan marginal deviates by {report.max_deviation:.3e} > {FEAS_TOL:.1e}"
        )
    r = district_threshold(inst, plan.district, plan.types, plan.weights)
    return float(plan.mass @ inst.G(r))
