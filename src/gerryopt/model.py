"""Electoral model core.

Voter types s live on a finite grid with point masses f(s).  A district is a
distribution P over types; it is won at aggregate shock r iff the mean vote
share Q(s - r) over P is at least 1/2, i.e. iff r <= r*(P).  A plan is a
distribution over districts whose type-marginal reproduces the population
weights.  The designer's payoff from a plan is sum of mass * G(r*(P)) where
G(r) = Q(gamma * r).  A plan is one ``Plan`` table of (district, type, weight)
entries plus a mass per district; ``district_threshold`` finds r*(P) for every
district of such entries in one vectorised bisection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

# Tolerances (see also the lp and verify constants).
MASS_TOL = 1e-12      # probability masses must sum to 1 within this
ROOT_TOL = 1e-10      # |mean vote share at r* - 1/2|
FEAS_TOL = 1e-8       # per-type plan marginal deviation
BRACKET_PAD = 40.0    # bisection bracket padding around the type support

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
    ``log_density_dd`` is the second derivative of ln(density); strictly
    negative everywhere iff the density is strictly log-concave.
    """

    name: str
    cdf: Callable[[np.ndarray], np.ndarray]
    pdf: Callable[[np.ndarray], np.ndarray]
    ppf: Callable[[np.ndarray], np.ndarray]
    log_density_dd: Callable[[np.ndarray], np.ndarray]


def _logistic_cdf(x):
    # exp overflows to inf for very negative x; 1/(1 + inf) = 0 is the exact limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float) / _SQRT3_OVER_PI))


def _logistic_pdf(x):
    z = np.asarray(x, dtype=float) / _SQRT3_OVER_PI
    p = 1.0 / (1.0 + np.exp(-np.abs(z)))
    return p * (1.0 - p) / _SQRT3_OVER_PI


def _logistic_ppf(u):
    u = np.asarray(u, dtype=float)
    return _SQRT3_OVER_PI * np.log(u / (1.0 - u))


def _logistic_log_density_dd(x):
    p = _logistic_cdf(x)
    return -2.0 * p * (1.0 - p) / _SQRT3_OVER_PI**2


def _normal_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


NORMAL = TasteDistribution(
    name="normal",
    cdf=lambda x: ndtr(np.asarray(x, dtype=float)),
    pdf=_normal_pdf,
    ppf=lambda u: ndtri(np.asarray(u, dtype=float)),
    log_density_dd=lambda x: np.full_like(np.asarray(x, dtype=float), -1.0),
)

LOGISTIC = TasteDistribution(
    name="logistic",
    cdf=_logistic_cdf,
    pdf=_logistic_pdf,
    ppf=_logistic_ppf,
    log_density_dd=_logistic_log_density_dd,
)

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "type_grid": self.type_grid.tolist(),
                "type_weights": self.type_weights.tolist(),
                "taste": self.taste.name,
                "gamma": self.gamma,
            }
        )

    @staticmethod
    def from_json(text: str) -> "ProblemInstance":
        d = json.loads(text)
        return ProblemInstance(
            type_grid=np.array(d["type_grid"], dtype=float),
            type_weights=np.array(d["type_weights"], dtype=float),
            taste=get_taste(d["taste"]),
            gamma=float(d["gamma"]),
        )


def uniform_instance(
    n: int = 201,
    gamma: float = 1.0,
    taste: str | TasteDistribution = "normal",
) -> ProblemInstance:
    """Uniform point masses on an n-point grid over [-1, 1]."""
    if isinstance(taste, str):
        taste = get_taste(taste)
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
    (Q symmetric).
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

    def excess(x):
        return np.add.reduceat(w * inst.taste.cdf(t - x[code]), first) - 0.5

    lo = np.minimum.reduceat(t, first) - BRACKET_PAD
    hi = np.maximum.reduceat(t, first) + BRACKET_PAD
    if np.any(excess(lo) < 0) or np.any(excess(hi) > 0):
        raise ConvergenceError("threshold root finding failed: excess does not change sign on the bracket")
    mid = 0.5 * (lo + hi)
    # halve until every bracket is 1e-14 wide, or 4 ulp where |r| is large
    while np.any(hi - lo > 1e-14 + 8.9e-16 * np.abs(mid)):
        above = excess(mid) > 0  # still winning at mid: the root lies above
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        mid = 0.5 * (lo + hi)
    if not np.all(np.abs(excess(mid)) <= ROOT_TOL):
        raise ConvergenceError("threshold root did not reach tolerance 1e-10")
    r[multi] = mid
    return r


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
        if np.any(weights <= 0):
            raise GerryOptError("district weights must be strictly positive")
        sums = np.bincount(district, weights=weights)
        if np.any(np.abs(sums - 1.0) > MASS_TOL):
            raise GerryOptError(f"district weights sum to {sums[np.argmax(np.abs(sums - 1.0))]!r}, expected 1")
        if abs(mass.sum() - 1.0) > 1e-9:
            raise GerryOptError(f"plan masses sum to {mass.sum()!r}, expected 1")

    def type_marginal(self, inst: ProblemInstance) -> np.ndarray:
        """Aggregate mass per instance grid type (types matched by value)."""
        grid = inst.type_grid
        idx = np.clip(np.searchsorted(grid, self.types), 0, grid.size - 1)
        left = np.clip(idx - 1, 0, grid.size - 1)
        take_left = np.abs(grid[left] - self.types) < np.abs(grid[idx] - self.types)
        idx = np.where(take_left, left, idx)
        if np.any(np.abs(grid[idx] - self.types) > 1e-9):
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
    deviations: np.ndarray
    max_deviation: float
    tolerance: float

    @property
    def feasible(self) -> bool:
        return self.max_deviation <= self.tolerance


def check_feasibility(inst: ProblemInstance, plan: Plan) -> FeasibilityReport:
    """Per-type deviation between the plan's marginal and the population."""
    dev = plan.type_marginal(inst) - inst.type_weights
    return FeasibilityReport(
        deviations=dev, max_deviation=float(np.max(np.abs(dev))), tolerance=FEAS_TOL
    )


def expected_seat_share(inst: ProblemInstance, plan: Plan) -> float:
    """Designer's objective: sum over districts of mass * G(r*(P))."""
    report = check_feasibility(inst, plan)
    if not report.feasible:
        raise InfeasiblePlanError(
            f"plan marginal deviates by {report.max_deviation:.3e} > {FEAS_TOL:.1e}"
        )
    r = district_threshold(inst, plan.district, plan.types, plan.weights)
    return float(plan.mass @ inst.G(r))


@dataclass(frozen=True)
class Assumption1Report:
    holds: bool
    worst_log_concavity: float   # max of (ln q)''; must be < 0
    single_dipped_ok: bool       # q(s - r) unimodal in s for every r checked


def check_assumption1(
    inst: ProblemInstance,
    s_grid: Sequence[float] | None = None,
    r_grid: Sequence[float] | None = None,
) -> Assumption1Report:
    """Swingy-moderates check for the additive case.

    Holds iff (ln q)'' < 0 at every s - r grid point.  Also verifies that the
    implied single-dipped shape of the swing d v / d r = -q(s - r) holds on the
    grid: q(s - r) rises then falls in s.
    """
    s = np.asarray(inst.type_grid if s_grid is None else s_grid, dtype=float)
    r = np.asarray(inst.type_grid if r_grid is None else r_grid, dtype=float)
    diffs = (s[:, None] - r[None, :]).ravel()
    ldd = np.asarray(inst.taste.log_density_dd(diffs), dtype=float)
    worst = float(ldd.max())

    dipped_ok = True
    for rv in r:
        dens = np.asarray(inst.taste.pdf(s - rv), dtype=float)
        d = np.diff(dens)
        # once the density starts falling in s it must not rise again
        falling = d < -1e-15
        if falling.any():
            first_fall = int(np.argmax(falling))
            if np.any(d[first_fall:] > 1e-15):
                dipped_ok = False
                break
    return Assumption1Report(
        holds=(worst < 0.0) and dipped_ok,
        worst_log_concavity=worst,
        single_dipped_ok=dipped_ok,
    )
