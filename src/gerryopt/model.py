"""Electoral model core.

Voter types s live on a finite grid with point masses f(s).  A district is a
distribution P over types; it is won at aggregate shock r iff the mean vote
share Q(s - r) over P is at least 1/2, i.e. iff r <= r*(P).  A plan is a
distribution over districts whose type-marginal reproduces the population
weights.  The designer's payoff from a plan is sum of mass * G(r*(P)) where
G(r) = Q(gamma * r).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq
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
        if not self.gamma > 0:
            raise GerryOptError("gamma must be positive")

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


@dataclass
class District:
    """A finite distribution over voter types with positive weights."""

    types: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.types, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        self.types = t
        self.weights = w
        if t.size == 0 or t.size != w.size:
            raise GerryOptError("district support and weights must be nonempty and equal length")
        if np.any(w <= 0):
            raise GerryOptError("district weights must be strictly positive")
        if abs(w.sum() - 1.0) > MASS_TOL:
            raise GerryOptError(f"district weights sum to {w.sum()!r}, expected 1")

    def mean_type(self) -> float:
        return float(self.weights @ self.types)


def point_district(s: float) -> District:
    return District(types=np.array([float(s)]), weights=np.array([1.0]))


def district_threshold(inst: ProblemInstance, district: District) -> float:
    """Threshold shock r*(P): the root of mean vote share = 1/2.

    Mean vote share is strictly decreasing in r, so the root is unique.  For a
    degenerate district delta_s the answer is s exactly (Q symmetric).
    """
    if district.types.size == 1:
        return float(district.types[0])

    t, w = district.types, district.weights

    def excess(r):
        return float(w @ inst.taste.cdf(t - r)) - 0.5

    lo = float(t.min()) - BRACKET_PAD
    hi = float(t.max()) + BRACKET_PAD
    try:
        r = brentq(excess, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    except (ValueError, RuntimeError) as exc:
        raise ConvergenceError(f"threshold root finding failed: {exc}") from exc
    if abs(excess(r)) > ROOT_TOL:
        raise ConvergenceError("threshold root did not reach tolerance 1e-10")
    return float(r)


@dataclass
class Plan:
    """A weighted collection of districts; masses sum to 1."""

    districts: list  # list of (District, mass) pairs

    def __post_init__(self):
        total = sum(m for _, m in self.districts)
        if abs(total - 1.0) > 1e-9:
            raise GerryOptError(f"plan masses sum to {total!r}, expected 1")

    def type_marginal(self, inst: ProblemInstance) -> np.ndarray:
        """Aggregate mass per instance grid type (types matched by value)."""
        agg = np.zeros_like(inst.type_weights)
        grid = inst.type_grid
        for district, mass in self.districts:
            idx = np.searchsorted(grid, district.types)
            idx = np.clip(idx, 0, grid.size - 1)
            left = np.clip(idx - 1, 0, grid.size - 1)
            take_left = np.abs(grid[left] - district.types) < np.abs(grid[idx] - district.types)
            idx = np.where(take_left, left, idx)
            if np.any(np.abs(grid[idx] - district.types) > 1e-9):
                raise GerryOptError("district contains a type not on the instance grid")
            np.add.at(agg, idx, mass * district.weights)
        return agg

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "support": [[float(s), float(w)] for s, w in zip(d.types, d.weights)],
                    "mass": float(m),
                }
                for d, m in self.districts
            ]
        )

    @staticmethod
    def from_json(text: str) -> "Plan":
        data = json.loads(text)
        districts = []
        for entry in data:
            sup = np.array(entry["support"], dtype=float)
            districts.append(
                (District(types=sup[:, 0], weights=sup[:, 1]), float(entry["mass"]))
            )
        return Plan(districts=districts)


def uniform_plan(inst: ProblemInstance) -> Plan:
    """Single district equal to the population distribution."""
    keep = inst.type_weights > 0
    d = District(types=inst.type_grid[keep], weights=inst.type_weights[keep] / inst.type_weights[keep].sum())
    return Plan(districts=[(d, 1.0)])


def segregation_plan(inst: ProblemInstance) -> Plan:
    """One point-mass district per type with positive weight."""
    return Plan(
        districts=[
            (point_district(s), float(w))
            for s, w in zip(inst.type_grid, inst.type_weights)
            if w > 0
        ]
    )


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


def expected_seat_share(inst: ProblemInstance, plan: Plan, check: bool = True) -> float:
    """Designer's objective: sum over districts of mass * G(r*(P))."""
    if check:
        report = check_feasibility(inst, plan)
        if not report.feasible:
            raise InfeasiblePlanError(
                f"plan marginal deviates by {report.max_deviation:.3e} > {FEAS_TOL:.1e}"
            )
    return float(
        sum(m * float(inst.G(district_threshold(inst, d))) for d, m in plan.districts)
    )


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
