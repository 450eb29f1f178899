"""Structural analysis of solved plans and standalone characterization checks.

LP vertex solutions on a coarse threshold grid can pool many voter types into
one threshold column (the continuum assigns them pair thresholds that all
round to the same grid point).  Verification therefore first splits each
column, on its own types only, into two-type districts balanced at the
column's threshold: two pointers pair the most extreme remaining low and high
types, and a type at the threshold is placed last.  Column masses and
thresholds are kept exactly, so the objective and feasibility are unchanged,
and the mass a column cannot place is its ``leftover``.  The split
is one table, ``Districts``, with one entry per district in threshold order:
its threshold, its low and high type (equal for a one-type district), the
low type's share, its mass, and whether it is packed.  The single-dipped
check, the pack-and-pair decomposition and the regime label all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .model import FEAS_TOL, GRID_TOL, NORMAL, SUPPORT_TOL, GerryOptError, ProblemInstance, TasteDistribution

if TYPE_CHECKING:  # lp imports this module to classify its solutions
    from .lp import AssignmentMatrix, DualCertificate

# Plateaus as in model's tolerance comment.
SPLIT_FRAC = 0.01      # a type splits when its packed and paired mass both exceed this share (plateau 1e-4..0.2)
DUAL_TOL = 1e-7        # duality gap and support slack of the certificate; worst 3.3e-16 and 1.2e-13
# Both quadruple-scan inequalities must clear this, and y_necessary_conditions
# lets beta1 fall this far short of beta2 + 1.  The scan's verdicts at ten
# gammas from 0.2 to 30, both tastes, hold for 1e-16..1e-7.
PAP_MARGIN = 1e-12
PAP_GRID = -5.0 + 0.1 * np.arange(101)  # types s, r, s', s'' of the quadruple scan

# Allowance for grid pooling in the multiplier formula, as a share of the
# largest formula value on the support.  The formula is a continuum identity;
# on a grid of step 0.01 pairs whose continuum thresholds differ share one
# column (at gamma=6 about 80% of voters sit in the five columns r in
# [0.19, 0.23]), and the formula misses such a column's pinned multiplier.
# Measured at n=201: 2.0e-3 (gamma=0.5), 1.3e-3 (gamma=2), 2.1e-2 (gamma=6).
# The bound still rejects the returned-vertex multiplier as reference (0.14 at
# gamma=2), a formula scaled by 1.1 (0.11) and a g without its gamma (4.9).
# It is validated only at gamma in {0.5, 2, 6}.  At larger gamma the error is
# 4.8e-2 (gamma=10 and 15) and 0.199 (gamma=30, four times the bound).
# The worst column lies in the band of paired columns just above r_b (1 to 10
# columns, all within 0.06 of r_b), where the continuum lambda(r) jumps.  At
# n = 101, 201, 401 its error is 6.8e-2, 2.1e-2, 1.9e-2 at gamma=6 and 0.58,
# 0.20, 0.14 at gamma=30 (there at r = 0.08).  Weighted by column mass the error
# falls with the grid step: 1.1e-2, 6.3e-3, 2.3e-3 at gamma=6 and 0.54, 0.15,
# 5.5e-2 at gamma=30.  So the formula holds in mass, and the sup measures how
# finely the grid resolves the jump.
POOLING_TOL = 0.05


class RegimeLabel(Enum):
    SEGREGATION = "Segregation"
    NEGATIVE_ASSORTATIVE = "NegativeAssortative"
    PMP = "PMP"
    MIXED_PMP = "MixedPMP"
    MIXED_POP = "MixedPOP"
    POP = "POP"
    OTHER_Y = "OtherY"
    NOT_PACK_AND_PAIR = "NotPackAndPair"


@dataclass(frozen=True)
class Districts:
    threshold: np.ndarray     # per district, ascending
    low: np.ndarray           # type index of the low member
    high: np.ndarray          # type index of the high member (== low for one type)
    rho: np.ndarray           # share of the low member
    mass: np.ndarray
    packed: np.ndarray        # True if the type is its column's only active type;
                              # a one-type district that is not packed sits at
                              # a pooled column's threshold
    type_grid: np.ndarray     # also the threshold grid
    leftover: float           # column mass the per-column split could not place
    refined: bool             # True if any column pools three or more types

    @property
    def ok(self) -> bool:
        return self.leftover <= FEAS_TOL

    @property
    def seg_mass(self) -> np.ndarray:
        """Per-type mass in packed districts."""
        p = self.packed
        return np.bincount(self.low[p], self.mass[p], minlength=self.type_grid.size)

    @property
    def pair_mass(self) -> np.ndarray:
        """Per-type mass in the other districts, added in district order."""
        p = ~self.packed
        types = np.column_stack([self.low[p], self.high[p]]).ravel()
        mass = (self.mass[p, None] * np.column_stack([self.rho[p], 1.0 - self.rho[p]])).ravel()
        return np.bincount(types, mass, minlength=self.type_grid.size)


def refine_assignment(assignment: AssignmentMatrix) -> Districts:
    """Decompose an assignment into packed and two-type districts.

    A column with one active type is a packed district.  Every other column
    is split on its own members only, by two pointers: one walks the
    column's low types upwards from the most extreme, the other its high
    types downwards, and each step pairs the two at the exact balance ratio
    for the column's threshold until one of them runs out.  A type sitting
    exactly at the threshold is balanced by itself and is placed last, as a
    degenerate pool member (payoff-equivalent to joining the pool).  Column
    masses and thresholds are kept, so the objective and feasibility are
    unchanged.  The mass a column's split cannot place adds to ``leftover``.
    """
    pi = assignment.pi
    grid = assignment.type_grid
    col_mass = pi.sum(axis=0)

    rows = []  # (threshold, low, high, rho, mass, packed), columns in threshold order
    leftover = 0.0
    refined = False

    for j in np.flatnonzero(col_mass > SUPPORT_TOL):
        r = float(grid[j])
        active = np.flatnonzero(pi[:, j] > SUPPORT_TOL)
        if active.size == 1:
            i = int(active[0])
            rows.append((r, i, i, 1.0, float(col_mass[j]), True))
            continue
        refined |= active.size > 2
        rem, vote = pi[:, j].tolist(), assignment.vote[:, j].tolist()
        # each pointer's next type is the last entry of its list
        low, high = active[active < j][::-1].tolist(), active[active > j].tolist()
        budget = float(col_mass[j])  # the column's unplaced mass
        while budget > SUPPORT_TOL and low and high:
            lo, hi = low[-1], high[-1]
            rho = (vote[hi] - 0.5) / (vote[hi] - vote[lo])  # weight on the low type
            t = min(budget, rem[lo] / rho, rem[hi] / (1.0 - rho))
            rows.append((r, lo, hi, rho, t, False))
            rem[lo] -= t * rho
            rem[hi] -= t * (1.0 - rho)
            budget -= t
            if rem[lo] <= SUPPORT_TOL:
                low.pop()
            if rem[hi] <= SUPPORT_TOL:
                high.pop()
        if budget > SUPPORT_TOL and rem[j] > SUPPORT_TOL:
            t = min(budget, rem[j])
            rows.append((r, int(j), int(j), 1.0, t, False))
            budget -= t
        leftover += budget

    columns = zip(*rows) if rows else [()] * 6
    dtypes = (float, int, int, float, float, bool)
    return Districts(*map(np.array, columns, dtypes), grid, float(leftover), refined)


@dataclass(frozen=True)
class SingleDippedReport:
    ok: bool
    violations: list  # (s, s_mid, s'', r_pair, r_mid) 5-tuples with the offending thresholds


def check_single_dipped(assignment: AssignmentMatrix) -> SingleDippedReport:
    """Strict single-dippedness: no type may sit strictly inside the span of a
    district with a strictly lower threshold."""
    d = refine_assignment(assignment)
    grid = d.type_grid
    two = d.low != d.high
    # members: every district's low type and every two-type district's high type
    mid = np.concatenate([d.low, d.high[two]])
    r_mid = np.concatenate([d.threshold, d.threshold[two]])
    # spans: every two-type district
    low, high, r = d.low[two], d.high[two], d.threshold[two]
    inside = (low < mid[:, None]) & (mid[:, None] < high)
    m, k = np.nonzero(inside & (r_mid[:, None] > r))
    violations = sorted(zip(*(x.tolist() for x in (grid[low[k]], grid[mid[m]], grid[high[k]], r[k], r_mid[m]))))
    return SingleDippedReport(ok=not violations, violations=violations)


@dataclass(frozen=True)
class PackAndPairDecomposition:
    ok: bool
    reason: str | None
    bifurcation: float | None      # r^b: strongest packed district threshold
    districts: Districts
    type_weights: np.ndarray


def decompose_pack_and_pair(assignment: AssignmentMatrix) -> PackAndPairDecomposition:
    """Read off the bifurcation point and the pairing maps s1 (nonincreasing)
    and s2 (nondecreasing) from a canonicalized solution."""
    districts = refine_assignment(assignment)
    reason, r_b = _pack_and_pair(districts)
    return PackAndPairDecomposition(reason is None, reason, r_b, districts, assignment.type_weights)


def _pack_and_pair(d: Districts) -> tuple[str | None, float | None]:
    """(failure reason, None), or (None, bifurcation point)."""
    if not d.ok:
        return f"column split left {d.leftover:.2e} unplaced mass", None
    if d.mass.size == 0:
        return "empty assignment", None
    grid = d.type_grid
    step = float(np.min(np.diff(grid))) if grid.size > 1 else 0.0
    # Districts that are not packed: pairs, and pool members at their own threshold.
    pair = ~d.packed
    # Bifurcation: the largest grid threshold at or below which every district
    # is degenerate.  With no pairs that is the top of the grid.
    if pair.any():
        below = grid[grid < d.threshold[pair].min()]
        r_b = float(below[-1]) if below.size else float(grid[0]) - step
    else:
        r_b = float(grid[-1])
    above = d.threshold[d.packed & (d.threshold > r_b)]
    if above.size:
        return f"packed district at {float(above[0])} lies above the bifurcation point {r_b}", None
    # Monotone pairing maps: across distinct thresholds the stronger column's
    # pairs must nest outside the weaker column's (within one grid step).
    cols, col = np.unique(d.threshold[pair], return_inverse=True)
    s1 = np.full(cols.size, np.inf)
    s2 = np.full(cols.size, -np.inf)
    np.minimum.at(s1, col, grid[d.low[pair]])
    np.maximum.at(s2, col, grid[d.high[pair]])
    slack = step + GRID_TOL
    if np.any(s1[1:] > s1[:-1] + slack) or np.any(s2[1:] < s2[:-1] - slack):
        return "pairing maps are not monotone in the threshold", None
    return None, r_b


def classify_regime(decomp: PackAndPairDecomposition) -> RegimeLabel:
    """Label the solved plan.

    A type is segregated / paired if at least (1 - SPLIT_FRAC) of its mass is;
    otherwise it splits.  Grid discretization forces at most one split type at
    each edge of the segregated block (the continuum boundary falls between
    grid points), so such edge-adjacent splits are excused.  Any other split,
    or a non-contiguous segregated block, marks the mixed (Y) regimes.  POP
    segregates a bottom interval; PMP segregates an interior interval and
    pairs both tails.
    """
    if not decomp.ok:
        return RegimeLabel.NOT_PACK_AND_PAIR

    live = decomp.type_weights > 0
    tol = SPLIT_FRAC * decomp.type_weights[live]
    seg = decomp.districts.pair_mass[live] <= tol
    pair = ~seg & (decomp.districts.seg_mass[live] <= tol)
    split = ~seg & ~pair
    if seg.all():
        return RegimeLabel.SEGREGATION
    if pair.all():
        return RegimeLabel.NEGATIVE_ASSORTATIVE

    # pure: one segregated interval, its edge splits folded in as artifacts
    block = np.flatnonzero(seg | split)
    a, b = block[0], block[-1]
    if seg.any() and block.size == b - a + 1 and not split[a + 1 : b].any():
        if b == seg.size - 1:
            return RegimeLabel.OTHER_Y
        return RegimeLabel.POP if a == 0 else RegimeLabel.PMP

    # mixed: family determined by the extreme low types
    unsplit = np.flatnonzero(~split)
    if unsplit.size == 0:
        return RegimeLabel.OTHER_Y
    return RegimeLabel.MIXED_POP if seg[unsplit[0]] else RegimeLabel.MIXED_PMP


@dataclass(frozen=True)
class DualSupportReport:
    part1_ok: bool
    worst_slack: float        # max over active (s,r) of (best value) - (achieved value)
    part2_ok: bool
    worst_multiplier_error: float | None  # max over active columns of dist(formula, [L, U]) / max formula
    part2_errors: list        # (r, L, U, formula) where the scaled distance exceeds POOLING_TOL


def check_dual_support_optimality(
    inst: ProblemInstance, assignment: AssignmentMatrix, cert: DualCertificate
) -> DualSupportReport:
    """Verify the optimality certificate on the active support.

    Part 1: every active cell (s, r) attains max_r' G(r') + lambda(r')(v(s,r')-1/2).
    Part 2: on each active column, the continuum multiplier formula
    lambda(r) = g(r) / integral of q(s - r) dP_r(s) (g(s)/q(0) for a packed
    column) lies in the column's optimal multiplier set.  Given phi, lambda(r)
    appears only in its own column's constraints phi(s) >= G(r) + lambda(r)
    (v(s,r) - 1/2), so that set is the interval [L, U] with
        L = max over v(s,r) < 1/2 of (G(r) - phi(s)) / (1/2 - v(s,r)),
        U = min over v(s,r) > 1/2 of (phi(s) - G(r)) / (v(s,r) - 1/2).
    An active cell with v != 1/2 pins [L, U] to a point; on a packed column
    the only active cell has v = 1/2 and [L, U] can be wide, even unbounded,
    so the lambda(r) the solver returns there is one choice among many and is
    not compared.  Each column's distance from the formula to [L, U] is divided
    by the largest formula value on the support, so tail columns where both
    are ~0 do not dominate, and part 2 holds within ``POOLING_TOL``.  Where
    the formula is 0 on the whole support (g(r) underflows there at large
    gamma) there is no scale: part 2 is reported failed, with
    ``worst_multiplier_error`` None and no listed errors.
    """
    g_of_r = np.asarray(inst.G(assignment.type_grid), dtype=float)
    values = g_of_r[None, :] + cert.lambda_[None, :] * (assignment.vote - 0.5)
    best = values.max(axis=1)
    active = assignment.pi > SUPPORT_TOL
    slack = np.where(active, best[:, None] - values, 0.0)
    worst1 = float(slack.max())

    col_mass = assignment.column_mass()
    cols = np.flatnonzero(col_mass > SUPPORT_TOL)
    r = assignment.type_grid[cols]
    w = assignment.pi[:, cols] / col_mass[cols]
    q_mean = (w * inst.taste.pdf(assignment.type_grid[:, None] - r[None, :])).sum(axis=0)
    formula = np.asarray(inst.g(r), dtype=float) / q_mean
    dv = assignment.vote[:, cols] - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (cert.phi[:, None] - g_of_r[cols][None, :]) / dv
    lower = np.where(dv < 0, bound, -np.inf).max(axis=0)
    upper = np.where(dv > 0, bound, np.inf).min(axis=0)
    dist = np.maximum(np.maximum(lower - formula, formula - upper), 0.0)
    peak = formula.max()
    if peak == 0.0:
        return DualSupportReport(worst1 <= DUAL_TOL, worst1, False, None, [])
    err = dist / peak
    worst2 = float(err.max())
    errors = [
        (float(r[k]), float(lower[k]), float(upper[k]), float(formula[k]))
        for k in np.flatnonzero(err > POOLING_TOL)
    ]
    return DualSupportReport(
        part1_ok=worst1 <= DUAL_TOL,
        worst_slack=worst1,
        part2_ok=worst2 <= POOLING_TOL,
        worst_multiplier_error=worst2,
        part2_errors=errors,
    )


def check_pap_condition(gamma: float, taste: TasteDistribution = NORMAL) -> list:
    """Scan all ``PAP_GRID`` quadruples s < r < s' <= s'' for the pack-and-pair
    sufficient condition; an empty list certifies pack-and-pair optimality.

    A quadruple violates iff both hold, with lambda(r) the paired-district
    multiplier and lambda(s'') = g(s'')/q(0):
        G(r) + lambda(r)(Q(s-r) - 1/2) >= G(s)
        G(r) + lambda(r)(Q(s-r) - 1/2) >= G(s'') + lambda(s'')(Q(s-s'') - 1/2)

    Both inequalities must clear ``PAP_MARGIN``: deep in the distribution tails
    the two sides saturate to 1.0 in double precision and tie exactly, while
    in exact arithmetic the second inequality fails by ~1e-18 there.

    Q and q are evaluated once on the table of grid differences x[a] - x[b],
    and the packed alternative alt[s, s''] and its suffix minimum over
    s'' >= s' once per row.  Each threshold r then tests every (s < r, s' > r)
    cell in one array pass; a violating cell's s'' is the first minimiser of
    alt[s, s':].  All tables are n x n; no n^3 array is built.
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise GerryOptError(f"gamma must be finite and positive, got {gamma!r}")
    x = PAP_GRID
    Q = lambda z: np.asarray(taste.cdf(z), dtype=float)
    q = lambda z: np.asarray(taste.pdf(z), dtype=float)
    G_all = Q(gamma * x)
    g_all = gamma * q(gamma * x)
    diff = x[:, None] - x[None, :]
    Qd, qd = Q(diff), q(diff)
    # G(s'') + g(s'')/q(0) * (Q(s - s'') - 1/2), and its minimum over s'' >= s'
    alt = G_all + (g_all / float(q(0.0))) * (Qd - 0.5)
    suffix_min = np.minimum.accumulate(alt[:, ::-1], axis=1)[:, ::-1]
    violations = []
    for i_r in range(1, x.size - 1):
        Qs, qs = Qd[:i_r, i_r, None], qd[:i_r, i_r, None]  # s < r down the rows
        Qsp, qsp = Qd[i_r + 1 :, i_r], qd[i_r + 1 :, i_r]  # s' > r across the columns
        denom = (Qsp - 0.5) * qs - (Qs - 0.5) * qsp
        lam = g_all[i_r] * (Qsp - Qs) / denom
        lhs = G_all[i_r] + lam * (Qs - 0.5)
        cond1 = lhs - G_all[:i_r, None] > PAP_MARGIN
        cond2 = lhs - suffix_min[:i_r, i_r + 1 :] > PAP_MARGIN
        for i_s, k in zip(*np.nonzero(cond1 & cond2)):
            i_sp = i_r + 1 + k
            i_spp = i_sp + np.argmin(alt[i_s, i_sp:])
            violations.append(tuple(float(x[i]) for i in (i_s, i_r, i_sp, i_spp)))
    violations.sort()
    return violations


@dataclass(frozen=True)
class YConditions:
    beta1: float
    beta2: float
    admissible: bool


def y_necessary_conditions(gamma: float) -> YConditions:
    """Closed-form necessary conditions for mixed (Y) districting.

    The bifurcation point must be 0, and with beta1 = 3 gamma^2 / (2(gamma^2 - 1))
    and beta2 = gamma^2 / 2 the plan is admissible iff gamma > 1 and
    beta1 >= beta2 + 1, i.e. gamma in (1, sqrt(1 + sqrt(3))].
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise GerryOptError(f"gamma must be finite and positive, got {gamma!r}")
    if gamma == 1.0:
        raise GerryOptError("gamma = 1 is degenerate: the limit slopes coincide")
    g2 = gamma * gamma
    beta1 = 3.0 * g2 / (2.0 * (g2 - 1.0))
    beta2 = g2 / 2.0
    admissible = gamma > 1.0 and beta1 - (beta2 + 1.0) >= -PAP_MARGIN
    return YConditions(beta1=beta1, beta2=beta2, admissible=admissible)
