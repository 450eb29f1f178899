"""Structural analysis of solved plans and standalone characterization checks.

LP vertex solutions on a coarse threshold grid can pool many voter types into
one threshold column (the continuum assigns them pair thresholds that all
round to the same grid point).  Verification therefore first splits each
column, on its own types only, into two-type districts balanced at the
column's threshold, most extreme types first.  Column masses and thresholds
are kept exactly, so the objective and feasibility are unchanged.  The split
is one table, ``Districts``, with one entry per district in threshold order:
its threshold, its low and high type (equal for a one-type district), the
low type's share, its mass, and whether it is packed.  The single-dipped
check, the pack-and-pair decomposition and the regime label all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import NORMAL, GerryOptError, ProblemInstance, TasteDistribution
from .lp import AT_TOL, AssignmentMatrix, DualCertificate, SUPPORT_TOL

DUST = 1e-13
SPLIT_FRAC = 0.01      # a type splits when its packed and its paired mass both exceed this share
SLACK_TOL = 1e-6       # worst support slack the dual certificate may leave
PAP_MARGIN = 1e-12     # both quadruple-scan inequalities must clear this
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
# 4.8e-2 (gamma=10 and 15) and 0.199 (gamma=30, four times the bound).  At
# gamma=6 it levels off as the grid is refined (6.8e-2, 2.1e-2, 1.9e-2 at
# n = 101, 201, 401), so grid pooling alone does not explain it; the cause is
# open.
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
    type_grid: np.ndarray
    leftover: float           # column mass the per-column split could not place
    refined: bool             # True if any column pools three or more types

    @property
    def ok(self) -> bool:
        return self.leftover <= 1e-8

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
    is split on its own members only: repeatedly pair the column's most
    extreme remaining low type with its most extreme remaining high type at
    the exact balance ratio for the column's threshold.  Column masses and
    thresholds are kept, so the objective and feasibility are unchanged.
    """
    pi = assignment.pi
    grid = assignment.type_grid
    thr = assignment.threshold_grid
    vote = assignment.vote
    col_mass = pi.sum(axis=0)

    rows = []  # (threshold, low, high, rho, mass, packed)
    leftover = 0.0
    refined = False

    for j in np.flatnonzero(col_mass > SUPPORT_TOL):
        r = float(thr[j])
        active = np.flatnonzero(pi[:, j] > SUPPORT_TOL)
        if active.size == 1:
            i = int(active[0])
            rows.append((r, i, i, 1.0, float(col_mass[j]), True))
            continue
        refined |= active.size > 2
        rem = pi[:, j].copy()
        rem[rem < DUST] = 0.0
        budget = float(col_mass[j])
        while budget > 1e-11:
            alive = np.flatnonzero(rem > DUST)
            if alive.size == 0:
                break
            lo, hi = int(alive[0]), int(alive[-1])
            if grid[lo] < r - AT_TOL and grid[hi] > r + AT_TOL:
                v_lo, v_hi = vote[lo, j], vote[hi, j]
                rho = (v_hi - 0.5) / (v_hi - v_lo)  # weight on the low type
                t = float(min(budget, rem[lo] / rho, rem[hi] / (1.0 - rho)))
            else:
                # A type sitting exactly at this threshold is balanced by
                # itself: place it as a degenerate pool member
                # (payoff-equivalent to joining the pool).
                at_r = alive[np.abs(grid[alive] - r) <= AT_TOL]
                if at_r.size == 0:
                    break
                lo = hi = int(at_r[0])
                rho = 1.0
                t = min(budget, float(rem[lo]))
            rows.append((r, lo, hi, rho, t, False))
            # two scalar updates: a fancy-indexed update would drop one of
            # them when lo == hi
            rem[lo] -= t * rho
            rem[hi] -= t * (1.0 - rho)
            rem[rem < DUST] = 0.0
            budget -= t
        leftover += max(budget, 0.0) + float(rem.sum())

    rows.sort(key=lambda row: row[0])
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
    s_mid = grid[np.concatenate([d.low, d.high[two]])]
    r_mid = np.concatenate([d.threshold, d.threshold[two]])
    # spans: every two-type district
    a, b, r = grid[d.low[two]], grid[d.high[two]], d.threshold[two]
    inside = (a + AT_TOL < s_mid[:, None]) & (s_mid[:, None] < b - AT_TOL)
    m, k = np.nonzero(inside & (r_mid[:, None] > r))
    violations = sorted(zip(*(x.tolist() for x in (a[k], s_mid[m], b[k], r[k], r_mid[m]))))
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
    reason, r_b = _pack_and_pair(districts, assignment.threshold_grid)
    return PackAndPairDecomposition(reason is None, reason, r_b, districts, assignment.type_weights)


def _pack_and_pair(d: Districts, thr_grid: np.ndarray) -> tuple[str | None, float | None]:
    """(failure reason, None), or (None, bifurcation point)."""
    if not d.ok:
        return f"column split left {d.leftover:.2e} unplaced mass", None
    if d.mass.size == 0:
        return "empty assignment", None
    step = float(np.min(np.diff(thr_grid))) if thr_grid.size > 1 else 0.0
    # Districts that are not packed: pairs, and pool members at their own threshold.
    pair = ~d.packed
    # Bifurcation: the largest grid threshold at or below which every district
    # is degenerate.  With no pairs that is the top of the grid.
    if pair.any():
        below = thr_grid[thr_grid < d.threshold[pair].min() - AT_TOL]
        r_b = float(below[-1]) if below.size else float(thr_grid[0]) - step
    else:
        r_b = float(thr_grid[-1])
    above = d.threshold[d.packed & (d.threshold > r_b + AT_TOL)]
    if above.size:
        return f"packed district at {float(above[0])} lies above the bifurcation point {r_b}", None
    # Monotone pairing maps: across distinct thresholds the stronger column's
    # pairs must nest outside the weaker column's (within one grid step).
    cols, col = np.unique(d.threshold[pair], return_inverse=True)
    s1 = np.full(cols.size, np.inf)
    s2 = np.full(cols.size, -np.inf)
    np.minimum.at(s1, col, d.type_grid[d.low[pair]])
    np.maximum.at(s2, col, d.type_grid[d.high[pair]])
    slack = step + 1e-9
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

    f = decomp.type_weights
    seg_mass = decomp.districts.seg_mass
    pair_mass = decomp.districts.pair_mass
    live = np.flatnonzero(f > 0)
    status = []
    for i in live:
        seg, pair = seg_mass[i], pair_mass[i]
        if pair <= SPLIT_FRAC * f[i]:
            status.append("seg")
        elif seg <= SPLIT_FRAC * f[i]:
            status.append("pair")
        else:
            status.append("split")

    n = len(status)
    n_seg = status.count("seg")
    if n_seg == n:
        return RegimeLabel.SEGREGATION
    if n_seg == 0 and "split" not in status:
        return RegimeLabel.NEGATIVE_ASSORTATIVE

    seg_idx = [k for k, st in enumerate(status) if st == "seg"]
    split_idx = [k for k, st in enumerate(status) if st == "split"]
    pure = False
    if seg_idx:
        a, b = seg_idx[0], seg_idx[-1]
        contiguous = seg_idx == list(range(a, b + 1))
        edge_ok = all(k in (a - 1, b + 1) for k in split_idx)
        if contiguous and edge_ok:
            pure = True
            # fold the edge artifacts into the block
            a = min([a] + [k for k in split_idx if k == a - 1])
            b = max([b] + [k for k in split_idx if k == b + 1])

    if pure:
        if a == 0 and b < n - 1:
            return RegimeLabel.POP
        if 0 < a and b < n - 1:
            return RegimeLabel.PMP
        return RegimeLabel.OTHER_Y

    # mixed: family determined by the extreme low types
    first = next((st for st in status if st != "split"), None)
    if first == "seg":
        return RegimeLabel.MIXED_POP
    if first == "pair":
        return RegimeLabel.MIXED_PMP
    return RegimeLabel.OTHER_Y


@dataclass(frozen=True)
class DualSupportReport:
    part1_ok: bool
    worst_slack: float        # max over active (s,r) of (best value) - (achieved value)
    part2_ok: bool
    worst_multiplier_error: float  # max over active columns of dist(formula, [L, U]) / max formula
    part2_errors: list        # (r, L, U, formula) where the scaled distance exceeds the tolerance


def check_dual_support_optimality(
    inst: ProblemInstance,
    assignment: AssignmentMatrix,
    cert: DualCertificate,
    tol_multiplier: float = 1e-6,
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
    are ~0 do not dominate.
    """
    g_of_r = np.asarray(inst.G(assignment.threshold_grid), dtype=float)
    values = cert.support_values(g_of_r, assignment.vote)
    best = values.max(axis=1)
    active = assignment.pi > SUPPORT_TOL
    slack = np.where(active, best[:, None] - values, 0.0)
    worst1 = float(slack.max())

    col_mass = assignment.column_mass()
    cols = np.flatnonzero(col_mass > SUPPORT_TOL)
    r = assignment.threshold_grid[cols]
    w = assignment.pi[:, cols] / col_mass[cols]
    q_mean = (w * inst.taste.pdf(assignment.type_grid[:, None] - r[None, :])).sum(axis=0)
    formula = np.asarray(inst.g(r), dtype=float) / q_mean
    dv = assignment.vote[:, cols] - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (cert.phi[:, None] - g_of_r[cols][None, :]) / dv
    lower = np.where(dv < 0, bound, -np.inf).max(axis=0)
    upper = np.where(dv > 0, bound, np.inf).min(axis=0)
    dist = np.maximum(np.maximum(lower - formula, formula - upper), 0.0)
    err = dist / formula.max()
    worst2 = float(err.max())
    errors = [
        (float(r[k]), float(lower[k]), float(upper[k]), float(formula[k]))
        for k in np.flatnonzero(err > tol_multiplier)
    ]
    return DualSupportReport(
        part1_ok=worst1 <= SLACK_TOL,
        worst_slack=worst1,
        part2_ok=worst2 <= tol_multiplier,
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
    r_b_required: float
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
    admissible = gamma > 1.0 and beta1 - (beta2 + 1.0) >= -1e-12
    return YConditions(r_b_required=0.0, beta1=beta1, beta2=beta2, admissible=admissible)


@dataclass(frozen=True)
class SegNadReport:
    n_pool_preferred: int
    n_split_preferred: int
    pool_triples: list
    split_triples: list

    @property
    def mixed(self) -> bool:
        return self.n_pool_preferred > 0 and self.n_split_preferred > 0


def check_seg_nad_conditions(inst: ProblemInstance, triples=None) -> SegNadReport:
    """For sampled s < r < s', compare pooling the pair {s, s'} at threshold r
    against splitting into packed districts: pooling wins iff
    G(r) > rho G(s) + (1 - rho) G(s') with rho the balancing weight on s."""
    if triples is None:
        grid = inst.type_grid
        stride = max(1, grid.size // 12)
        pts = grid[::stride]
        triples = [
            (float(a), float(b), float(c))
            for a in pts
            for b in pts
            for c in pts
            if a < b < c
        ][:500]
    pool, split = [], []
    for s, r, sp in triples:
        num = float(inst.taste.cdf(sp - r)) - 0.5
        den = float(inst.taste.cdf(sp - r)) - float(inst.taste.cdf(s - r))
        rho = num / den
        pooled = float(inst.G(r))
        separated = rho * float(inst.G(s)) + (1.0 - rho) * float(inst.G(sp))
        (pool if pooled > separated else split).append((s, r, sp))
    return SegNadReport(
        n_pool_preferred=len(pool),
        n_split_preferred=len(split),
        pool_triples=pool,
        split_triples=split,
    )
