import math

import numpy as np
import pytest

from gerryopt import lp as L
from gerryopt import model as M
from gerryopt import verify as V


# ---------------------------------------------------------------------------
# refinement of the raw assignment into canonical districts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
def test_refinement_conserves_mass_and_value(solve_cached, gamma):
    inst, sol = solve_cached(gamma)
    d = V.refine_assignment(sol.assignment)
    assert d.ok
    total = float(d.seg_mass.sum() + d.pair_mass.sum())
    assert total == pytest.approx(1.0, abs=1e-8)
    # per-type masses reproduce the population marginal
    per_type = d.seg_mass + d.pair_mass
    assert np.max(np.abs(per_type - inst.type_weights)) < 1e-8
    # re-evaluating the canonical districts reproduces the LP value
    value = float(d.mass @ inst.G(d.threshold))
    assert value == pytest.approx(sol.objective, abs=1e-7)
    assert np.all(np.diff(d.threshold) >= 0)
    # a two-type district straddles its threshold; a packed one has one type
    two = d.low != d.high
    assert np.all(inst.type_grid[d.low[two]] < d.threshold[two])
    assert np.all(d.threshold[two] < inst.type_grid[d.high[two]])
    assert not np.any(d.packed & two)
    assert np.all(d.rho[~two] == 1.0)


def test_refinement_threshold_exact_balance(solve_cached):
    inst, sol = solve_cached(6.0)
    d = V.refine_assignment(sol.assignment)
    two = d.low != d.high
    assert two.any()
    r, rho = d.threshold[two], d.rho[two]
    v_lo = M.vote_share(inst, inst.type_grid[d.low[two]], r)
    v_hi = M.vote_share(inst, inst.type_grid[d.high[two]], r)
    assert np.max(np.abs(rho * v_lo + (1 - rho) * v_hi - 0.5)) < 1e-10


def test_refinement_splits_each_column_on_its_own_types():
    # Two adjacent pooled columns that share types; type 0 sits exactly at
    # the threshold of the first column.
    inst = M.ProblemInstance(
        type_grid=np.array([-1.0, -0.5, 0.0, 0.5, 1.0]),
        type_weights=np.full(5, 0.2),
        taste=M.NORMAL,
        gamma=1.0,
    )
    thresholds = np.array([0.0, 0.1])
    v = M.vote_share(inst, inst.type_grid[:, None], thresholds[None, :])
    pi = np.zeros((5, 2))

    def add_pair(lo, hi, j, mass):
        rho = (v[hi, j] - 0.5) / (v[hi, j] - v[lo, j])
        pi[lo, j] += mass * rho
        pi[hi, j] += mass * (1 - rho)

    add_pair(0, 3, 0, 0.2)
    add_pair(1, 4, 0, 0.2)
    pi[2, 0] = 0.1
    add_pair(0, 4, 1, 0.2)
    add_pair(1, 3, 1, 0.2)
    assignment = L.AssignmentMatrix(
        pi=pi,
        type_grid=inst.type_grid,
        threshold_grid=thresholds,
        type_weights=pi.sum(axis=1),
        vote=v,
    )
    assert np.max(np.abs(assignment.threshold_residuals())) < 1e-12

    d = V.refine_assignment(assignment)
    assert d.refined
    assert d.leftover <= 1e-12
    j = np.searchsorted(thresholds, d.threshold)
    assert np.array_equal(thresholds[j], d.threshold)
    assert np.all(pi[d.low, j] > L.SUPPORT_TOL) and np.all(pi[d.high, j] > L.SUPPORT_TOL)
    placed = np.zeros_like(pi)
    np.add.at(placed, (d.low, j), d.mass * d.rho)
    np.add.at(placed, (d.high, j), d.mass * (1 - d.rho))
    assert np.max(np.abs(placed - pi)) <= 1e-12
    two = d.low != d.high
    balance = d.rho * v[d.low, j] + (1 - d.rho) * v[d.high, j]
    assert balance[two] == pytest.approx(0.5, abs=1e-12)
    pool = ~d.packed & ~two
    assert list(zip(d.threshold[pool], inst.type_grid[d.low[pool]])) == [(0.0, 0.0)]
    assert d.mass[pool] == pytest.approx([0.1], abs=1e-12)


# ---------------------------------------------------------------------------
# single-dipped districting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.5, 1.2, 1.7, 6.0])
def test_optimal_solutions_single_dipped(solve_cached, gamma):
    inst, sol = solve_cached(gamma)
    report = V.check_single_dipped(sol.assignment)
    assert report.ok
    assert report.violations == []


def test_single_dipped_violation_detected():
    # Hand-built infeasible-in-shape assignment: a pair straddling -0.5 has a
    # LOWER threshold than the interior point district at -0.5, so the point
    # type sits strictly inside the span of a weaker district.
    inst = M.ProblemInstance(
        type_grid=np.array([-1.0, -0.5, 0.0]),
        type_weights=np.array([0.4, 0.2, 0.4]),
        taste=M.NORMAL,
        gamma=1.0,
    )
    thresholds = np.array([-0.75, -0.5, 0.0])
    v = M.vote_share(inst, inst.type_grid[:, None], thresholds[None, :])
    pi = np.zeros((3, 3))
    # pair {-1, 0} balanced at threshold -0.75
    lo, hi = v[0, 0] - 0.5, v[2, 0] - 0.5
    rho = hi / (hi - lo)
    pair_mass = 0.4 / rho  # exhaust the low type
    pi[0, 0] = pair_mass * rho
    pi[2, 0] = pair_mass * (1 - rho)
    pi[1, 1] = 0.2          # point district at -0.5, threshold -0.5
    pi[2, 2] = 0.4 - pi[2, 0]  # leftover packed at 0
    assignment = L.AssignmentMatrix(
        pi=pi,
        type_grid=inst.type_grid,
        threshold_grid=thresholds,
        type_weights=inst.type_weights,
        vote=v,
    )
    assert np.max(np.abs(assignment.row_residuals())) < 1e-12
    assert np.max(np.abs(assignment.threshold_residuals())) < 1e-12
    report = V.check_single_dipped(assignment)
    assert not report.ok
    assert report.violations == [(-1.0, -0.5, 0.0, -0.75, -0.5)]


def test_district_table_matches_loop_reference():
    # A random assignment with many violations: the bincount masses and the
    # broadcast single-dipped check equal their per-district loops.
    rng = np.random.default_rng(7)
    inst = M.uniform_instance(n=41, gamma=2.0)
    grid = inst.type_grid
    pi = rng.random((41, 41)) * (rng.random((41, 41)) < 0.15)
    v = M.vote_share(inst, grid[:, None], grid[None, :])
    assignment = L.AssignmentMatrix(
        pi=pi, type_grid=grid, threshold_grid=grid.copy(), type_weights=pi.sum(axis=1), vote=v
    )
    d = V.refine_assignment(assignment)
    rows = list(zip(d.threshold, d.low, d.high, d.rho, d.mass, d.packed))
    seg, pair = np.zeros(grid.size), np.zeros(grid.size)
    for _r, lo, hi, rho, m, packed in rows:
        if packed:
            seg[lo] += m
        else:
            pair[lo] += m * rho
            pair[hi] += m * (1 - rho)
    assert np.array_equal(d.seg_mass, seg)
    assert np.array_equal(d.pair_mass, pair)
    spans = [(r, grid[lo], grid[hi]) for r, lo, hi, *_ in rows if lo != hi]
    expected = sorted(
        (float(a), float(s), float(b), float(r), float(r_mid))
        for r_mid, lo, hi, *_ in rows
        for s in {grid[lo], grid[hi]}
        for r, a, b in spans
        if r_mid > r and a + L.AT_TOL < s < b - L.AT_TOL
    )
    assert len(expected) > 100
    assert V.check_single_dipped(assignment).violations == expected


# ---------------------------------------------------------------------------
# pack-and-pair decomposition and regime classification
# ---------------------------------------------------------------------------

EXPECTED_REGIMES = {
    0.2: V.RegimeLabel.PMP,
    0.5: V.RegimeLabel.PMP,
    1.0: V.RegimeLabel.PMP,
    1.2: V.RegimeLabel.MIXED_PMP,
    1.4: V.RegimeLabel.MIXED_PMP,
    1.6: V.RegimeLabel.MIXED_POP,
    1.7: V.RegimeLabel.POP,
    3.0: V.RegimeLabel.POP,
    6.0: V.RegimeLabel.POP,
}


@pytest.mark.parametrize("gamma", sorted(EXPECTED_REGIMES))
def test_regime_classification(solve_cached, gamma):
    inst, sol = solve_cached(gamma)
    decomp = V.decompose_pack_and_pair(sol.assignment)
    assert decomp.ok, decomp.reason
    label = V.classify_regime(decomp)
    assert label == EXPECTED_REGIMES[gamma]


@pytest.mark.parametrize("gamma", [1.2, 1.4, 1.6])
def test_mixed_regime_bifurcation_near_zero(solve_cached, gamma):
    _, sol = solve_cached(gamma)
    decomp = V.decompose_pack_and_pair(sol.assignment)
    assert decomp.ok
    assert abs(decomp.bifurcation) <= 0.02


def test_decomposition_masses(solve_cached):
    _, sol = solve_cached(6.0)
    decomp = V.decompose_pack_and_pair(sol.assignment)
    assert decomp.ok
    d = decomp.districts
    assert float(d.seg_mass.sum() + d.pair_mass.sum()) == pytest.approx(1.0, abs=1e-8)
    assert d.packed.any() and not d.packed.all()
    # every pair threshold lies strictly above the bifurcation point
    pair = ~d.packed
    r = d.threshold[pair]
    assert np.all(r > decomp.bifurcation)
    assert np.all(d.type_grid[d.low[pair]] <= r) and np.all(r <= d.type_grid[d.high[pair]])
    assert np.all(d.threshold[d.packed] <= decomp.bifurcation + 1e-12)


def test_decomposition_failure_reasons():
    grid = np.arange(-5, 6) / 5.0  # thresholds are the types, step 0.2
    inst = M.ProblemInstance(
        type_grid=grid, type_weights=np.full(11, 1 / 11), taste=M.NORMAL, gamma=1.0
    )
    v = M.vote_share(inst, grid[:, None], grid[None, :])

    def decompose(*pairs, packed=()):
        # pairs (low, high, threshold) of mass 0.1; packed types of mass 0.1
        pi = np.zeros((11, 11))
        for lo, hi, j in pairs:
            rho = (v[hi, j] - 0.5) / (v[hi, j] - v[lo, j])
            pi[lo, j] += 0.1 * rho
            pi[hi, j] += 0.1 * (1 - rho)
        for i in packed:
            pi[i, i] += 0.1
        return V.decompose_pack_and_pair(
            L.AssignmentMatrix(pi=pi, type_grid=grid, threshold_grid=grid,
                               type_weights=pi.sum(axis=1), vote=v)
        )

    nested = decompose((3, 7, 5), (2, 8, 6), packed=[0])
    assert (nested.ok, nested.bifurcation) == (True, -0.2)
    above = decompose((3, 7, 5), packed=[8])
    assert above.reason == "packed district at 0.6 lies above the bifurcation point -0.2"
    # the stronger column's low type 0.0, or its high type 0.4, sits inside
    # the weaker column's pair
    crossed = [decompose((3, 7, 5), (5, 7, 6)), decompose((3, 9, 5), (2, 7, 6))]
    for failed in crossed:
        assert failed.reason == "pairing maps are not monotone in the threshold"
    for failed in [above, *crossed]:
        assert failed.bifurcation is None
        assert V.classify_regime(failed) == V.RegimeLabel.NOT_PACK_AND_PAIR


# ---------------------------------------------------------------------------
# sufficient condition for pack-and-pair optimality (quadruple scan)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
def test_pap_condition_holds_normal(gamma):
    assert V.check_pap_condition(gamma) == []


def test_pap_condition_rejects_bad_gamma():
    # an empty list would certify pack-and-pair optimality
    for gamma in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(M.GerryOptError, match="finite and positive"):
            V.check_pap_condition(gamma)


def test_pap_grid_shape():
    grid = V.PAP_GRID
    assert grid.size == 101
    assert grid[0] == -5.0 and grid[-1] == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(np.diff(grid), 0.1)


# Cauchy taste shock: heavy tails break the sufficient condition in the far
# left tail of the grid.  ppf and log_density_dd are not used by the scan.
CAUCHY = M.TasteDistribution(
    name="cauchy",
    cdf=lambda x: 0.5 + np.arctan(np.asarray(x, dtype=float)) / np.pi,
    pdf=lambda x: 1.0 / (np.pi * (1.0 + np.asarray(x, dtype=float) ** 2)),
    ppf=None,
    log_density_dd=None,
)

# (s, r, s', s'') of every violating quadruple; s'' is the first grid point
# at or above s' where the packed alternative is least
CAUCHY_PAP_VIOLATIONS = {
    2.0: [
        (-5.0, -3.4, -3.3, -0.09999999999999964),
        (-5.0, -3.3, -3.2, -0.09999999999999964),
        (-5.0, -3.2, -3.0999999999999996, -0.09999999999999964),
        (-5.0, -3.0999999999999996, -3.0, -0.09999999999999964),
        (-5.0, -3.0, -2.9, -0.09999999999999964),
        (-5.0, -2.9, -2.8, -0.09999999999999964),
        (-5.0, -2.8, -2.6999999999999997, -0.09999999999999964),
        (-5.0, -2.6999999999999997, -2.5999999999999996, -0.09999999999999964),
    ],
    6.0: [
        (-5.0, -3.3, -3.2, 0.0),
        (-5.0, -3.2, -3.0999999999999996, 0.0),
        (-5.0, -3.0999999999999996, -3.0, 0.0),
        (-5.0, -3.0, -2.9, 0.0),
        (-5.0, -2.9, -2.8, 0.0),
    ],
}


@pytest.mark.parametrize("gamma", sorted(CAUCHY_PAP_VIOLATIONS))
def test_pap_condition_reports_cauchy_violations(gamma):
    assert V.check_pap_condition(gamma, taste=CAUCHY) == CAUCHY_PAP_VIOLATIONS[gamma]


def _pap_scan_reference(gamma, taste):
    """The quadruple scan as a scalar double loop over (s, r)."""
    x = V.PAP_GRID
    n = x.size
    Q = lambda z: np.asarray(taste.cdf(z), dtype=float)
    q = lambda z: np.asarray(taste.pdf(z), dtype=float)
    G_all = Q(gamma * x)
    g_all = gamma * q(gamma * x)
    q0 = float(q(0.0))
    violations = []
    for i_s in range(n - 2):
        s = x[i_s]
        alt = G_all + (g_all / q0) * (Q(s - x) - 0.5)
        suffix_min = np.minimum.accumulate(alt[::-1])[::-1]
        for i_r in range(i_s + 1, n - 1):
            r = x[i_r]
            sp = x[i_r + 1 :]
            qs = float(q(s - r))
            Qs = float(Q(s - r))
            Qsp = Q(sp - r)
            denom = (Qsp - 0.5) * qs - (Qs - 0.5) * q(sp - r)
            lam = float(g_all[i_r]) * (Qsp - Qs) / denom
            lhs = float(G_all[i_r]) + lam * (Qs - 0.5)
            cond1 = lhs - float(G_all[i_s]) > V.PAP_MARGIN
            cond2 = lhs - suffix_min[i_r + 1 :] > V.PAP_MARGIN
            for k in np.flatnonzero(cond1 & cond2):
                i_sp = i_r + 1 + int(k)
                i_spp = i_sp + int(np.argmin(alt[i_sp:]))
                violations.append((float(s), float(r), float(x[i_sp]), float(x[i_spp])))
    violations.sort()
    return violations


PAP_ORACLE_GAMMAS = [0.05, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 6.0, 10.0, 30.0, 50.0, 100.0]

# Not a taste distribution: the Cauchy cdf and pdf rounded to one decimal (pdf
# at least 0.01).  Its plateaus give ties in the packed alternative at
# violating cells, so the first-minimiser rule matters, and second-inequality
# margins inside (0, PAP_MARGIN].  Cells where both Q round to 1/2 are 0/0.
STEPPED = M.TasteDistribution(
    name="stepped",
    cdf=lambda x: np.round(CAUCHY.cdf(x), 1),
    pdf=lambda x: np.maximum(np.round(CAUCHY.pdf(x), 1), 0.01),
    ppf=None,
    log_density_dd=None,
)


@pytest.mark.parametrize(
    "taste, gammas, n_violations",
    [
        (M.NORMAL, PAP_ORACLE_GAMMAS, 0),
        (M.LOGISTIC, PAP_ORACLE_GAMMAS, 0),
        (CAUCHY, PAP_ORACLE_GAMMAS, 96),
        (STEPPED, [2.0, 6.0], 19842),
    ],
    ids=["normal", "logistic", "cauchy", "stepped"],
)
def test_pap_condition_matches_loop_reference(taste, gammas, n_violations):
    # the table scan returns exactly the scalar loop's list, order included
    total = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for gamma in gammas:
            expected = _pap_scan_reference(gamma, taste)
            assert V.check_pap_condition(gamma, taste=taste) == expected, gamma
            total += len(expected)
    assert total == n_violations


# ---------------------------------------------------------------------------
# necessary conditions for a Y-shaped (negative assortative top) optimum
# ---------------------------------------------------------------------------


def test_y_conditions_admissible_window():
    # closed-form boundary: admissible iff 1 < gamma <= sqrt(1 + sqrt(3))
    boundary = math.sqrt(1.0 + math.sqrt(3.0))
    assert V.y_necessary_conditions(1.3).admissible
    assert V.y_necessary_conditions(boundary).admissible
    assert not V.y_necessary_conditions(boundary + 1e-6).admissible
    assert not V.y_necessary_conditions(6.0).admissible


def test_y_condition_spot_values():
    rep = V.y_necessary_conditions(1.6)
    assert rep.beta1 == pytest.approx(3 * 1.6**2 / (2 * (1.6**2 - 1)), abs=1e-12)
    assert rep.beta2 == pytest.approx(1.6**2 / 2, abs=1e-12)
    rep17 = V.y_necessary_conditions(1.7)
    assert rep17.beta1 == pytest.approx(2.2937, abs=1e-4)
    assert rep17.beta2 == pytest.approx(1.445, abs=1e-12)
    assert not rep17.admissible


def test_y_conditions_invalid_gamma():
    with pytest.raises(M.GerryOptError):
        V.y_necessary_conditions(1.0)
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(M.GerryOptError, match="finite and positive"):
            V.y_necessary_conditions(gamma)


# ---------------------------------------------------------------------------
# local swap conditions on segregated / paired blocks
# ---------------------------------------------------------------------------


def test_seg_nad_spot_triples():
    # asymmetric pair {-1, 0.5} pooled at threshold 0: with a steep seat
    # curve splitting wins, with a flat one pooling wins
    triple = [(-1.0, 0.0, 0.5)]
    steep = V.check_seg_nad_conditions(M.uniform_instance(n=11, gamma=6.0), triples=triple)
    assert steep.n_split_preferred == 1 and steep.n_pool_preferred == 0
    flat = V.check_seg_nad_conditions(M.uniform_instance(n=11, gamma=0.5), triples=triple)
    assert flat.n_pool_preferred == 1 and flat.n_split_preferred == 0


@pytest.mark.parametrize("gamma", [2.0, 6.0])
def test_seg_nad_default_sampling(gamma):
    inst = M.uniform_instance(gamma=gamma)
    report = V.check_seg_nad_conditions(inst)
    n = report.n_pool_preferred + report.n_split_preferred
    assert n > 0
    assert len(report.pool_triples) == report.n_pool_preferred
    assert len(report.split_triples) == report.n_split_preferred
    # interior regimes mix both local incentives
    assert report.mixed == (report.n_pool_preferred > 0 and report.n_split_preferred > 0)


# ---------------------------------------------------------------------------
# dual certificate checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
def test_dual_support_max_attained(solve_cached, gamma):
    inst, sol = solve_cached(gamma)
    report = V.check_dual_support_optimality(inst, sol.assignment, sol.certificate)
    # on the active support, phi(s) attains the max over thresholds
    assert report.part1_ok
    assert report.worst_slack < 1e-8


def test_dual_multiplier_check_ignores_packed_vertex_choice(solve_cached):
    # On a packed column the only active cell has v = 1/2, so any lambda in
    # [L, U] (bounds from phi on the other types) is an equally optimal dual.
    inst, sol = solve_cached(2.0)
    a, cert = sol.assignment, sol.certificate
    base = V.check_dual_support_optimality(inst, a, cert)
    assert all(r > -1.0 + 1e-9 for r, *_ in base.part2_errors)

    g_of_r = np.asarray(inst.G(a.threshold_grid), dtype=float)
    active = a.pi > L.SUPPORT_TOL
    packed = np.flatnonzero(active.sum(axis=0) == 1)
    assert a.threshold_grid[packed[0]] == -1.0
    lower, upper = np.empty(packed.size), np.empty(packed.size)
    for k, j in enumerate(packed):
        dv = a.vote[:, j] - 0.5
        bound = (cert.phi - g_of_r[j]) / np.where(dv == 0, 1.0, dv)
        lower[k] = bound[dv < 0].max() if (dv < 0).any() else -np.inf
        upper[k] = bound[dv > 0].min() if (dv > 0).any() else np.inf
    assert lower[0] == -np.inf  # no type lies below r = -1
    lower = np.where(np.isfinite(lower), lower, upper - 1.0)
    upper = np.where(np.isfinite(upper), upper, lower + 1.0)

    for t in (0.0, 0.5, 1.0):
        lam = cert.lambda_.copy()
        lam[packed] = lower + t * (upper - lower)
        moved = L.DualCertificate(
            lambda_=lam, phi=cert.phi, type_grid=cert.type_grid, threshold_grid=cert.threshold_grid
        )
        report = V.check_dual_support_optimality(inst, a, moved)
        assert report.worst_slack < 1e-8  # still an optimal dual
        assert report.part2_ok == base.part2_ok
        assert report.worst_multiplier_error == base.worst_multiplier_error
        assert report.part2_errors == base.part2_errors


def test_full_segregation_assignment_classified():
    inst = M.uniform_instance(n=41, gamma=2.0)
    n = inst.type_grid.size
    pi = np.diag(inst.type_weights)
    v = M.vote_share(inst, inst.type_grid[:, None], inst.type_grid[None, :])
    assignment = L.AssignmentMatrix(
        pi=pi,
        type_grid=inst.type_grid,
        threshold_grid=inst.type_grid,
        type_weights=inst.type_weights,
        vote=v,
    )
    decomp = V.decompose_pack_and_pair(assignment)
    assert decomp.ok
    assert decomp.districts.pair_mass == pytest.approx(0.0, abs=1e-12)
    label = V.classify_regime(decomp)
    assert label == V.RegimeLabel.SEGREGATION
