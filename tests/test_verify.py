import math
from dataclasses import replace

import numpy as np
import pytest

from gerryopt import lp as L
from gerryopt import model as M
from gerryopt import verify as V
from test_acceptance import FIG_GAMMAS


# ---------------------------------------------------------------------------
# refinement of the raw assignment into canonical districts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
def test_refinement_conserves_mass_and_value(solve_cached, gamma):
    inst, sol = solve_cached(gamma)
    d = V.refine_assignment(sol.lp, sol.pi)
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
    d = V.refine_assignment(sol.lp, sol.pi)
    two = d.low != d.high
    assert two.any()
    r, rho = d.threshold[two], d.rho[two]
    v_lo = M.vote_share(inst, inst.type_grid[d.low[two]], r)
    v_hi = M.vote_share(inst, inst.type_grid[d.high[two]], r)
    assert np.max(np.abs(rho * v_lo + (1 - rho) * v_hi - 0.5)) < 1e-10


def test_refinement_splits_each_column_on_its_own_types():
    # Two adjacent pooled columns that share types; type 0 sits exactly at
    # the threshold of the first column.  The second column's threshold 0.1
    # is a type of zero mass.
    inst = M.ProblemInstance(
        type_grid=np.array([-1.0, -0.5, 0.0, 0.1, 0.5, 1.0]),
        type_weights=np.array([0.2, 0.2, 0.2, 0.0, 0.2, 0.2]),
        taste=M.NORMAL,
        gamma=1.0,
    )
    thresholds = inst.type_grid
    v = M.vote_share(inst, inst.type_grid[:, None], thresholds[None, :])
    pi = np.zeros((6, 6))

    def add_pair(lo, hi, j, mass):
        rho = (v[hi, j] - 0.5) / (v[hi, j] - v[lo, j])
        pi[lo, j] += mass * rho
        pi[hi, j] += mass * (1 - rho)

    add_pair(0, 4, 2, 0.2)
    add_pair(1, 5, 2, 0.2)
    pi[2, 2] = 0.1
    add_pair(0, 5, 3, 0.2)
    add_pair(1, 4, 3, 0.2)
    # every column is balanced at its threshold
    assert np.max(np.abs(((v - 0.5) * pi).sum(axis=0))) < 1e-12

    d = V.refine_assignment(L.build_lp(inst), pi)
    assert d.refined
    assert d.leftover <= 1e-12
    j = np.searchsorted(thresholds, d.threshold)
    assert np.array_equal(thresholds[j], d.threshold)
    assert np.all(pi[d.low, j] > M.SUPPORT_TOL) and np.all(pi[d.high, j] > M.SUPPORT_TOL)
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


def _refine_reference(prog, pi):
    """The rescanning split that ``refine_assignment``'s two pointers replaced,
    kept as their oracle.  Its ``leftover`` adds the unplaced budget and the
    unplaced remainder, which count the same mass twice, so it is not compared."""
    grid, a = prog.inst.type_grid, prog.a
    col_mass = pi.sum(axis=0)
    rows, leftover, refined = [], 0.0, False
    for j in np.flatnonzero(col_mass > M.SUPPORT_TOL):
        r = float(grid[j])
        active = np.flatnonzero(pi[:, j] > M.SUPPORT_TOL)
        if active.size == 1:
            i = int(active[0])
            rows.append((r, i, i, 1.0, float(col_mass[j]), True))
            continue
        refined |= active.size > 2
        rem = pi[:, j].copy()
        rem[rem < M.SUPPORT_TOL] = 0.0
        budget = float(col_mass[j])
        while budget > M.SUPPORT_TOL:
            alive = np.flatnonzero(rem > M.SUPPORT_TOL)
            if alive.size == 0:
                break
            lo, hi = int(alive[0]), int(alive[-1])
            if lo < j < hi:
                rho = a[hi, j] / (a[hi, j] - a[lo, j])
                t = float(min(budget, rem[lo] / rho, rem[hi] / (1.0 - rho)))
            else:
                if rem[j] <= M.SUPPORT_TOL:
                    break
                lo = hi = int(j)
                rho = 1.0
                t = min(budget, float(rem[lo]))
            rows.append((r, lo, hi, rho, t, False))
            rem[lo] -= t * rho
            rem[hi] -= t * (1.0 - rho)
            rem[rem < M.SUPPORT_TOL] = 0.0
            budget -= t
        leftover += max(budget, 0.0) + float(rem.sum())
    rows.sort(key=lambda row: row[0])
    columns = zip(*rows) if rows else [()] * 6
    dtypes = (float, int, int, float, float, bool)
    return V.Districts(*map(np.array, columns, dtypes), grid, float(leftover), refined)


def _assert_split_equal(got, want):
    for name in ("threshold", "low", "high", "rho", "mass", "packed"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.refined == want.refined


def _one_column(grid, masses, j):
    """(lp, pi) of an assignment whose only column is threshold ``grid[j]``, holding ``masses``."""
    inst = M.ProblemInstance(
        type_grid=grid, type_weights=np.full(grid.size, 1.0 / grid.size), taste=M.NORMAL, gamma=1.0
    )
    pi = np.zeros((grid.size, grid.size))
    pi[:, j] = masses
    return L.build_lp(inst), pi


@pytest.mark.parametrize("taste", [M.NORMAL, M.LOGISTIC], ids=lambda t: t.name)
def test_split_matches_loop_reference_on_sweeps(taste):
    for gamma in FIG_GAMMAS + [10.0, 30.0]:
        sol = L.solve_lp(L.build_lp(M.uniform_instance(n=101, gamma=gamma, taste=taste)))
        _assert_split_equal(V.refine_assignment(sol.lp, sol.pi), _refine_reference(sol.lp, sol.pi))


def test_split_matches_loop_reference_on_threshold_type_and_unbalanced_tail():
    # Column r = 0 holds two low types, the threshold type and three high
    # types whose mass the low side cannot balance.
    grid = np.array([-1.0, -0.6, -0.2, 0.0, 0.3, 0.7, 1.2])
    a = _one_column(grid, [0.05, 0.1, 0.08, 0.07, 0.2, 0.25, 0.25], 3)
    d, want = V.refine_assignment(*a), _refine_reference(*a)
    _assert_split_equal(d, want)
    assert d.refined
    pool = d.low == d.high
    assert list(d.low[pool]) == [3] and d.mass[pool] == pytest.approx([0.07], abs=1e-15)
    placed = float(d.mass.sum())
    assert d.leftover == pytest.approx(1.0 - placed, abs=1e-15)
    assert want.leftover > d.leftover + 0.1  # the reference counted the high tail twice


def test_split_counts_unplaced_mass_once():
    # 0.3 low and 0.5 high mass pair 0.6 of the column; 0.2 of the high type is left.
    a = _one_column(np.array([-1.0, 0.0, 1.0]), [0.3, 0.0, 0.5], 1)
    d = V.refine_assignment(*a)
    assert float(d.mass.sum()) == pytest.approx(0.6, abs=1e-15)
    assert abs(d.leftover - 0.2) <= 1e-15
    assert not d.ok
    assert V.decompose_pack_and_pair(*a).reason == "column split left 2.00e-01 unplaced mass"


# ---------------------------------------------------------------------------
# single-dipped districting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.5, 1.2, 1.7, 6.0])
def test_optimal_solutions_single_dipped(solve_cached, gamma):
    inst, sol = solve_cached(gamma)
    assert V.check_single_dipped(sol.lp, sol.pi) == []


def test_single_dipped_violation_detected():
    # Hand-built infeasible-in-shape assignment: a pair straddling -0.5 has a
    # LOWER threshold than the interior point district at -0.5, so the point
    # type sits strictly inside the span of a weaker district.  The pair's
    # threshold -0.75 is a type of zero mass.
    inst = M.ProblemInstance(
        type_grid=np.array([-1.0, -0.75, -0.5, 0.0]),
        type_weights=np.array([0.4, 0.0, 0.2, 0.4]),
        taste=M.NORMAL,
        gamma=1.0,
    )
    thresholds = inst.type_grid
    v = M.vote_share(inst, inst.type_grid[:, None], thresholds[None, :])
    pi = np.zeros((4, 4))
    # pair {-1, 0} balanced at threshold -0.75
    lo, hi = v[0, 1] - 0.5, v[3, 1] - 0.5
    rho = hi / (hi - lo)
    pair_mass = 0.4 / rho  # exhaust the low type
    pi[0, 1] = pair_mass * rho
    pi[3, 1] = pair_mass * (1 - rho)
    pi[2, 2] = 0.2          # point district at -0.5, threshold -0.5
    pi[3, 3] = 0.4 - pi[3, 1]  # leftover packed at 0
    assert np.max(np.abs(pi.sum(axis=1) - inst.type_weights)) < 1e-12
    assert np.max(np.abs(((v - 0.5) * pi).sum(axis=0))) < 1e-12
    assert V.check_single_dipped(L.build_lp(inst), pi) == [(-1.0, -0.5, 0.0, -0.75, -0.5)]


def test_district_table_matches_loop_reference():
    # A random assignment with many violations: the bincount masses and the
    # broadcast single-dipped check equal their per-district loops.
    rng = np.random.default_rng(7)
    inst = M.uniform_instance(n=41, gamma=2.0)
    grid = inst.type_grid
    pi = rng.random((41, 41)) * (rng.random((41, 41)) < 0.15)
    prog = L.build_lp(inst)
    d = V.refine_assignment(prog, pi)
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
        if r_mid > r and a < s < b
    )
    assert len(expected) > 100
    assert V.check_single_dipped(prog, pi) == expected


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
    decomp = V.decompose_pack_and_pair(sol.lp, sol.pi)
    assert decomp.ok, decomp.reason
    label = V.classify_regime(decomp)
    assert label == EXPECTED_REGIMES[gamma]


@pytest.mark.parametrize("gamma", [1.2, 1.4, 1.6])
def test_mixed_regime_bifurcation_near_zero(solve_cached, gamma):
    _, sol = solve_cached(gamma)
    decomp = V.decompose_pack_and_pair(sol.lp, sol.pi)
    assert decomp.ok
    assert abs(decomp.bifurcation) <= 0.02


def test_decomposition_masses(solve_cached):
    _, sol = solve_cached(6.0)
    decomp = V.decompose_pack_and_pair(sol.lp, sol.pi)
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
        return V.decompose_pack_and_pair(L.build_lp(inst), pi)

    nested = decompose((3, 7, 5), (2, 8, 6), packed=[0])
    assert (nested.ok, nested.bifurcation) == (True, -0.2)
    above = decompose((3, 7, 5), packed=[8])
    assert above.reason == "packed district at 0.6 lies above the bifurcation point -0.2"
    # the stronger column's low type 0.0, or its high type 0.4, sits inside
    # the weaker column's pair
    crossed = [decompose((3, 7, 5), (5, 7, 6)), decompose((3, 9, 5), (2, 7, 6))]
    for failed in crossed:
        assert failed.reason == "pairing maps are not monotone in the threshold"
    empty = decompose()  # all-zero assignment
    assert empty.reason == "empty assignment"
    for failed in [above, *crossed, empty]:
        assert failed.bifurcation is None
        assert V.classify_regime(failed) == V.RegimeLabel.NOT_PACK_AND_PAIR


def _classify_reference(decomp):
    """The per-type status loop ``classify_regime`` replaced, kept as its oracle."""
    if not decomp.ok:
        return V.RegimeLabel.NOT_PACK_AND_PAIR

    f = decomp.type_weights
    seg_mass = decomp.districts.seg_mass
    pair_mass = decomp.districts.pair_mass
    live = np.flatnonzero(f > 0)
    status = []
    for i in live:
        seg, pair = seg_mass[i], pair_mass[i]
        if pair <= V.SPLIT_FRAC * f[i]:
            status.append("seg")
        elif seg <= V.SPLIT_FRAC * f[i]:
            status.append("pair")
        else:
            status.append("split")

    n = len(status)
    n_seg = status.count("seg")
    if n_seg == n:
        return V.RegimeLabel.SEGREGATION
    if n_seg == 0 and "split" not in status:
        return V.RegimeLabel.NEGATIVE_ASSORTATIVE

    seg_idx = [k for k, st in enumerate(status) if st == "seg"]
    split_idx = [k for k, st in enumerate(status) if st == "split"]
    pure = False
    if seg_idx:
        a, b = seg_idx[0], seg_idx[-1]
        contiguous = seg_idx == list(range(a, b + 1))
        edge_ok = all(k in (a - 1, b + 1) for k in split_idx)
        if contiguous and edge_ok:
            pure = True
            a = min([a] + [k for k in split_idx if k == a - 1])
            b = max([b] + [k for k in split_idx if k == b + 1])

    if pure:
        if a == 0 and b < n - 1:
            return V.RegimeLabel.POP
        if 0 < a and b < n - 1:
            return V.RegimeLabel.PMP
        return V.RegimeLabel.OTHER_Y

    first = next((st for st in status if st != "split"), None)
    if first == "seg":
        return V.RegimeLabel.MIXED_POP
    if first == "pair":
        return V.RegimeLabel.MIXED_PMP
    return V.RegimeLabel.OTHER_Y


@pytest.mark.parametrize("n", [41, 101])
def test_classify_matches_loop_reference_on_sweeps(n):
    gammas = [0.05, 0.2, 0.5, 1.0, 1.2, 1.4, 1.6, 1.7, 2.0, 3.0, 6.0, 10.0, 15.0, 30.0, 60.0]
    labels = set()
    for gamma in gammas:
        _sol, decomp, label = L.solve_and_classify(M.uniform_instance(n=n, gamma=gamma))
        assert label == _classify_reference(decomp), gamma
        labels.add(label)
    assert {V.RegimeLabel.PMP, V.RegimeLabel.MIXED_PMP, V.RegimeLabel.POP} <= labels


def _mass_pattern_decomposition(status, f, rng, ok=True):
    """A decomposition whose per-type seg and pair masses give each type the
    wanted status; masses sit on the SPLIT_FRAC boundary now and then."""
    n = f.size
    minor = V.SPLIT_FRAC * f * rng.choice([0.0, 0.5, 1.0], size=n)
    split = f * rng.uniform(2 * V.SPLIT_FRAC, 1.0 - 2 * V.SPLIT_FRAC, size=n)
    seg = np.select([status == "seg", status == "pair"], [f - minor, minor], split)
    pair = f - seg
    idx = np.arange(n)
    # one packed district per type with seg mass, one unpacked one-type district per type with pair mass
    low = np.concatenate([idx, idx])
    mass = np.concatenate([seg, pair])
    districts = V.Districts(
        threshold=np.zeros(2 * n),
        low=low,
        high=low,
        rho=np.ones(2 * n),
        mass=mass,
        packed=np.repeat([True, False], n),
        type_grid=np.linspace(-1.0, 1.0, n),
        leftover=0.0 if ok else 1.0,
        refined=False,
    )
    return V.PackAndPairDecomposition(ok, None, None, districts, f)


def _random_status(rng, n):
    kind = rng.integers(6)
    if kind == 0:  # independent statuses: mostly mixed
        return rng.choice(["seg", "pair", "split"], size=n)
    if kind == 1:  # nothing segregated
        return rng.choice(["pair", "split"], size=n, p=[0.8, 0.2])
    status = np.full(n, "pair", dtype=object)
    a = int(rng.integers(0, n))
    b = int(rng.integers(a, n)) if kind != 2 else n - 1
    status[a : b + 1] = "seg"
    for edge in (a - 1, b + 1):
        if 0 <= edge < n and rng.random() < 0.5:
            status[edge] = "split"
    if kind == 3:  # one stray status anywhere
        status[rng.integers(n)] = rng.choice(["seg", "pair", "split"])
    if kind == 4 and rng.random() < 0.2:
        status[:] = "seg"
    return status.astype(str)


def test_classify_matches_loop_reference_on_mass_patterns():
    rng = np.random.default_rng(14)
    labels = set()
    for trial in range(3000):
        n = int(rng.integers(1, 9))
        f = rng.uniform(0.1, 1.0, size=n) * (rng.random(n) > 0.15)
        if not f.any():
            f[rng.integers(n)] = 1.0
        decomp = _mass_pattern_decomposition(_random_status(rng, n), f, rng, ok=rng.random() > 0.02)
        label = V.classify_regime(decomp)
        assert label == _classify_reference(decomp), trial
        labels.add(label)
    assert labels == set(V.RegimeLabel)


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
# left tail of the grid.
CAUCHY = M.TasteDistribution(
    name="cauchy",
    cdf=lambda x: 0.5 + np.arctan(np.asarray(x, dtype=float)) / np.pi,
    pdf=lambda x: 1.0 / (np.pi * (1.0 + np.asarray(x, dtype=float) ** 2)),
    centred=lambda x: np.arctan(np.asarray(x, dtype=float)) / np.pi,
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
    centred=lambda x: np.round(CAUCHY.cdf(x), 1) - 0.5,
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
# dual certificate checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
def test_dual_support_max_attained(solve_cached, gamma):
    inst, sol = solve_cached(gamma)
    report = V.check_dual_support_optimality(sol)
    # on the active support, phi(s) attains the max over thresholds
    assert report.worst_slack <= V.DUAL_TOL
    assert report.worst_slack < 1e-8


def test_dual_multiplier_check_ignores_packed_vertex_choice(solve_cached):
    # On a packed column the only active cell has v = 1/2, so any lambda in
    # [L, U] (bounds from phi on the other types) is an equally optimal dual.
    for gamma in (2.0, 30.0):
        inst, sol = solve_cached(gamma)
        base = V.check_dual_support_optimality(sol)
        # part 2 exceeds POOLING_TOL at gamma=30 (see its comment), but not at the packed column r = -1
        assert len(base.part2_errors) > 0 if gamma == 30.0 else base.worst_multiplier_error <= V.POOLING_TOL
        assert all(r > -1.0 + 1e-9 for r, *_ in base.part2_errors)

        g_of_r = np.asarray(inst.G(inst.type_grid), dtype=float)
        active = sol.pi > M.SUPPORT_TOL
        packed = np.flatnonzero(active.sum(axis=0) == 1)
        assert inst.type_grid[packed[0]] == -1.0
        lower, upper = np.empty(packed.size), np.empty(packed.size)
        for k, j in enumerate(packed):
            dv = sol.lp.a[:, j]
            bound = (sol.phi - g_of_r[j]) / np.where(dv == 0, 1.0, dv)
            lower[k] = bound[dv < 0].max() if (dv < 0).any() else -np.inf
            upper[k] = bound[dv > 0].min() if (dv > 0).any() else np.inf
        assert lower[0] == -np.inf  # no type lies below r = -1
        lower = np.where(np.isfinite(lower), lower, upper - 1.0)
        upper = np.where(np.isfinite(upper), upper, lower + 1.0)

        for t in (0.0, 0.5, 1.0):
            lam = sol.lam.copy()
            lam[packed] = lower + t * (upper - lower)
            report = V.check_dual_support_optimality(replace(sol, lam=lam))
            assert report.worst_slack < 1e-8  # still an optimal dual
            assert (report.worst_multiplier_error <= V.POOLING_TOL) == (base.worst_multiplier_error <= V.POOLING_TOL)
            assert report.worst_multiplier_error == base.worst_multiplier_error
            assert report.part2_errors == base.part2_errors


def test_report_holds_each_measurement_to_its_tolerance(solve_cached, monkeypatch):
    inst, sol = solve_cached(2.0)
    decomp = V.decompose_pack_and_pair(sol.lp, sol.pi)
    rep = V.report(sol, decomp, V.classify_regime(decomp))
    assert rep["all_ok"] and all(c["ok"] for c in rep["checks"].values())
    assert [k for k, c in rep["checks"].items() if c.get("informational")] == ["dual_multiplier_formula"]
    assert not V.report(sol, decomp, V.RegimeLabel.NOT_PACK_AND_PAIR)["all_ok"]

    # a slack just above DUAL_TOL fails; a formula without scale fails only
    # the informational check, which all_ok does not count
    for slack, err, all_ok in ((V.DUAL_TOL, None, True), (2 * V.DUAL_TOL, 0.0, False)):
        monkeypatch.setattr(V, "check_dual_support_optimality", lambda _sol: V.DualSupportReport(slack, err, []))
        rep = V.report(sol, decomp, V.classify_regime(decomp))
        assert rep["checks"]["dual_support"]["ok"] == all_ok
        assert rep["checks"]["dual_multiplier_formula"]["ok"] == (err is not None)
        assert rep["all_ok"] == all_ok


def test_pap_report_fails_on_a_violation():
    assert V.pap_report(2.0)["all_ok"]
    rep = V.pap_report(2.0, CAUCHY)
    assert not rep["all_ok"]
    assert rep["checks"]["pap_condition"]["detail"] == {
        "n_violations": len(CAUCHY_PAP_VIOLATIONS[2.0]),
        "first": CAUCHY_PAP_VIOLATIONS[2.0][:10],
    }


def test_full_segregation_assignment_classified():
    inst = M.uniform_instance(n=41, gamma=2.0)
    n = inst.type_grid.size
    pi = np.diag(inst.type_weights)
    decomp = V.decompose_pack_and_pair(L.build_lp(inst), pi)
    assert decomp.ok
    assert decomp.districts.pair_mass == pytest.approx(0.0, abs=1e-12)
    label = V.classify_regime(decomp)
    assert label == V.RegimeLabel.SEGREGATION
