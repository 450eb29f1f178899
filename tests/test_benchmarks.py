import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from gerryopt import benchmarks as B
from gerryopt import model as M


def test_perfect_info_value():
    assert B.perfect_info_value(0.0) == 0.0
    assert B.perfect_info_value(0.3) == pytest.approx(0.6)
    assert B.perfect_info_value(0.5) == 1.0
    assert B.perfect_info_value(0.9) == 1.0
    with pytest.raises(M.GerryOptError):
        B.perfect_info_value(1.5)


# ---------------------------------------------------------------------------
# known shock: pool the top so it votes exactly 1/2
# ---------------------------------------------------------------------------


def known_shock_instance():
    # types placed so that vote shares v(s, r0=0) are uniform on (0, 0.8]:
    # s_i = Q^{-1}(u_i) for u_i an even grid on (0, 0.8]
    u = np.linspace(0.8 / 400, 0.8, 400)
    grid = ndtri(u)
    weights = np.full(grid.size, 1.0 / grid.size)
    return M.ProblemInstance(type_grid=grid, type_weights=weights, taste=M.NORMAL, gamma=1.0)


def test_known_shock_value_uniform_shares():
    # with shares uniform on (0, 0.8], the top pool balances at share 0.2,
    # so the winning mass is (0.8 - 0.2) / 0.8 = 0.75
    inst = known_shock_instance()
    res = B.no_aggregate_solution(inst, r0=0.0)
    # step-F discretization biases the pool mass up by about half a cell
    assert res.value == pytest.approx(0.75, abs=3e-3)
    assert float(M.NORMAL.cdf(res.cutoff)) == pytest.approx(0.2, abs=2e-3)
    # the pool's mean vote share is exactly 1/2
    pool = res.plan.district == res.plan.district[-1]
    mean_share = float(res.plan.weights[pool] @ M.vote_share(inst, res.plan.types[pool], 0.0))
    assert mean_share == pytest.approx(0.5, abs=1e-12)
    assert M.check_feasibility(inst, res.plan).feasible


def test_known_shock_majority_case():
    # population already votes above 1/2 on average: pool everyone, win all
    inst = M.uniform_instance(n=51, gamma=1.0)
    res = B.no_aggregate_solution(inst, r0=-0.5)
    assert res.value == 1.0


def test_known_shock_brute_force_cutoff():
    # brute-force oracle over integer cutoffs brackets the fractional optimum
    inst = M.uniform_instance(n=201, gamma=1.0)
    res = B.no_aggregate_solution(inst, r0=0.5)
    v = np.asarray(M.vote_share(inst, inst.type_grid, 0.5), dtype=float)
    f = inst.type_weights
    best = 0.0
    for k in range(f.size):
        tail_w = f[k:]
        if tail_w.sum() <= 0:
            continue
        if float(tail_w @ v[k:]) >= 0.5 * tail_w.sum():
            best = max(best, float(tail_w.sum()))
    assert best <= res.value + 1e-12
    assert res.value <= best + float(f.max()) + 1e-12


# ---------------------------------------------------------------------------
# no idiosyncratic shocks: value = integral of min(1, 2(1 - F)) dG
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [1.0, 6.0])
def test_no_idio_value_matches_quadrature(gamma):
    inst = M.uniform_instance(gamma=gamma)
    exact = B.no_idiosyncratic_value(inst)

    # independent oracle: smooth quadrature against the continuous uniform F;
    # for r < -1 the integrand is 1, for r > 1 it is 0
    def integrand(r):
        F = (r + 1.0) / 2.0
        return min(1.0, 2.0 * (1.0 - F)) * float(inst.g(r))

    smooth = float(inst.G(-1.0)) + quad(integrand, -1.0, 1.0, limit=200)[0]
    assert exact == pytest.approx(smooth, abs=5e-3)


def _no_idio_loop(inst):
    """Reference: the integral summed one grid step at a time."""
    cum = np.cumsum(inst.type_weights)
    g_at = np.asarray(inst.G(inst.type_grid), dtype=float)
    value = float(g_at[0])
    for i in range(inst.type_grid.size - 1):
        value += min(1.0, 2.0 * (1.0 - cum[i])) * float(g_at[i + 1] - g_at[i])
    return value


def test_no_idio_value_matches_loop_reference():
    rng = np.random.default_rng(9)
    instances = [M.uniform_instance(n=1), M.uniform_instance(n=201, gamma=6.0)]
    for i in range(100):
        n = int(rng.integers(2, 120))
        w = rng.dirichlet(np.full(n, (0.05, 1.0)[i % 2]))
        grid = np.sort(rng.choice(np.linspace(-3, 3, 601), n, replace=False))
        instances.append(M.ProblemInstance(grid, w / w.sum(), (M.NORMAL, M.LOGISTIC)[i % 2], float(rng.uniform(0.2, 30))))
    for inst in instances:
        assert B.no_idiosyncratic_value(inst) == _no_idio_loop(inst)  # bit for bit: both add left to right


def test_matching_slices_equals_quadrature_value(solve_cached):
    # under step vote shares the matching-slices plan attains the
    # min(1, 2(1-F)) dG integral
    for gamma in (1.0, 6.0):
        inst = M.uniform_instance(gamma=gamma)
        plan = B.matching_slices_plan(inst)
        assert M.check_feasibility(inst, plan).feasible
        assert B.no_idio_plan_value(inst, plan) == pytest.approx(
            B.no_idiosyncratic_value(inst), abs=1e-6
        )


def test_matching_slices_structure():
    inst = M.uniform_instance(n=101, gamma=2.0)
    plan = B.matching_slices_plan(inst)
    for d in range(plan.mass.size):
        types, weights = plan.types[plan.district == d], plan.weights[plan.district == d]
        if types.size == 2:
            # quantile pairs are symmetric around the median for a symmetric F
            assert types[0] + types[1] == pytest.approx(0.0, abs=1e-12)
            assert np.allclose(weights, 0.5)
    # symmetric pairs all have threshold 0: the plan is worth exactly 1/2
    assert M.expected_seat_share(inst, plan) == pytest.approx(0.5, abs=1e-10)


def test_matching_slices_skips_a_massless_middle_type():
    # the one pair uses up both ends; the scan then passes the empty middle
    # type from both sides and stops when the ends cross
    inst = M.ProblemInstance(type_grid=np.array([-1.0, 0.0, 1.0]), type_weights=np.array([0.5, 0.0, 0.5]), gamma=2.0)
    plan = B.matching_slices_plan(inst)
    assert plan.district.tolist() == [0, 0]
    assert plan.types.tolist() == [-1.0, 1.0]
    assert plan.weights.tolist() == [0.5, 0.5] and plan.mass.tolist() == [1.0]


def test_step_threshold_upper_median():
    plan = M.Plan(
        district=[0, 0, 0, 1, 1, 1],
        types=[-1.0, 0.2, 0.8] * 2,
        weights=[0.25, 0.25, 0.5, 0.2, 0.5, 0.3],
        mass=[0.5, 0.5],
    )
    assert B.step_threshold(plan) == pytest.approx([0.8, 0.2])


def _known_shock_pool_loop(inst, r0):
    """Reference: the pool of the known-shock optimum, filled type by type from the top."""
    f = inst.type_weights
    excess = f * (np.asarray(M.vote_share(inst, inst.type_grid, r0)) - 0.5)
    pool, acc = np.zeros_like(f), 0.0
    for i in range(f.size - 1, -1, -1):
        if acc + excess[i] >= 0.0 or excess[i] >= 0.0:
            pool[i] = f[i]
            acc += excess[i]
        else:
            pool[i] = f[i] * min(max(-acc / excess[i], 0.0), 1.0)
            break
    return pool


def _step_threshold_loop(types, weights):
    """Reference: the upper median of one district."""
    order = np.argsort(types)
    tail = np.cumsum(weights[order][::-1])[::-1]
    return types[order][tail >= 0.5 - 1e-12][-1]


def test_array_builders_match_loop_references():
    rng = np.random.default_rng(7)
    w = rng.uniform(0.1, 1.0, 57)
    lumpy = M.ProblemInstance(type_grid=np.linspace(-1, 1, 57), type_weights=w / w.sum(), gamma=2.0)
    for inst, r0 in [(M.uniform_instance(), 0.1), (M.uniform_instance(), 0.9), (lumpy, 0.3), (lumpy, 0.7)]:
        res = B.no_aggregate_solution(inst, r0)
        pool = _known_shock_pool_loop(inst, r0)
        pool[pool <= 1e-15] = 0.0  # rounding residue stays with its type
        keep, left = pool > 0.0, inst.type_weights - pool
        assert res.value == pool.sum()
        assert np.array_equal(res.plan.mass, np.r_[left[left > 1e-15], pool.sum()])
        assert np.array_equal(res.plan.weights[res.plan.district == res.plan.mass.size - 1], pool[keep] / pool.sum())

    sizes = rng.integers(1, 7, 40)
    district = np.repeat(np.arange(sizes.size), sizes)
    types = rng.choice(np.linspace(-1, 1, 21), district.size)
    raw = rng.uniform(0.1, 1.0, district.size)
    weights = raw / np.bincount(district, weights=raw)[district]
    plan = M.Plan(district=district, types=types, weights=weights, mass=np.full(sizes.size, 1 / sizes.size))
    want = [_step_threshold_loop(types[district == d], weights[district == d]) for d in range(sizes.size)]
    assert np.array_equal(B.step_threshold(plan), want)


def test_builders_place_type_masses_below_mass_tol():
    # weights of 3e-13 are real masses, not rounding residue: every plan
    # places them, so its type marginal is the instance's weights
    w = np.array([3e-13, 3e-13, 0.3, 0.3, 0.3, 0.1 - 9e-13, 3e-13])
    inst = M.ProblemInstance(type_grid=np.linspace(-1, 1, 7), type_weights=w, gamma=2.0)
    slices = B.matching_slices_plan(inst)
    assert np.abs(slices.type_marginal(inst) - w).max() <= M.ROUNDING_TOL
    assert 0.0 < M.expected_seat_share(inst, slices) < 1.0
    for r0 in (0.5, 0.6):  # pools of mass 0.2 and 0.125 that hold the top type
        plan = B.no_aggregate_solution(inst, r0).plan
        assert np.abs(plan.type_marginal(inst) - w).max() <= M.ROUNDING_TOL


def test_known_shock_pool_of_small_mass_drops_its_residue():
    # a Dirichlet(0.05) draw: the pool holds 2.6e-6 of mass, and its
    # top type's 1.1e-16 is rounding residue; counted in the divisor, it left
    # the pool weights 4e-11 short of 1
    w = np.array([4.859316367749427e-18, 0.9999987256110229, 1.274388977014525e-06, 1.1102230246251565e-16])
    inst = M.ProblemInstance(type_grid=np.linspace(-1, 1, 4), type_weights=w, gamma=7.683035004828435)
    res = B.no_aggregate_solution(inst, -0.011988489342716013)
    pool = res.plan.district == res.plan.mass.size - 1
    assert res.plan.weights[pool].sum() == pytest.approx(1.0, abs=M.MASS_TOL)
    assert res.value == res.plan.mass[-1]
    assert np.abs(res.plan.type_marginal(inst) - w).max() <= M.ROUNDING_TOL


# ---------------------------------------------------------------------------
# cutoff-family benchmarks
# ---------------------------------------------------------------------------


def test_pop_pool_plan_structure():
    inst = M.uniform_instance(n=51, gamma=6.0)
    plan = B.pop_pool_plan(inst, s_star=0.0)
    assert M.check_feasibility(inst, plan).feasible
    sizes = sorted(np.bincount(plan.district))
    assert sizes[-1] > 1 and all(s == 1 for s in sizes[:-1])


def test_traditional_pc_two_pools():
    inst = M.uniform_instance(n=51, gamma=6.0)
    plan = B.traditional_pc_plan(inst, s_star=0.0)
    assert M.check_feasibility(inst, plan).feasible
    assert plan.mass.size == 2


def test_cutoff_out_of_range():
    inst = M.uniform_instance(n=51, gamma=6.0)
    with pytest.raises(M.GerryOptError):
        B.pop_pool_plan(inst, 2.0)
    with pytest.raises(M.GerryOptError):
        B.traditional_pc_plan(inst, -2.0)


def test_optimize_cutoff_beats_fixed_cutoffs():
    inst = M.uniform_instance(n=101, gamma=6.0)
    best = B.optimize_cutoff(inst, B.traditional_pc_plan)
    for s in (-0.5, 0.0, 0.5):
        fixed = M.expected_seat_share(inst, B.traditional_pc_plan(inst, s))
        assert best.value >= fixed - 1e-12


def test_optimized_benchmarks_close_to_reference(solve_cached):
    # optimized single-cutoff plans at the reference seat shares
    targets = {2.0: (0.5392, 0.5357), 6.0: (0.7087, 0.7082), 15.0: (0.8488, 0.8485)}
    for gamma, (lp_target, pc_target) in targets.items():
        inst, sol = solve_cached(gamma)
        pc = B.optimize_cutoff(inst, B.traditional_pc_plan)
        assert sol.objective == pytest.approx(lp_target, abs=2e-3)
        assert pc.value == pytest.approx(pc_target, abs=2e-3)
        assert sol.objective >= pc.value - 1e-9


def _pop_pool_loop(inst, s_star):
    """Reference: one pack-opponents-and-pool plan, built type by type."""
    grid, f = inst.type_grid, inst.type_weights
    low = (grid < s_star) & (f > 0)
    high = (grid >= s_star) & (f > 0)
    if not np.any(high):
        return M.segregation_plan(inst)
    mass, n = f[high].sum(), int(low.sum())
    district = np.minimum(np.arange(n + int(high.sum())), n)
    return M.Plan(district, np.r_[grid[low], grid[high]], np.r_[np.ones(n), f[high] / mass], np.r_[f[low], mass])


def _pack_and_crack_loop(inst, s_star):
    """Reference: one traditional pack-and-crack plan, each pool summed alone."""
    grid, f = inst.type_grid, inst.type_weights
    keep = f > 0
    w = f[keep]
    district = (grid[keep] >= s_star).astype(np.intp)
    district -= district[0]  # a single pool when no type lies below the cutoff
    mass = np.array([w[district == d].sum() for d in range(district[-1] + 1)])
    return M.Plan(district=district, types=grid[keep], weights=w / mass[district], mass=mass)


LOOP_BUILDERS = {B.pop_pool_plan: _pop_pool_loop, B.traditional_pc_plan: _pack_and_crack_loop}


def _loop_scan(inst, builder):
    """Reference: one plan per grid cutoff, all thresholds in one call, the first best cutoff."""
    plans = [LOOP_BUILDERS[builder](inst, float(s)) for s in inst.type_grid]
    sizes = np.array([plan.mass.size for plan in plans])
    offsets = np.cumsum(sizes) - sizes
    r = M.district_threshold(
        inst,
        np.concatenate([plan.district + o for plan, o in zip(plans, offsets)]),
        np.concatenate([plan.types for plan in plans]),
        np.concatenate([plan.weights for plan in plans]),
    )
    seats = np.concatenate([plan.mass for plan in plans]) * inst.G(r)
    values = np.bincount(np.repeat(np.arange(len(plans)), sizes), weights=seats)
    k = int(np.argmax(values))
    return float(inst.type_grid[k]), values[k]


def _dirichlet_instance(rng, n, alpha, gamma, taste):
    w = rng.dirichlet(np.full(n, alpha))
    w[rng.random(n) < 0.2] = 0.0  # zero-weight types
    w[rng.integers(n)] += 1e-3  # at least one positive weight
    return M.ProblemInstance(type_grid=np.sort(rng.choice(np.linspace(-2, 2, 401), n, replace=False)),
                             type_weights=w / w.sum(), taste=taste, gamma=gamma)


def _table_instances():
    w = np.array([0.0, 0.0, 0.1, 0.3, 0.0, 0.2, 0.4, 0.0, 0.0])  # zero weights at both ends and inside
    rng = np.random.default_rng(3)
    return [
        M.uniform_instance(n=11, gamma=2.0),
        M.ProblemInstance(type_grid=np.linspace(-1, 1, 9), type_weights=w, gamma=6.0),
        *(_dirichlet_instance(rng, 25, 0.3, 2.0, M.NORMAL) for _ in range(5)),
    ]


@pytest.mark.parametrize("builder", [B.pop_pool_plan, B.traditional_pc_plan], ids=["pop_pool", "pack_and_crack"])
def test_cutoff_table_rows_match_loop_builders(builder):
    for inst in _table_instances():
        grid = inst.type_grid
        # every grid point, the top ones above every positive-weight type, and the midpoints
        cutoffs = np.r_[grid, 0.5 * (grid[1:] + grid[:-1])]
        district, types, weights, mass, row = B._cutoff_table(inst, cutoffs, B._FAMILIES[builder])
        m = int(np.count_nonzero(inst.type_weights))
        assert district.size == types.size == weights.size == cutoffs.size * m
        sizes = np.bincount(row, minlength=cutoffs.size)
        ends = np.cumsum(sizes)
        for k, s_star in enumerate(cutoffs):
            want = LOOP_BUILDERS[builder](inst, float(s_star))
            entries = slice(k * m, (k + 1) * m)
            assert np.array_equal(district[entries] - (ends[k] - sizes[k]), want.district)
            assert np.array_equal(types[entries], want.types)
            # a pool's mass is summed in entry order here, pairwise in the loop
            np.testing.assert_allclose(weights[entries], want.weights, rtol=4 * M.ROUNDING_TOL, atol=0)
            np.testing.assert_allclose(mass[ends[k] - sizes[k] : ends[k]], want.mass, rtol=4 * M.ROUNDING_TOL, atol=0)
            # the one-cutoff builder is the table's one row
            plan = builder(inst, float(s_star))
            assert np.array_equal(plan.district, district[entries] - (ends[k] - sizes[k]))
            assert np.array_equal(plan.weights, weights[entries])
            assert np.array_equal(plan.mass, mass[ends[k] - sizes[k] : ends[k]])


def test_optimize_cutoff_matches_loop_scan():
    instances = [
        M.uniform_instance(n=n, gamma=gamma, taste=taste)
        for taste in (M.NORMAL, M.LOGISTIC)
        for n in (3, 11, 41, 101, 201)
        for gamma in (0.5, 1.0, 1.4, 2.0, 3.0, 6.0, 15.0, 30.0)
    ]
    rng = np.random.default_rng(8)
    instances += [
        _dirichlet_instance(rng, int(rng.integers(3, 60)), 0.05 if i % 2 else 1.0, float(rng.uniform(0.5, 20)),
                            (M.NORMAL, M.LOGISTIC)[i % 2])
        for i in range(20)
    ]
    for inst in instances:
        for builder in (B.pop_pool_plan, B.traditional_pc_plan):
            got = B.optimize_cutoff(inst, builder)
            cutoff, value = _loop_scan(inst, builder)
            assert got.cutoff == cutoff
            assert got.value == pytest.approx(value, abs=1e-13)


def test_benchmark_result_json_round_trip():
    inst = M.uniform_instance(n=51, gamma=6.0)
    res = B.optimize_cutoff(inst, B.pop_pool_plan)
    back = M.Plan.from_json(res.plan.to_json())
    assert M.check_feasibility(inst, back).feasible
    assert M.expected_seat_share(inst, back) == pytest.approx(res.value)
