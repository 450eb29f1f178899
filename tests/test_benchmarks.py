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
        keep, left = pool > 1e-15, inst.type_weights - pool
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


def test_benchmark_result_json_round_trip():
    inst = M.uniform_instance(n=51, gamma=6.0)
    res = B.optimize_cutoff(inst, B.pop_pool_plan)
    back = M.Plan.from_json(res.plan.to_json())
    assert M.check_feasibility(inst, back).feasible
    assert M.expected_seat_share(inst, back) == pytest.approx(res.value)
