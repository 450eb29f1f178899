import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gerryopt import model as M


def test_normal_taste_basics():
    assert M.NORMAL.cdf(0.0) == pytest.approx(0.5)
    assert M.NORMAL.pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))


def test_logistic_taste_unit_variance():
    # scale chosen so the distribution has unit variance
    var = quad(lambda x: x * x * M.LOGISTIC.pdf(x), -60, 60)[0]
    assert var == pytest.approx(1.0, abs=1e-9)
    assert M.LOGISTIC.cdf(0.0) == pytest.approx(0.5)


def test_taste_log_density_strictly_concave():
    # swingy moderates: (ln q)'' < 0, here as a finite second difference
    x = np.linspace(-8, 8, 200)
    for taste in (M.NORMAL, M.LOGISTIC):
        assert np.all(np.diff(np.log(taste.pdf(x)), 2) < 0)


def test_get_taste():
    assert M.get_taste("normal") is M.NORMAL
    assert M.get_taste("logistic") is M.LOGISTIC
    with pytest.raises(M.GerryOptError):
        M.get_taste("cauchy")


def test_uniform_instance_grid():
    inst = M.uniform_instance()
    assert inst.type_grid.size == 201
    assert inst.type_weights.sum() == 1.0  # exact unit mass
    assert 0.0 in inst.type_grid
    assert inst.type_grid[0] == -1.0 and inst.type_grid[-1] == 1.0


def test_shock_scaling():
    inst = M.uniform_instance(gamma=4.0)
    # G(r) = Q(gamma r), g its density
    assert float(inst.G(0.25)) == pytest.approx(float(M.NORMAL.cdf(1.0)))
    eps = 1e-6
    num = (float(inst.G(0.1 + eps)) - float(inst.G(0.1 - eps))) / (2 * eps)
    assert float(inst.g(0.1)) == pytest.approx(num, rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    s=st.floats(-3, 3),
    s2=st.floats(-3, 3),
    r=st.floats(-3, 3),
    r2=st.floats(-3, 3),
)
def test_vote_share_monotone(s, s2, r, r2):
    inst = M.uniform_instance(gamma=1.0)
    lo_s, hi_s = min(s, s2), max(s, s2)
    lo_r, hi_r = min(r, r2), max(r, r2)
    assert M.vote_share(inst, lo_s, r) <= M.vote_share(inst, hi_s, r)
    assert M.vote_share(inst, s, hi_r) <= M.vote_share(inst, s, lo_r)


@settings(max_examples=100, deadline=None)
@given(s=st.floats(-5, 5))
def test_point_district_threshold_identity(s):
    inst = M.uniform_instance(gamma=2.0)
    assert M.district_threshold(inst, [0], [s], [1.0])[0] == s


def test_pair_threshold_symmetry():
    inst = M.uniform_instance(gamma=1.0)
    r = M.district_threshold(inst, [0, 0], [-1.0, 1.0], [0.5, 0.5])
    assert r[0] == pytest.approx(0.0, abs=1e-12)


def _bisection_oracle(taste, types, weights):
    """Independent plain scalar bisection for one district."""
    lo, hi = -10.0, 10.0
    f = lambda x: sum(w * float(taste.cdf(t - x)) for t, w in zip(types, weights)) - 0.5
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2, f


def _counting(taste):
    """``taste`` with a cdf that counts its calls (one per vectorised pass)."""
    calls = []

    def cdf(x):
        calls.append(1)
        return taste.cdf(x)

    return replace(taste, cdf=cdf), calls


def _random_districts(rng):
    """Seeded non-uniform districts: Dirichlet(0.05) weights on random types."""
    districts = []
    for size in rng.integers(2, 30, 24):
        types = np.sort(rng.choice(np.linspace(-3.0, 3.0, 121), size, replace=False))
        weights = rng.dirichlet(np.full(size, 0.05))
        weights = np.maximum(weights, 1e-300)  # a zero draw would be no entry
        districts.append((types, weights / weights.sum()))
    return districts


def _entries(districts):
    """The (district code, type, weight) entry columns of ``(types, weights)`` districts."""
    code = np.repeat(np.arange(len(districts)), [t.size for t, _ in districts])
    return code, np.concatenate([t for t, _ in districts]), np.concatenate([w for _, w in districts])


def test_threshold_against_bisection_oracle():
    pool = np.linspace(-0.3, 0.9, 51)
    pool_w = np.linspace(1.0, 2.0, 51)
    districts = [
        (np.array([-0.4, 0.9]), np.array([0.3, 0.7])),
        (np.array([0.25]), np.array([1.0])),  # one type
        (np.array([-1.0, 0.6]), np.array([0.8, 0.2])),
        (pool, pool_w / pool_w.sum()),  # a 51-type pool
        # far apart and skewed: from the mean 2.4 the Newton step (about 470)
        # leaves the bracket [-6, 6], so the safeguard bisects
        (np.array([-6.0, 6.0]), np.array([0.3, 0.7])),
    ]
    districts += _random_districts(np.random.default_rng(11))
    code, types, weights = _entries(districts)
    for taste in (M.NORMAL, M.LOGISTIC):
        counted, calls = _counting(taste)
        inst = M.uniform_instance(gamma=1.0, taste=counted)
        r = M.district_threshold(inst, code, types, weights)
        assert r.shape == (len(districts),)
        assert r[1] == 0.25
        for (t, w), got in zip(districts, r):
            want, f = _bisection_oracle(taste, t, w)
            assert got == pytest.approx(want, abs=1e-10)
            assert f(got) == pytest.approx(0.0, abs=1e-10)
        # Newton steps plus the residual check; a bisection to the stopping
        # width takes over 50 passes
        assert len(calls) <= 12


def test_threshold_of_a_symmetric_pool_takes_one_newton_step():
    # a pool symmetric about its weighted mean has the mean as its root.  At
    # the mean of the first pool the excess is 0; at that of the second it
    # is one rounding off 0, the mean becomes a bracket end, and the step
    # rounds to 0, landing on that end.  Either way the step is taken and
    # stops the iteration
    for types, mean in ((np.linspace(-0.4, 0.8, 13), 0.2), (np.linspace(3.5, 4.7, 5), 4.1)):
        weights = np.full(types.size, 1.0 / types.size)
        for taste in (M.NORMAL, M.LOGISTIC):
            counted, calls = _counting(taste)
            r = M.district_threshold(M.uniform_instance(taste=counted), np.zeros(types.size, int), types, weights)
            assert r[0] == pytest.approx(mean, rel=M.ROUNDING_TOL)
            assert len(calls) == 2  # one Newton pass, one residual check


def test_threshold_root_depends_on_its_own_district_only():
    rng = np.random.default_rng(5)
    districts = _random_districts(rng)
    code, types, weights = _entries(districts)
    inst = M.uniform_instance(taste=M.LOGISTIC)
    batched = M.district_threshold(inst, code, types, weights)
    alone = [M.district_threshold(inst, np.zeros(t.size, int), t, w)[0] for t, w in districts]
    assert np.array_equal(batched, alone)


def test_threshold_step_cap_raises(monkeypatch):
    monkeypatch.setattr(M, "ROOT_STEPS", 1)
    inst = M.uniform_instance()
    with pytest.raises(M.ConvergenceError, match="more than 1 steps"):
        M.district_threshold(inst, [0, 0], [-6.0, 6.0], [0.3, 0.7])


def test_threshold_translation_invariance():
    inst = M.uniform_instance(gamma=1.0)
    types, weights = np.array([-0.5, 0.8]), np.array([0.4, 0.6])
    assert M.district_threshold(inst, [0, 0], types + 0.37, weights)[0] == pytest.approx(
        M.district_threshold(inst, [0, 0], types, weights)[0] + 0.37, abs=1e-10
    )


def test_canonical_plans_feasible():
    inst = M.uniform_instance(n=51, gamma=2.0)
    for plan in (M.uniform_plan(inst), M.segregation_plan(inst)):
        assert M.check_feasibility(inst, plan).feasible


def test_plan_json_round_trip_preserves_feasibility():
    inst = M.uniform_instance(n=51, gamma=2.0)
    plan = M.segregation_plan(inst)
    back = M.Plan.from_json(plan.to_json())
    assert M.check_feasibility(inst, back).feasible
    assert M.expected_seat_share(inst, back) == pytest.approx(
        M.expected_seat_share(inst, plan), abs=1e-12
    )


def test_infeasible_plan_rejected():
    inst = M.uniform_instance(n=51, gamma=2.0)
    plan = M.Plan(district=[0], types=[0.0], weights=[1.0], mass=[1.0])  # all mass on one type
    assert not M.check_feasibility(inst, plan).feasible
    with pytest.raises(M.InfeasiblePlanError):
        M.expected_seat_share(inst, plan)


def test_seat_share_closed_forms():
    inst = M.uniform_instance(n=51, gamma=3.0)
    # symmetric population pooled into one district: threshold 0, G(0) = 1/2
    assert M.expected_seat_share(inst, M.uniform_plan(inst)) == pytest.approx(0.5, abs=1e-12)
    seg = M.expected_seat_share(inst, M.segregation_plan(inst))
    assert seg == pytest.approx(float(inst.type_weights @ inst.G(inst.type_grid)), abs=1e-12)


def test_plan_checks_name_the_broken_sum():
    with pytest.raises(M.GerryOptError, match="nonempty and equal length"):
        M.Plan(district=[0, 0], types=[0.0, 1.0], weights=[1.0], mass=[1.0])
    with pytest.raises(M.GerryOptError, match="grouped by district codes"):
        M.Plan(district=[0, 2], types=[0.0, 1.0], weights=[1.0, 1.0], mass=[0.5, 0.5])
    with pytest.raises(M.GerryOptError, match="strictly positive"):
        M.Plan(district=[0, 0], types=[0.0, 1.0], weights=[1.0, 0.0], mass=[1.0])
    with pytest.raises(M.GerryOptError, match="district weights sum to 0.9"):
        M.Plan(district=[0, 0], types=[0.0, 1.0], weights=[0.5, 0.4], mass=[1.0])
    with pytest.raises(M.GerryOptError, match="plan masses sum to 0.8"):
        M.Plan(district=[0, 1], types=[0.0, 1.0], weights=[1.0, 1.0], mass=[0.5, 0.3])
    # two plans in one table: the second one's masses are checked on their own
    with pytest.raises(M.GerryOptError, match="plan masses sum to 1.25"):
        M.check_plan_entries(np.arange(4), np.ones(4), np.array([0.5, 0.5, 0.75, 0.5]), np.array([0, 0, 1, 1]))


def test_off_grid_district_rejected():
    inst = M.uniform_instance(n=51, gamma=2.0)
    plan = M.Plan(district=[0], types=[0.123456], weights=[1.0], mass=[1.0])
    with pytest.raises(M.GerryOptError):
        plan.type_marginal(inst)


def _single_dipped_loop(inst):
    """One r at a time, the density q(s - r) must not rise again in s once it
    has started falling."""
    s = inst.type_grid
    for r in s:
        d = np.diff(np.asarray(inst.taste.pdf(s - r), dtype=float))
        falling = d < -1e-15
        if falling.any() and np.any(d[int(np.argmax(falling)) :] > 1e-15):
            return False
    return True


def _bimodal_pdf(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * (M._normal_pdf(x - 1.5) + M._normal_pdf(x + 1.5))


def test_assumption1_holds_for_builtin_tastes():
    """The swing -q(s - r) is single-dipped in s for the built-in tastes, and
    the loop check does reject a density that dips between two modes."""
    bimodal = replace(M.NORMAL, name="bimodal", pdf=_bimodal_pdf)
    for n in (3, 11, 41, 201):
        for taste in (M.NORMAL, M.LOGISTIC, bimodal):
            inst = M.uniform_instance(n=n, gamma=2.0, taste=taste)
            assert _single_dipped_loop(inst) == (taste is not bimodal)


def test_degenerate_instance_errors():
    with pytest.raises(M.GerryOptError):
        M.ProblemInstance(
            type_grid=np.array([0.0, 1.0]),
            type_weights=np.array([0.5, 0.6]),
            taste=M.NORMAL,
            gamma=1.0,
        )
    with pytest.raises(M.GerryOptError):
        M.uniform_instance(gamma=-1.0)


@pytest.mark.parametrize(
    "grid, weights, message",
    [
        ([], [], "nonempty 1-D"),
        ([[0.0, 1.0]], [[0.5, 0.5]], "nonempty 1-D"),
        ([0.0, 1.0], [1.0], "equal length"),
        ([0.0, 1.0, 1.0], [0.2, 0.3, 0.5], "strictly increasing"),
        ([1.0, 0.0], [0.5, 0.5], "strictly increasing"),
        ([0.0, 1.0], [1.5, -0.5], "nonnegative"),
    ],
)
def test_malformed_instance_rejected(grid, weights, message):
    with pytest.raises(M.GerryOptError, match=message):
        M.ProblemInstance(type_grid=np.array(grid), type_weights=np.array(weights))


@pytest.mark.parametrize("gamma", [0.0, float("inf"), float("nan")])
def test_gamma_must_be_finite_and_positive(gamma):
    with pytest.raises(M.GerryOptError, match="finite and positive"):
        M.uniform_instance(n=11, gamma=gamma)
