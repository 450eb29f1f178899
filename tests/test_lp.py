import itertools

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

from gerryopt import lp as L
from gerryopt import model as M
from gerryopt import verify as V


def small_instance():
    grid = np.array([-0.8, 0.1, 0.7])
    weights = np.array([0.5, 0.3, 0.2])
    return M.ProblemInstance(type_grid=grid, type_weights=weights, taste=M.NORMAL, gamma=2.0)


def enumerate_vertices_objective(inst):
    """Independent oracle: enumerate basic feasible solutions of the LP.

    With n types the program has n*n variables and 2n equality rows (one
    redundant), so every vertex is supported on at most 2n variables. For
    n = 3 that is C(9, 6) = 84 candidate supports, each checked by
    nonnegative least squares.
    """
    prog = L.build_lp(inst)
    # prog.c is the minimization cost vector; negate to score seat share
    A, b, c = np.asarray(prog.a_eq.todense()), prog.b_eq, -prog.c
    nvar = A.shape[1]
    best = -np.inf
    for cols in itertools.combinations(range(nvar), A.shape[0]):
        sub = A[:, cols]
        x_sub, resid = nnls(sub, b)
        if resid > 1e-9:
            continue
        x = np.zeros(nvar)
        x[list(cols)] = x_sub
        assert np.max(np.abs(A @ x - b)) < 1e-9
        best = max(best, float(c @ x))
    return best


def test_small_instance_matches_vertex_enumeration():
    inst = small_instance()
    sol = L.solve_lp(L.build_lp(inst))
    oracle = enumerate_vertices_objective(inst)
    # sanity: optimum must weakly beat both canonical plans
    pooled = M.expected_seat_share(inst, M.uniform_plan(inst))
    seg = M.expected_seat_share(inst, M.segregation_plan(inst))
    assert oracle >= max(pooled, seg) - 1e-12
    assert sol.objective == pytest.approx(oracle, abs=1e-9)


def test_solution_residuals_and_gap():
    inst = M.uniform_instance(n=101, gamma=2.0)
    sol = L.solve_lp(L.build_lp(inst))
    a = sol.assignment
    assert np.max(np.abs(a.row_residuals())) < L.PRIMAL_TOL
    assert np.max(np.abs(a.threshold_residuals())) < L.PRIMAL_TOL
    assert abs(sol.duality_gap(inst.type_weights)) < 1e-8
    a.validate()  # raises on residual violation


def test_objective_between_benchmarks():
    inst = M.uniform_instance(n=101, gamma=2.0)
    sol = L.solve_lp(L.build_lp(inst))
    pooled = M.expected_seat_share(inst, M.uniform_plan(inst))
    seg = M.expected_seat_share(inst, M.segregation_plan(inst))
    assert sol.objective >= max(pooled, seg) - 1e-9
    assert sol.objective <= 1.0 + 1e-12


def test_extract_plan_round_trip():
    inst = M.uniform_instance(n=101, gamma=6.0)
    sol = L.solve_lp(L.build_lp(inst))
    plan = L.extract_plan(sol.assignment)
    assert M.check_feasibility(inst, plan).feasible
    assert M.expected_seat_share(inst, plan) == pytest.approx(sol.objective, abs=1e-7)


def test_custom_threshold_grid():
    inst = small_instance()
    thresholds = np.linspace(-1.2, 1.2, 25)
    sol = L.solve_lp(L.build_lp(inst, threshold_grid=thresholds))
    # a finer threshold menu can only help
    coarse = L.solve_lp(L.build_lp(inst, threshold_grid=inst.type_grid))
    assert sol.objective >= coarse.objective - 1e-9


def test_monotone_in_gamma_precision():
    # more precise aggregate information (larger gamma) raises the optimum
    objs = []
    for gamma in (0.5, 2.0, 6.0):
        inst = M.uniform_instance(n=81, gamma=gamma)
        objs.append(L.solve_lp(L.build_lp(inst)).objective)
    assert objs[0] < objs[1] < objs[2]


def test_sweep_serial_matches_parallel():
    template = M.uniform_instance(n=41, gamma=1.0)
    gammas = [0.5, 2.0, 6.0]
    serial = L.sweep_gamma(template, gammas, jobs=1)
    parallel = L.sweep_gamma(template, gammas, jobs=2)
    assert [r.gamma for r in serial] == gammas
    for a, b in zip(serial, parallel):
        assert a.gamma == b.gamma
        assert a.objective == pytest.approx(b.objective, abs=1e-12)
        assert a.regime == b.regime


def test_dual_certificate_shapes():
    inst = M.uniform_instance(n=81, gamma=2.0)
    prog = L.build_lp(inst)
    sol = L.solve_lp(prog)
    cert = sol.certificate
    assert cert.lambda_.shape == sol.assignment.threshold_grid.shape
    assert cert.phi.shape == inst.type_grid.shape


@pytest.mark.parametrize("gamma", [0.2, 0.5, 1.0, 1.2, 1.4, 1.6, 1.7, 3.0, 6.0, 10.0, 15.0, 30.0])
def test_face_vertex_independent_of_stage1_method(gamma):
    # Dual simplex and interior point return different optimal vertices (and
    # duals); after the max-packed face stage both give the same verdicts.
    inst = M.uniform_instance(n=101, gamma=gamma)
    prog = L.build_lp(inst)
    verdicts = []
    for method in ("highs-ds", "highs-ipm"):
        res = linprog(
            prog.c, A_eq=prog.a_eq, b_eq=prog.b_eq, bounds=(0, None), method=method, options=L.HIGHS_OPTIONS
        )
        assert res.status == 0
        x, _stats = L._max_packed_on_face(prog, res)
        assert abs(prog.c @ x - res.fun) <= 1e-12
        phi = -res.eqlin.marginals[: prog.n_types]
        assert abs(-(prog.c @ x) - inst.type_weights @ phi) <= L.DUAL_TOL
        asg = L._assignment(prog, x)
        decomp = V.decompose_pack_and_pair(asg)
        verdicts.append((V.classify_regime(decomp), decomp.bifurcation))
    assert verdicts[0] == verdicts[1]


def test_solver_stats():
    sol = L.solve_lp(L.build_lp(M.uniform_instance(n=41, gamma=2.0)))
    assert sol.stats["stage1_method"] == "highs-ipm"
    assert sol.stats["stage1_iterations"] > 0
    assert 41 <= sol.stats["face_cells"] < 41 * 41
    assert sol.stats["face_tol"] == L.FACE_TOL


def test_stage2_failure_names_the_stage(monkeypatch):
    calls = []

    def fail_second_call(*args, **kwargs):
        res = linprog(*args, **kwargs)
        calls.append(res)
        if len(calls) == 2:
            res.status, res.message = 4, "numerical difficulties"
        return res

    monkeypatch.setattr(L, "linprog", fail_second_call)
    with pytest.raises(L.LPSolveError, match="stage 2"):
        L.solve_lp(L.build_lp(small_instance()))
    assert len(calls) == 2
