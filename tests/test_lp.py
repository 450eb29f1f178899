import ast
import itertools
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog, nnls

from gerryopt import estimation as E
from gerryopt import lp as L
from gerryopt import model as M
from gerryopt import verify as V

# the gammas of the seat-share figure (criterion 2 pins their labels)
FIG_GAMMAS = [0.2, 0.5, 1.0, 1.2, 1.4, 1.6, 1.7, 3.0, 6.0]


def small_instance():
    grid = np.array([-0.8, 0.1, 0.7])
    weights = np.array([0.5, 0.3, 0.2])
    return M.ProblemInstance(type_grid=grid, type_weights=weights, taste=M.NORMAL, gamma=2.0)


def standard_form(prog):
    """The grid LP as min c.x subject to A x = b, x >= 0, with A the sparse
    equality columns of every cell, in the order ``_columns`` builds them."""
    n = prog.win.size
    b = np.concatenate([prog.mass, np.zeros(n)])
    return -np.tile(prog.win, n), L._columns(prog, np.arange(n * n)), b


HIGHS_FACE_TOL = 1e-9  # reduced cost of a face cell of the HiGHS oracle (forced at n=61: plateau 1e-13..1e-6)


def stage1_highs(prog, method):
    """Stage 1 by HiGHS, the oracle of the structured interior point (crossover
    on: the result is a basic solution).

    Returns the dual y, the face (the cells of zero reduced cost under y,
    phi(s) - G(r) - lambda(r)(v(s,r) - 1/2) <= HIGHS_FACE_TOL) and the
    complementarity x . (c - A^T y).
    """
    n_s = prog.a.shape[0]
    c = np.broadcast_to(-prog.win, prog.a.shape)
    res = L._highs(prog, np.arange(c.size), c.ravel(), method, f"stage 1 ({method})")
    y = np.asarray(res.eqlin.marginals, dtype=float)
    # c - A^T y on the grid, summed in the sparse product's order
    reduced = (c - (y[:n_s, None] + prog.a * y[n_s:])).ravel()
    return y, np.flatnonzero(reduced <= HIGHS_FACE_TOL), float(res.x @ reduced)


def enumerate_vertices_objective(inst):
    """Independent oracle: enumerate basic feasible solutions of the LP.

    With n types the program has n*n variables and 2n equality rows (one
    redundant), so every vertex is supported on at most 2n variables. For
    n = 3 that is C(9, 6) = 84 candidate supports, each checked by
    nonnegative least squares.
    """
    c, A, b = standard_form(L.build_lp(inst))
    A = A.toarray()
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
        best = max(best, -float(c @ x))  # c is the minimization cost
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
    prog = L.build_lp(inst)
    sol = L.solve_lp(prog)
    # the residual check passes the solved vertex unchanged
    assert np.array_equal(L._pi(prog, sol.pi.ravel()), sol.pi)
    assert abs(sol.duality_gap()) < 1e-8
    # packed cells (v = 1/2) move the type rows only
    moved = sol.pi + 10 * M.FEAS_TOL * np.eye(sol.pi.shape[0])
    with pytest.raises(L.LPSolveError, match="assignment residuals row=1.00e-07 col="):
        L._pi(prog, moved.ravel())


def test_objective_between_benchmarks():
    inst = M.uniform_instance(n=101, gamma=2.0)
    sol = L.solve_lp(L.build_lp(inst))
    pooled = M.expected_seat_share(inst, M.uniform_plan(inst))
    seg = M.expected_seat_share(inst, M.segregation_plan(inst))
    assert sol.objective >= max(pooled, seg) - 1e-9
    assert sol.objective <= 1.0 + 1e-12


@pytest.mark.parametrize("taste", [M.NORMAL, M.LOGISTIC], ids=lambda t: t.name)
@pytest.mark.parametrize("gamma", FIG_GAMMAS)
def test_extract_plan_round_trip(gamma, taste):
    # the plan, and plan.json read back, re-valued from scratch by
    # expected_seat_share reproduce the LP objective (worst 3.3e-16)
    inst = M.uniform_instance(n=101, gamma=gamma, taste=taste)
    sol = L.solve_lp(L.build_lp(inst))
    plan = L.extract_plan(sol.lp, sol.pi)
    assert M.check_feasibility(inst, plan).feasible
    for p in (plan, M.Plan.from_json(plan.to_json())):
        assert abs(M.expected_seat_share(inst, p) - sol.objective) <= 1e-12


def test_monotone_in_gamma_precision():
    # more precise aggregate information (larger gamma) raises the optimum
    objs = []
    for gamma in (0.5, 2.0, 6.0):
        inst = M.uniform_instance(n=81, gamma=gamma)
        objs.append(L.solve_lp(L.build_lp(inst)).objective)
    assert objs[0] < objs[1] < objs[2]


def test_sweep_checks_arguments_before_any_solve(monkeypatch):
    def no_solve(prog):
        raise AssertionError("solved before every argument was checked")

    monkeypatch.setattr(L, "solve_lp", no_solve)
    template = M.uniform_instance(n=11)
    for gammas in ([1.0, float("nan")], [1.0, -2.0]):
        with pytest.raises(M.GerryOptError):
            L.sweep_gamma(template, gammas)


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _modules(node):
    """Every module an import statement may bind, relative ones with their dots."""
    if isinstance(node, ast.Import):
        return {a.name for a in node.names}
    base = "." * node.level + (node.module or "")
    sep = "." if node.module else ""
    return {base} | {base + sep + a.name for a in node.names}


def test_module_graph_is_acyclic():
    # model <- verify <- lp <- cli: verify names lp types only for type checkers
    verify = ast.parse(Path(V.__file__).read_text())
    type_only = [
        node
        for stmt in verify.body
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "TYPE_CHECKING"
        for node in _imports(stmt)
    ]
    runtime = set().union(*(_modules(node) for node in _imports(verify) if node not in type_only))
    assert not runtime & {".lp", "gerryopt.lp"}, runtime
    # lp imports everything at the top of the module
    lp = ast.parse(Path(L.__file__).read_text())
    local = [
        (fn.name, node.lineno)
        for fn in ast.walk(lp)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _imports(fn)
    ]
    assert local == []


def _names(node):
    """Every identifier a node reads, imports or looks up as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_public_definition_is_reached():
    # a public top-level function or class must be named by another statement
    # of the package or by an acceptance criterion; otherwise nothing reaches it
    package = Path(M.__file__).parent
    statements = [stmt for path in sorted(package.glob("*.py")) for stmt in ast.parse(path.read_text()).body]
    named = [_names(stmt) for stmt in statements]
    acceptance = _names(ast.parse((Path(__file__).parent / "test_acceptance.py").read_text()))
    unreached = [
        stmt.name
        for i, stmt in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in acceptance
        and not any(stmt.name in names for j, names in enumerate(named) if j != i)
    ]
    assert unreached == []


def test_tolerances_are_named_module_constants():
    # a float literal 0 < |x| < 1e-6 is a tolerance: it may appear only in the
    # value of a module-level UPPER_CASE assignment, where an audit finds it
    package = Path(M.__file__).parent
    inline = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {
            id(node)
            for stmt in tree.body
            if isinstance(stmt, ast.Assign) and all(isinstance(t, ast.Name) and t.id.isupper() for t in stmt.targets)
            for node in ast.walk(stmt.value)
        }
        inline += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-6
            and id(node) not in named
        ]
    assert inline == []


def _fresh_run(code, cwd=None):
    """Run ``code`` in a fresh interpreter with this package on its path; return
    the package, numpy and scipy modules it has loaded at the end."""
    src = str(Path(M.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); {code}; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('gerryopt', 'numpy', 'scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def _cli_run(argv, cwd):
    """The modules a fresh interpreter loads to run ``gerryopt argv`` (exit 0)."""
    return _fresh_run(f"import gerryopt.cli as cli; assert cli.main({argv!r}) == 0", cwd)


SOLVER = {"gerryopt.lp", "scipy.optimize", "scipy.sparse"}
LP_FREE_COMMANDS = {
    "simulate": ["simulate", "--precincts", "20", "--seed", "1"],
    "estimate": ["estimate", "--input", "returns.csv"],
    "verify-pap": ["verify", "--pap", "--gamma", "2"],
    "benchmark": ["benchmark", "--gamma", "2", "--grid", "11"],
}


@pytest.mark.parametrize("module", ["model", "estimation", "benchmarks", *LP_FREE_COMMANDS])
def test_lp_free_modules_do_not_load_the_solver(module, tmp_path):
    # in a fresh interpreter: only lp needs scipy.optimize, and the package root
    # imports nothing; cli imports lp only in the commands that solve
    if module in LP_FREE_COMMANDS:
        E.simulate_returns(str(tmp_path / "returns.csv"), gamma=10.0, T=3, n_precincts=20, seed=1)
        loaded = _cli_run(LP_FREE_COMMANDS[module], tmp_path)
    else:
        loaded = _fresh_run(f"import gerryopt.{module}")
    assert not loaded & SOLVER


@pytest.mark.parametrize(
    "code",
    [
        "cli.build_parser()",
        "assert cli.main(['solve', '--schema']) == 0",
        "assert cli.main(['--help']) == 0",
        "assert cli.main(['solve', '--gamma', 'two']) == 2",
    ],
    ids=["parser", "schema", "help", "argparse-error"],
)
def test_cli_start_loads_only_the_cli(code):
    # nothing of numpy, scipy or the other package modules before a command runs
    assert _fresh_run(f"import gerryopt.cli as cli; {code}") == {"gerryopt", "gerryopt.cli"}


def test_benchmark_with_lp_loads_the_solver(tmp_path):
    loaded = _cli_run(["benchmark", "--gamma", "2", "--grid", "11", "--with-lp"], tmp_path)
    assert {"gerryopt.lp", "scipy.optimize"} <= loaded


def test_dual_certificate_shapes():
    inst = M.uniform_instance(n=81, gamma=2.0)
    prog = L.build_lp(inst)
    sol = L.solve_lp(prog)
    assert sol.lam.shape == sol.phi.shape == inst.type_grid.shape


def price(prog, lam):
    """phi(s) = max_r G(r) + lam(r) a(s, r): the least voter values dual feasible given lam."""
    return (prog.win + lam * prog.a).max(axis=1)


@pytest.mark.parametrize("taste", [M.NORMAL, M.LOGISTIC], ids=lambda t: t.name)
@pytest.mark.parametrize("gamma", FIG_GAMMAS)
def test_phi_is_the_price_of_lam_and_bounds_every_plan(gamma, taste):
    prog = L.build_lp(M.uniform_instance(n=101, gamma=gamma, taste=taste))
    sol = L.solve_lp(prog)
    assert np.array_equal(sol.phi, price(prog, sol.lam))
    # weak duality: sum f phi bounds the LP's value for any lam, not only the solver's
    f = prog.inst.type_weights
    for seed in range(20):
        lam = sol.lam + np.random.default_rng(seed).normal(0.0, 0.1, sol.lam.size)
        assert f @ price(prog, lam) >= sol.objective - 1e-15, seed


@pytest.mark.parametrize("gamma", [0.5, 2.0, 6.0])
def test_suboptimal_plan_fails_the_certified_gap(gamma):
    # segregation, all mass on the packed cells r = s, is feasible but not
    # optimal; phi from the same lam bounds the optimum, not this plan's value
    prog = L.build_lp(M.uniform_instance(n=101, gamma=gamma))
    sol = L.solve_lp(prog)
    pi = L._pi(prog, np.diag(prog.inst.type_weights).ravel())
    seg = replace(sol, pi=pi, objective=float((pi * prog.win).sum()))
    assert seg.duality_gap() > V.DUAL_TOL


FACE_GAMMAS = [0.2, 0.5, 1.0, 1.2, 1.4, 1.6, 1.7, 2.0, 3.0, 6.0, 10.0, 15.0, 30.0]
FACE_CASES = [pytest.param(101, g, id=str(g)) for g in FACE_GAMMAS] + [
    pytest.param(201, g, id=f"n201-{g}") for g in (0.2, 1.0, 3.0)
]


def face_vertex(prog, stage1):
    """The stage-2 vertex on the face of a stage-1 result, with its regime and r_b."""
    y, face, _stats = stage1
    x, _stats = L._max_packed_on_face(prog, face)
    # strong duality: the vertex value equals the stage-1 dual value
    c, _a, b = standard_form(prog)
    assert abs(c @ x - b @ y) <= 1e-12
    pi = L._pi(prog, x)
    decomp = V.decompose_pack_and_pair(prog, pi)
    return V.classify_regime(decomp), decomp.bifurcation, pi


@pytest.mark.parametrize("n,gamma", FACE_CASES)
def test_face_vertex_independent_of_stage1_method(n, gamma):
    # The structured interior point, HiGHS interior point and HiGHS dual
    # simplex return different optimal duals and faces; the max-packed vertex
    # on each face is the same.  HiGHS is the oracle.
    prog = L.build_lp(M.uniform_instance(n=n, gamma=gamma))
    label, rb, pi = face_vertex(prog, L._stage1_ipm(prog))
    for method in ("highs-ipm", "highs-ds"):
        label_h, rb_h, pi_h = face_vertex(prog, stage1_highs(prog, method))
        assert (label, rb) == (label_h, rb_h), method
        assert np.max(np.abs(pi - pi_h)) <= 1e-12, method


# the figure's nine gamma, then two where the verdict reads pack-and-pair
TIE_GAMMAS = FIG_GAMMAS + [10.0, 30.0]


@pytest.mark.parametrize("gamma", TIE_GAMMAS)
def test_verdict_survives_random_tie_breaks(gamma):
    # Many optimal vertices can share the maximum packed mass.  A random cost
    # of 1e-7 per face cell picks one of them; the label and r_b must be the
    # same on every pick.
    prog = L.build_lp(M.uniform_instance(n=101, gamma=gamma))
    stage1 = L._stage1_ipm(prog)
    label, rb, _pi = face_vertex(prog, stage1)
    face = stage1[1]
    packed = np.eye(101).ravel()[face]
    for seed in range(12):
        noise = 1e-7 * np.random.default_rng(seed).standard_normal(face.size)
        res = L._highs(prog, face, noise - packed, "highs-ds", "tie-break")
        x = np.zeros(prog.a.size)
        x[face] = res.x
        decomp = V.decompose_pack_and_pair(prog, L._pi(prog, x))
        assert (V.classify_regime(decomp), decomp.bifurcation) == (label, rb), seed


def _coo_a_eq(prog):
    """The whole equality matrix in one COO assembly: the reference for ``_columns``."""
    n_s, n_r = prog.a.shape
    var = np.arange(n_s * n_r)
    rows = np.concatenate([var // n_r, n_s + var % n_r])
    data = np.concatenate([np.ones(n_s * n_r), prog.a.ravel()])
    return sparse.coo_matrix((data, (rows, np.concatenate([var, var]))), shape=(n_s + n_r, n_s * n_r)).tocsr()


def _same_csr(got, want):
    assert got.shape == want.shape
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


@pytest.mark.parametrize("taste", [M.NORMAL, M.LOGISTIC], ids=lambda t: t.name)
@pytest.mark.parametrize("n", [3, 41, 101])
def test_equality_columns_match_coo_assembly(n, taste):
    prog = L.build_lp(M.uniform_instance(n=n, gamma=2.0, taste=taste))
    a_eq = standard_form(prog)[1]
    _same_csr(a_eq, _coo_a_eq(prog))
    # stage 2 hands HiGHS the face's columns, as sliced from the whole matrix
    face = L._stage1_ipm(prog)[1]
    _same_csr(L._columns(prog, face), a_eq[:, face])


def test_no_solve_builds_more_than_its_face(monkeypatch):
    # ordinary and extreme gamma alike
    columns, sizes = L._columns, []

    def spy(lp, cells):
        sizes.append(cells.size)
        return columns(lp, cells)

    monkeypatch.setattr(L, "_columns", spy)
    for n, gamma in ((41, 2.0), (41, 30.0), (11, 1e-12), (3, 1e-300)):
        sizes.clear()
        sol = L.solve_lp(L.build_lp(M.uniform_instance(n=n, gamma=gamma)))
        assert sizes == [sol.stats["face_cells"]], (n, gamma)


@pytest.mark.parametrize("method", ["highs-ipm", "highs-ds"])
@pytest.mark.parametrize("taste", [M.NORMAL, M.LOGISTIC], ids=lambda t: t.name)
def test_dense_reduced_costs_match_sparse_product(monkeypatch, taste, method):
    # The HiGHS oracle's face and complementarity read c - A^T y on the grid;
    # the sparse product over the whole standard form is the reference, bit for bit.
    highs, results = L._highs, []

    def spy(*args):
        results.append(highs(*args))
        return results[-1]

    monkeypatch.setattr(L, "_highs", spy)
    for n, gamma in itertools.product((11, 41, 101), (0.5, 2.0, 6.0, 30.0)):
        prog = L.build_lp(M.uniform_instance(n=n, gamma=gamma, taste=taste))
        y, face, complementarity = stage1_highs(prog, method)
        c, a_eq, _b = standard_form(prog)
        reduced = c - a_eq.T @ y
        assert np.array_equal(face, np.flatnonzero(reduced <= HIGHS_FACE_TOL)), (n, gamma)
        assert complementarity == float(results[-1].x @ reduced), (n, gamma)


@pytest.mark.parametrize("n,gamma", FACE_CASES)
def test_uniform_instances_do_not_fall_back_to_highs(monkeypatch, n, gamma):
    # HiGHS runs once per solve, in stage 2 on the face columns
    calls = []

    def spy(c, **kwargs):
        calls.append(kwargs["A_eq"].shape[1])
        return linprog(c, **kwargs)

    monkeypatch.setattr(L, "linprog", spy)
    sol = L.solve_lp(L.build_lp(M.uniform_instance(n=n, gamma=gamma)))
    assert calls == [sol.stats["face_cells"]]
    assert sol.stats["stage1_iterations"] < L.IPM_MAX_ITER


def test_schur_solver_matches_dense_solve():
    prog = L.build_lp(M.uniform_instance(n=21, gamma=2.0))
    a = prog.a
    dense_a = standard_form(prog)[1].toarray()
    rng = np.random.default_rng(0)
    for _ in range(5):
        d = 10.0 ** rng.uniform(-4.0, 4.0, a.shape)
        p, q = rng.standard_normal(a.shape[0]), rng.standard_normal(a.shape[1])
        u, w = L._schur_solver(a, d)(p, q)
        normal = dense_a @ np.diag(d.ravel()) @ dense_a.T + L.IPM_REG * np.eye(dense_a.shape[0])
        rhs, got = np.concatenate([p, q]), np.concatenate([u, w])
        assert np.linalg.norm(normal @ got - rhs) <= 1e-10 * np.linalg.norm(rhs)
        want = np.linalg.solve(normal, rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_step_matches_masked_form():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        size = int(rng.integers(1, 50))
        v = 10.0 ** rng.uniform(-12.0, 2.0, size)
        dv = rng.standard_normal(size) * 10.0 ** rng.uniform(-12.0, 2.0, size)
        neg = dv < 0
        masked = float(np.min(-v[neg] / dv[neg], initial=1.0))
        assert abs(L._step(v, dv) - masked) <= np.spacing(masked)
        assert L._step(v, np.abs(dv)) == 1.0
    assert L._step(np.ones(3), np.zeros(3)) == 1.0


def test_solver_stats():
    sol = L.solve_lp(L.build_lp(M.uniform_instance(n=41, gamma=2.0)))
    assert set(sol.stats) == {"stage1_iterations", "stage1_complementarity", "face_cells", "stage2_iterations"}
    assert sol.stats["stage1_iterations"] > 0
    assert sol.stats["stage1_complementarity"] < L.IPM_GAP
    assert 41 <= sol.stats["face_cells"] < 41 * 41


def _fail_cholesky(monkeypatch, from_call):
    """Make np.linalg.cholesky raise from its ``from_call``-th call on; return
    the list of calls, which the caller may clear to count afresh."""
    cholesky, calls = np.linalg.cholesky, []

    def failing(m):
        calls.append(m)
        if len(calls) >= from_call:
            raise np.linalg.LinAlgError("forced failure")
        return cholesky(m)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    return calls


def _overflowing_newton(prog):
    raise FloatingPointError("overflow encountered in multiply")


@pytest.mark.parametrize("cause", ["start", "early", "late", "iteration_limit", "floating_point"])
def test_stage1_failure_raises_its_cause(monkeypatch, cause):
    inst = M.uniform_instance(n=101, gamma=2.0)
    steps = L.solve_lp(L.build_lp(inst)).stats["stage1_iterations"]
    calls = []
    if cause == "iteration_limit":
        monkeypatch.setattr(L, "IPM_MAX_ITER", 3)
        message = "stage 1: iteration limit 3 at sum x[*]z = "
    elif cause == "floating_point":
        monkeypatch.setattr(L, "_newton", _overflowing_newton)
        message = "^stage 1: overflow encountered in multiply$"
    else:
        # one factorization for the starting point and one per Newton step;
        # "late" fails the last one, on the step before stage 1 would stop
        calls = _fail_cholesky(monkeypatch, {"start": 1, "early": 3, "late": steps + 1}[cause])
        message = "stage 1: Schur complement not positive definite$"
    with pytest.raises(L.LPSolveError, match=message) as failure:
        L.solve_lp(L.build_lp(inst))
    # a sweep records the same message as the row's error
    calls.clear()
    (row,) = L.sweep_gamma(inst, [2.0])
    assert row.error == str(failure.value) and row.objective is None


def test_stage2_failure_names_the_stage(monkeypatch):
    calls = []

    def fail_first_call(*args, **kwargs):
        res = linprog(*args, **kwargs)
        calls.append(res)
        res.status, res.message = 4, "numerical difficulties"
        return res

    monkeypatch.setattr(L, "linprog", fail_first_call)
    with pytest.raises(L.LPSolveError, match="stage 2"):
        L.solve_lp(L.build_lp(small_instance()))
    assert len(calls) == 1  # stage 1 solves without linprog


def test_stage2_failure_names_the_type_rows_without_a_face_cell():
    prog = L.build_lp(M.uniform_instance(n=11, gamma=2.0))
    face = L._stage1_ipm(prog)[1]
    # the lowest and the middle type lose their face cells: the face LP is infeasible
    face = face[(face // 11 != 0) & (face // 11 != 5)]
    with pytest.raises(L.LPSolveError) as failure:
        L._max_packed_on_face(prog, face)
    stage, _, rows = str(failure.value).partition(": HiGHS status 2: ")
    assert stage == "stage 2 (max packed on face)"
    assert rows.endswith("; type rows without a face cell: s=-1 (f=0.0909), s=0 (f=0.0909)")


def _stress_instances():
    """The extreme uniform instances, criterion 8's wide grid, and 60 seeded
    random draws of grid span, masses, taste and gamma."""
    extreme = {
        (n, gamma, taste.name): M.uniform_instance(n=n, gamma=gamma, taste=taste)
        for taste in (M.NORMAL, M.LOGISTIC)
        for n in (3, 11, 41)
        for gamma in (5e-324, 1e-300, 1e-12, 1e-6, 0.1, 1.0, 1e4, 1e300)
    }
    grid = np.linspace(-20.0, 20.0, 201)
    w = 1.0 - 0.04 * grid
    extreme["wide"] = M.ProblemInstance(grid, w / w.sum(), M.NORMAL, 30.0)
    draws, rng = {}, np.random.default_rng(0)
    for k in range(60):
        n = int(rng.choice([5, 11, 41, 101]))
        gamma = 10 ** rng.uniform(-1.5, 1.5)
        alpha = rng.choice([0.05, 0.5, 5.0])
        w = rng.dirichlet(np.full(n, alpha))
        w /= w.sum()
        span = rng.choice([1.0, 3.0, 20.0])
        taste = M.NORMAL if k % 2 == 0 else M.LOGISTIC
        draws[k] = M.ProblemInstance(np.linspace(-span, span, n), w, taste, gamma)
    return extreme, draws


def test_stage1_solves_extreme_and_random_instances():
    # Every extreme uniform instance, the wide grid and every random draw
    # solve, including draws whose Dirichlet(0.05) masses fall far below
    # SUPPORT_TOL.  Each solution validates (solve_lp checks its residuals)
    # and its certificate closes the duality gap.
    extreme, draws = _stress_instances()
    for key, inst in {**extreme, **draws}.items():
        sol = L.solve_lp(L.build_lp(inst))
        assert sol.duality_gap() <= V.DUAL_TOL, key
        assert np.array_equal(sol.phi, price(sol.lp, sol.lam)), key


@pytest.mark.parametrize("taste", [M.NORMAL, M.LOGISTIC], ids=lambda t: t.name)
@pytest.mark.parametrize("n", [41, 101])
def test_tiny_gamma_vertex_is_the_limit_plan(n, taste):
    # As gamma -> 0, (G(r) - 1/2) / (gamma q(0)) -> r, so every tiny gamma
    # has the limit LP's vertex: one PMP plan with one bifurcation point
    bifurcations = set()
    for gamma in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3):
        sol, decomp, regime = L.solve_and_classify(M.uniform_instance(n=n, gamma=gamma, taste=taste))
        assert regime == V.RegimeLabel.PMP, gamma
        assert V.check_single_dipped(sol.lp, sol.pi) == [], gamma
        bifurcations.add(decomp.bifurcation)
    assert len(bifurcations) == 1, bifurcations
