import ast
import concurrent.futures
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog, nnls

from gerryopt import estimation as E
from gerryopt import lp as L
from gerryopt import model as M
from gerryopt import verify as V


def small_instance():
    grid = np.array([-0.8, 0.1, 0.7])
    weights = np.array([0.5, 0.3, 0.2])
    return M.ProblemInstance(type_grid=grid, type_weights=weights, taste=M.NORMAL, gamma=2.0)


def standard_form(prog):
    """The grid LP as min c.x subject to A x = b, x >= 0, with A the sparse
    equality columns of every cell, in the order HiGHS's fallback takes them."""
    n = prog.win.size
    b = np.concatenate([prog.inst.type_weights, np.zeros(n)])
    return -np.tile(prog.win, n), L._columns(prog, np.arange(n * n)), b


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
    sol = L.solve_lp(L.build_lp(inst))
    a = sol.assignment
    assert np.max(np.abs(a.row_residuals())) < M.FEAS_TOL
    assert np.max(np.abs(a.threshold_residuals())) < M.FEAS_TOL
    assert abs(sol.duality_gap()) < 1e-8
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


def test_monotone_in_gamma_precision():
    # more precise aggregate information (larger gamma) raises the optimum
    objs = []
    for gamma in (0.5, 2.0, 6.0):
        inst = M.uniform_instance(n=81, gamma=gamma)
        objs.append(L.solve_lp(L.build_lp(inst)).objective)
    assert objs[0] < objs[1] < objs[2]


@pytest.mark.parametrize("taste", [M.NORMAL, M.LOGISTIC], ids=lambda t: t.name)
def test_sweep_serial_matches_parallel(taste):
    # worker processes receive the pickled instance, taste functions included
    template = M.uniform_instance(n=41, gamma=1.0, taste=taste)
    gammas = [0.5, 2.0, 6.0]
    serial = L.sweep_gamma(template, gammas, jobs=1)
    parallel = L.sweep_gamma(template, gammas, jobs=2)
    assert [r.gamma for r in serial] == gammas
    for a, b in zip(serial, parallel):
        assert a.gamma == b.gamma
        assert a.objective == pytest.approx(b.objective, abs=1e-12)
        assert a.regime == b.regime


@pytest.mark.parametrize("jobs,gammas,pools", [(64, [0.5, 2.0], [2]), (64, [2.0], []), (2, [0.5, 1.0, 2.0], [2])])
def test_sweep_workers_capped_at_gamma_count(monkeypatch, jobs, gammas, pools):
    sizes = []

    class RecordingPool:  # records max_workers and maps in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    rows = L.sweep_gamma(M.uniform_instance(n=11), gammas, jobs=jobs)
    assert sizes == pools
    assert [r.gamma for r in rows] == gammas and all(r.error is None for r in rows)


def test_sweep_checks_arguments_before_any_solve(monkeypatch):
    def no_solve(prog):
        raise AssertionError("solved before every argument was checked")

    monkeypatch.setattr(L, "solve_lp", no_solve)
    template = M.uniform_instance(n=11)
    for gammas, jobs in (([1.0, float("nan")], 1), ([1.0, -2.0], 1), ([1.0], 0), ([1.0], -3)):
        with pytest.raises(M.GerryOptError):
            L.sweep_gamma(template, gammas, jobs=jobs)


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
    cert = sol.certificate
    assert cert.lambda_.shape == sol.assignment.type_grid.shape
    assert cert.phi.shape == inst.type_grid.shape


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
    asg = L._assignment(prog, x)
    decomp = V.decompose_pack_and_pair(asg)
    return V.classify_regime(decomp), decomp.bifurcation, asg.pi


@pytest.mark.parametrize("n,gamma", FACE_CASES)
def test_face_vertex_independent_of_stage1_method(n, gamma):
    # The structured interior point, HiGHS interior point and HiGHS dual
    # simplex return different optimal duals and faces; the max-packed vertex
    # on each face is the same.  HiGHS is the oracle.
    prog = L.build_lp(M.uniform_instance(n=n, gamma=gamma))
    label, rb, pi = face_vertex(prog, L._stage1_ipm(prog))
    for method in ("highs-ipm", "highs-ds"):
        label_h, rb_h, pi_h = face_vertex(prog, L._stage1_highs(prog, method))
        assert (label, rb) == (label_h, rb_h), method
        assert np.max(np.abs(pi - pi_h)) <= 1e-12, method


# the figure's nine gamma, then two where the verdict reads pack-and-pair
TIE_GAMMAS = [0.2, 0.5, 1.0, 1.2, 1.4, 1.6, 1.7, 3.0, 6.0, 10.0, 30.0]


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
        x = np.zeros(prog.vote.size)
        x[face] = res.x
        decomp = V.decompose_pack_and_pair(L._assignment(prog, x))
        assert (V.classify_regime(decomp), decomp.bifurcation) == (label, rb), seed


def _coo_a_eq(prog):
    """The whole equality matrix in one COO assembly: the reference for ``_columns``."""
    n_s, n_r = prog.vote.shape
    var = np.arange(n_s * n_r)
    rows = np.concatenate([var // n_r, n_s + var % n_r])
    data = np.concatenate([np.ones(n_s * n_r), (prog.vote - 0.5).ravel()])
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


def test_only_the_fallback_builds_the_whole_matrix(monkeypatch):
    prog = L.build_lp(M.uniform_instance(n=41, gamma=2.0))
    columns, sizes = L._columns, []

    def spy(lp, cells):
        sizes.append(cells.size)
        return columns(lp, cells)

    monkeypatch.setattr(L, "_columns", spy)
    sol = L.solve_lp(prog)
    assert sizes == [sol.stats["face_cells"]] and sizes[0] < 41 * 41
    sizes.clear()
    monkeypatch.setattr(L, "IPM_MAX_ITER", 3)
    sol = L.solve_lp(prog)
    assert sol.stats["stage1_method"] == "highs-ipm"
    assert sizes == [41 * 41, sol.stats["face_cells"]]


@pytest.mark.parametrize("method", ["highs-ipm", "highs-ds"])
@pytest.mark.parametrize("taste", [M.NORMAL, M.LOGISTIC], ids=lambda t: t.name)
def test_dense_reduced_costs_match_sparse_product(monkeypatch, taste, method):
    # The fallback's face and complementarity read c - A^T y on the grid; the
    # sparse product over the whole standard form is the reference, bit for bit.
    highs, results = L._highs, []

    def spy(*args):
        results.append(highs(*args))
        return results[-1]

    monkeypatch.setattr(L, "_highs", spy)
    for n, gamma in itertools.product((11, 41, 101), (0.5, 2.0, 6.0, 30.0)):
        prog = L.build_lp(M.uniform_instance(n=n, gamma=gamma, taste=taste))
        y, face, stats = L._stage1_highs(prog, method)
        c, a_eq, _b = standard_form(prog)
        reduced = c - a_eq.T @ y
        assert np.array_equal(face, np.flatnonzero(reduced <= L.FACE_TOL)), (n, gamma)
        assert stats["stage1_complementarity"] == float(results[-1].x @ reduced), (n, gamma)


@pytest.mark.parametrize("n,gamma", FACE_CASES)
def test_uniform_instances_do_not_fall_back_to_highs(n, gamma):
    # a fallback gives the same outputs through the slow path, so only the
    # stats show it (an overflow in the step length would be one cause)
    sol = L.solve_lp(L.build_lp(M.uniform_instance(n=n, gamma=gamma)))
    assert sol.stats["stage1_fallback"] is None
    assert sol.stats["stage1_method"] == "structured-ipm"


def test_schur_solver_matches_dense_solve():
    prog = L.build_lp(M.uniform_instance(n=21, gamma=2.0))
    a = prog.vote - 0.5
    dense_a = standard_form(prog)[1].toarray()
    rng = np.random.default_rng(0)
    for _ in range(5):
        d = 10.0 ** rng.uniform(-4.0, 4.0, a.shape)
        p, q = rng.standard_normal(a.shape[0]), rng.standard_normal(a.shape[1])
        u, w = L._schur_solver(a, d)(p, q)
        normal = dense_a @ np.diag(d.ravel()) @ dense_a.T
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
    assert sol.stats["stage1_method"] == "structured-ipm"
    assert sol.stats["stage1_fallback"] is None
    assert sol.stats["stage1_iterations"] > 0
    assert sol.stats["stage1_crossover_iterations"] == 0
    assert sol.stats["stage1_complementarity"] < L.IPM_GAP
    assert 41 <= sol.stats["face_cells"] < 41 * 41
    assert sol.stats["face_tol"] == L.FACE_TOL


def _fail_cholesky(monkeypatch, from_call):
    """Make np.linalg.cholesky raise from its ``from_call``-th call on."""
    cholesky, calls = np.linalg.cholesky, []

    def failing(m):
        calls.append(m)
        if len(calls) >= from_call:
            raise np.linalg.LinAlgError("forced failure")
        return cholesky(m)

    monkeypatch.setattr(np.linalg, "cholesky", failing)


@pytest.mark.parametrize("cause", ["start", "early", "late", "iteration_limit"])
def test_stage1_falls_back_to_highs(monkeypatch, cause):
    prog = L.build_lp(M.uniform_instance(n=101, gamma=2.0))
    reference = L.solve_lp(prog)
    if cause == "iteration_limit":
        monkeypatch.setattr(L, "IPM_MAX_ITER", 3)
    else:
        # one factorization for the starting point and one per Newton step;
        # "late" fails the last one, on the step before stage 1 would stop
        last_call = reference.stats["stage1_iterations"] + 1
        _fail_cholesky(monkeypatch, {"start": 1, "early": 3, "late": last_call}[cause])
    sol = L.solve_lp(prog)
    assert sol.stats["stage1_method"] == "highs-ipm"
    assert sol.stats["stage1_fallback"]
    assert np.max(np.abs(sol.assignment.pi - reference.assignment.pi)) <= 1e-12
    assert abs(sol.objective - reference.objective) <= 1e-12
    assert sol.duality_gap() <= V.DUAL_TOL


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
