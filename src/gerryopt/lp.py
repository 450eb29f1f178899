"""Discretized designer problem as a linear program.

Variables pi(s, r) >= 0 assign type mass to threshold columns:
    max  sum pi(s,r) * G(r)
    s.t. sum_r pi(s,r) = f(s)                   for every type s
         sum_s pi(s,r) * (v(s,r) - 1/2) = 0     for every threshold r

Solved in two stages, both through ``linprog``:

1. HiGHS interior point with crossover.  Its objective and equality duals
   (the certificate multipliers lambda(r) and voter values phi(s)) are the
   ones reported.
2. The LP often has many optimal vertices, and structural verdicts (regime,
   bifurcation, single-dippedness) read the vertex.  Stage 2 keeps the cells
   (s, r) with zero reduced cost under the stage-1 dual,
   phi(s) - G(r) - lambda(r)(v(s,r) - 1/2) <= FACE_TOL, and on them finds a
   vertex of maximum packed mass (r = s).  Every feasible point on those
   cells is complementary to the stage-1 dual, so it is optimal and the
   stage-1 certificate stays valid for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .model import GerryOptError, Plan, ProblemInstance, vote_share

SUPPORT_TOL = 1e-9     # assignment mass below this is numerically zero
PRIMAL_TOL = 1e-8      # feasibility residuals
DUAL_TOL = 1e-7        # complementary slackness / strong duality
FACE_TOL = 1e-9        # reduced cost at or below which a cell is on the optimal face
AT_TOL = 1e-12         # a type this close to a threshold sits at it

HIGHS_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class LPSolveError(GerryOptError):
    """HiGHS reported failure (infeasible model signals a construction bug)."""


@dataclass(frozen=True)
class LinearProgram:
    inst: ProblemInstance
    threshold_grid: np.ndarray
    c: np.ndarray           # minimization costs, -G(r) per column
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    vote: np.ndarray        # v(s, r) on the (type, threshold) grid

    @property
    def n_types(self) -> int:
        return self.inst.type_grid.size

    @property
    def n_thresholds(self) -> int:
        return self.threshold_grid.size


@dataclass(frozen=True)
class AssignmentMatrix:
    """Optimal joint assignment pi over (type, threshold) grid pairs."""

    pi: np.ndarray
    type_grid: np.ndarray
    threshold_grid: np.ndarray
    type_weights: np.ndarray
    vote: np.ndarray

    def row_residuals(self) -> np.ndarray:
        return self.pi.sum(axis=1) - self.type_weights

    def column_mass(self) -> np.ndarray:
        return self.pi.sum(axis=0)

    def threshold_residuals(self) -> np.ndarray:
        """Per active column: sum_s pi(s,r) (v(s,r) - 1/2), else 0."""
        res = ((self.vote - 0.5) * self.pi).sum(axis=0)
        return np.where(self.column_mass() > SUPPORT_TOL, res, 0.0)

    def validate(self) -> None:
        row = float(np.max(np.abs(self.row_residuals())))
        col = float(np.max(np.abs(self.threshold_residuals())))
        if row > PRIMAL_TOL or col > PRIMAL_TOL:
            raise LPSolveError(f"assignment residuals row={row:.2e} col={col:.2e} > {PRIMAL_TOL:.1e}")


@dataclass(frozen=True)
class DualCertificate:
    """Equality-constraint multipliers certifying LP optimality.

    lambda_[j] multiplies the threshold constraint at r_j; phi[i] is the voter
    value of type s_i.  At an optimum phi(s) = max_r G(r) + lambda(r)(v(s,r)-1/2)
    with equality on the active support, and sum f(s) phi(s) equals the
    objective (strong duality).
    """

    lambda_: np.ndarray
    phi: np.ndarray
    type_grid: np.ndarray
    threshold_grid: np.ndarray

    def support_values(self, g_of_r: np.ndarray, vote: np.ndarray) -> np.ndarray:
        """Matrix G(r) + lambda(r) * (v(s,r) - 1/2) over all (s, r)."""
        return g_of_r[None, :] + self.lambda_[None, :] * (vote - 0.5)


@dataclass(frozen=True)
class LPSolution:
    assignment: AssignmentMatrix
    objective: float
    certificate: DualCertificate
    stats: dict  # solver methods, iteration counts, face size and FACE_TOL

    def duality_gap(self, type_weights: np.ndarray) -> float:
        return float(abs(self.objective - type_weights @ self.certificate.phi))


def build_lp(inst: ProblemInstance, threshold_grid: np.ndarray | None = None) -> LinearProgram:
    """Assemble costs and equality constraints on the given threshold grid."""
    r = inst.type_grid.copy() if threshold_grid is None else np.asarray(threshold_grid, dtype=float)
    if r.size == 0:
        raise GerryOptError("threshold grid must be nonempty")
    s = inst.type_grid
    n_s, n_r = s.size, r.size
    vote = vote_share(inst, s[:, None], r[None, :])

    c = -np.tile(np.asarray(inst.G(r), dtype=float), n_s)

    var = np.arange(n_s * n_r)
    type_of_var = var // n_r
    thr_of_var = var % n_r
    # stack type-marginal rows (0..n_s-1) then threshold rows (n_s..n_s+n_r-1)
    rows = np.concatenate([type_of_var, n_s + thr_of_var])
    cols = np.concatenate([var, var])
    data = np.concatenate([np.ones(n_s * n_r), (vote - 0.5).ravel()])
    a_eq = sparse.coo_matrix((data, (rows, cols)), shape=(n_s + n_r, n_s * n_r)).tocsr()
    b_eq = np.concatenate([inst.type_weights, np.zeros(n_r)])
    return LinearProgram(inst=inst, threshold_grid=r, c=c, a_eq=a_eq, b_eq=b_eq, vote=vote)


def _assignment(lp: LinearProgram, x: np.ndarray) -> AssignmentMatrix:
    """The assignment matrix of a primal point, checked for feasibility."""
    pi = x.reshape(lp.n_types, lp.n_thresholds)
    assignment = AssignmentMatrix(
        pi=np.where(pi > 0, pi, 0.0),
        type_grid=lp.inst.type_grid.copy(),
        threshold_grid=lp.threshold_grid.copy(),
        type_weights=lp.inst.type_weights.copy(),
        vote=lp.vote,
    )
    assignment.validate()
    return assignment


def _max_packed_on_face(lp: LinearProgram, res) -> tuple[np.ndarray, dict]:
    """Stage 2: the vertex of maximum packed mass on the optimal face of the
    stage-1 result ``res``.

    Returns the primal point on the full (type, threshold) grid and the
    stage-2 statistics.
    """
    # scipy's reduced cost c - A^T y is phi(s) - G(r) - lambda(r)(v(s,r) - 1/2)
    reduced = lp.c - lp.a_eq.T @ np.asarray(res.eqlin.marginals, dtype=float)
    face = np.flatnonzero(reduced <= FACE_TOL)
    # a packed cell puts type s in a district with threshold r = s
    packed = np.abs(lp.threshold_grid[None, :] - lp.inst.type_grid[:, None]).ravel()[face] <= AT_TOL
    res2 = linprog(
        -packed.astype(float),
        A_eq=lp.a_eq[:, face],
        b_eq=lp.b_eq,
        bounds=(0, None),
        method="highs-ds",
        options=HIGHS_OPTIONS,
    )
    if res2.status != 0:
        raise LPSolveError(f"stage 2 (max packed on face): HiGHS status {res2.status}: {res2.message}")
    x = np.zeros(lp.c.size)
    x[face] = res2.x
    return x, {"face_cells": int(face.size), "stage2_iterations": int(res2.nit)}


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve by interior point, then return the canonical vertex of the
    optimal face with the interior-point objective and duals."""
    method = "highs-ipm"  # crossover on (the HiGHS default): res carries a basic solution
    res = linprog(lp.c, A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=(0, None), method=method, options=HIGHS_OPTIONS)
    if res.status != 0:
        raise LPSolveError(f"stage 1 (interior point): HiGHS status {res.status}: {res.message}")
    x, face_stats = _max_packed_on_face(lp, res)

    n_s = lp.n_types
    marginals = np.asarray(res.eqlin.marginals, dtype=float)
    # scipy minimizes -G . pi; dual feasibility y_s + y_r (v - 1/2) <= -G(r)
    # rearranges to phi(s) >= G(r) + lambda(r)(v - 1/2) with phi = -y_s, lambda = y_r
    phi = -marginals[:n_s]
    lam = marginals[n_s:]
    cert = DualCertificate(
        lambda_=lam,
        phi=phi,
        type_grid=lp.inst.type_grid.copy(),
        threshold_grid=lp.threshold_grid.copy(),
    )
    stats = {
        "stage1_method": method,
        "stage1_iterations": int(res.nit),
        "stage1_crossover_iterations": int(res.crossover_nit),
        **face_stats,
        "face_tol": FACE_TOL,
    }
    return LPSolution(assignment=_assignment(lp, x), objective=float(-res.fun), certificate=cert, stats=stats)


def extract_plan(assignment: AssignmentMatrix) -> Plan:
    """One district per active threshold column, weighted by column mass."""
    col_mass = assignment.column_mass()
    cols = np.flatnonzero(col_mass > SUPPORT_TOL)
    district, types = np.nonzero(assignment.pi[:, cols].T > SUPPORT_TOL)
    w = assignment.pi[types, cols[district]]
    # a 1-D sum per column and a left-to-right total fix the rounding of plan.json
    sums = np.array([part.sum() for part in np.split(w, np.cumsum(np.bincount(district))[:-1])])
    mass = col_mass[cols]
    return Plan(district, assignment.type_grid[types], w / sums[district], mass / sum(mass.tolist()))


@dataclass
class SweepRow:
    gamma: float
    objective: float | None = None
    regime: str | None = None
    bifurcation: float | None = None
    error: str | None = None


def _solve_one_gamma(args) -> SweepRow:
    inst_json, gamma = args
    from . import verify  # local import: verify depends on lp types

    base = ProblemInstance.from_json(inst_json)
    inst = ProblemInstance(
        type_grid=base.type_grid, type_weights=base.type_weights, taste=base.taste, gamma=gamma
    )
    try:
        sol = solve_lp(build_lp(inst))
        decomp = verify.decompose_pack_and_pair(sol.assignment)
        regime = verify.classify_regime(decomp)
        return SweepRow(gamma=gamma, objective=sol.objective, regime=regime.value, bifurcation=decomp.bifurcation)
    except GerryOptError as exc:
        return SweepRow(gamma=gamma, error=str(exc))


def sweep_gamma(inst_template: ProblemInstance, gamma_list, jobs: int = 1) -> list[SweepRow]:
    """Solve the LP for each gamma; per-row failures do not stop the sweep."""
    tasks = [(inst_template.to_json(), float(g)) for g in gamma_list]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_solve_one_gamma, tasks))
    return [_solve_one_gamma(t) for t in tasks]
