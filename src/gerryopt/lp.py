"""Discretized designer problem as a linear program.

Variables pi(s, r) >= 0 assign type mass to threshold columns:
    max  sum pi(s,r) * G(r)
    s.t. sum_r pi(s,r) = f(s)                   for every type s
         sum_s pi(s,r) * (v(s,r) - 1/2) = 0     for every threshold r

Solved in two stages:

1. A Mehrotra predictor-corrector interior point that factorizes only an
   n_r x n_r Schur complement per Newton step (``_stage1_ipm``): one
   Cholesky factor, which the predictor and the corrector share, and two
   triangular solves with it per direction (``_schur_solver``).  The factor
   is numpy's; scipy's ``cho_factor`` runs in scipy's own OpenBLAS, and
   interleaved with numpy's matrix products it made stage 1 about four
   times slower at n = 201 on a 2-core machine.  Stage 1 stops at primal
   and dual residuals below IPM_TOL and a complementarity sum x*z below
   IPM_GAP; its equality duals (the certificate multipliers
   lambda(r) and voter values phi(s)) are the ones reported, and the
   optimal face is the cells where x > z.  If the factorization fails or
   the iteration limit is hit, HiGHS interior point with crossover
   (``linprog``) runs instead and the face is the cells of zero reduced cost,
   phi(s) - G(r) - lambda(r)(v(s,r) - 1/2) <= FACE_TOL.
2. The LP often has many optimal vertices, and structural verdicts (regime,
   bifurcation, single-dippedness) read the vertex.  Stage 2 (``linprog``
   dual simplex) finds a vertex of maximum packed mass (r = s) on the face
   cells.  Every feasible point on them is complementary to the stage-1
   dual, so it is optimal and the stage-1 certificate stays valid for it.
   The reported objective is this vertex's value.

``LinearProgram`` keeps the problem on its grid, G(r) and v(s, r).  Only
``_highs`` builds HiGHS's standard form: the right-hand side and, by
``_columns``, the sparse equality columns of the cells it is given (stage 2's
face, or all n^2 in the fallback).  The structured interior point reads the grid.

``solve_and_classify`` runs the whole pipeline, instance to solution,
pack-and-pair decomposition and regime; every command and sweep row uses it.
"""

from __future__ import annotations

from concurrent import futures
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.optimize import linprog

from .model import FEAS_TOL, SUPPORT_TOL, GerryOptError, Plan, ProblemInstance, vote_share
from .verify import PackAndPairDecomposition, RegimeLabel, classify_regime, decompose_pack_and_pair

# Plateaus as in model's tolerance comment.
FACE_TOL = 1e-9        # reduced cost of a face cell, HiGHS fallback only (forced at n=61: plateau 1e-13..1e-6)
IPM_TOL = 1e-10        # relative primal and dual residuals at which stage 1 stops (stage-1 plateau 1e-11..1e-6)...
IPM_GAP = 1e-14        # ...once the complementarity sum x*z is also below this (plateau 1e-16..1e-12)
IPM_MAX_ITER = 60      # stage-1 Newton steps before HiGHS takes over
IPM_SHIFT = 1e-14      # normal-matrix diagonal shift, relative to each diagonal entry (plateau 1e-18..1e-13)
IPM_ETA = 0.99995      # fraction of the step to the boundary that is taken

# HiGHS, the fallback, is held to the feasibility at which stage 1 stops.
# IPM_TOL's plateau was measured on stage 1 only, not on these two.
HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": IPM_TOL,
    "dual_feasibility_tolerance": IPM_TOL,
}


class LPSolveError(GerryOptError):
    """HiGHS reported failure (infeasible model signals a construction bug)."""


@dataclass(frozen=True)
class LinearProgram:
    """The grid LP; the type masses f(s) are ``inst.type_weights``."""

    inst: ProblemInstance
    win: np.ndarray         # G(r) per threshold column
    vote: np.ndarray        # v(s, r) on the (type, threshold) grid


@dataclass(frozen=True)
class AssignmentMatrix:
    """Optimal joint assignment pi over (type, threshold) grid pairs; the
    type grid is also the threshold grid."""

    pi: np.ndarray
    type_grid: np.ndarray
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
        if row > FEAS_TOL or col > FEAS_TOL:
            raise LPSolveError(f"assignment residuals row={row:.2e} col={col:.2e} > {FEAS_TOL:.1e}")


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


@dataclass(frozen=True)
class LPSolution:
    assignment: AssignmentMatrix
    objective: float
    certificate: DualCertificate
    stats: dict  # solver methods, iteration counts, face size and FACE_TOL

    def duality_gap(self) -> float:
        return float(abs(self.objective - self.assignment.type_weights @ self.certificate.phi))


def build_lp(inst: ProblemInstance) -> LinearProgram:
    """Evaluate G(r) and the vote shares; the thresholds are the type grid."""
    s = r = inst.type_grid
    vote = vote_share(inst, s[:, None], r[None, :])
    return LinearProgram(inst=inst, win=np.asarray(inst.G(r), dtype=float), vote=vote)


def _columns(lp: LinearProgram, cells: np.ndarray) -> sparse.csr_matrix:
    """The equality columns of ``cells`` (flat (type, threshold) indices), in order.

    Cell (s, r) has 1 in type row s and v(s,r) - 1/2 in threshold row r; the
    type rows come first, then the threshold rows.
    """
    n_s, n_r = lp.vote.shape
    type_of, thr_of = np.divmod(cells, n_r)
    k = np.arange(cells.size)
    rows = np.concatenate([type_of, n_s + thr_of])
    data = np.concatenate([np.ones(cells.size), lp.vote.ravel()[cells] - 0.5])
    return sparse.coo_matrix((data, (rows, np.concatenate([k, k]))), shape=(n_s + n_r, cells.size)).tocsr()


def _assignment(lp: LinearProgram, x: np.ndarray) -> AssignmentMatrix:
    """The assignment matrix of a primal point, checked for feasibility."""
    pi = x.reshape(lp.vote.shape)
    assignment = AssignmentMatrix(
        pi=np.where(pi > 0, pi, 0.0),
        type_grid=lp.inst.type_grid,
        type_weights=lp.inst.type_weights,
        vote=lp.vote,
    )
    assignment.validate()
    return assignment


class _Stage1Failure(Exception):
    """The structured interior point gave up; stage 1 falls back to HiGHS."""


def _schur_solver(a: np.ndarray, d: np.ndarray):
    """Solver of A diag(d) A^T (u, w) = (p, q) through the Schur complement.

    ``a`` is v(s,r) - 1/2 and ``d`` the diagonal scaling, both on the (type,
    threshold) grid.  The n_r x n_r Schur complement D2 - B^T D1^-1 B is
    factorized once; each solve is then two triangular solves with it.
    Raises ``LinAlgError`` if the complement is not positive definite.
    """
    d1, b = d.sum(axis=1), d * a
    d2 = (b * a).sum(axis=0)
    # scaled to the unit diagonal of A diag(d) A^T (a threshold row with
    # a = 0 throughout is empty) and shifted by IPM_SHIFT
    sc = 1.0 / np.sqrt(np.where(d2 > 0, d2, 1.0))
    schur = (np.diag(d2) - b.T @ (b / d1[:, None])) * sc[:, None] * sc
    schur[np.diag_indices(a.shape[1])] += IPM_SHIFT
    # one Cholesky factor per scaling, by numpy (not scipy's cho_factor: see
    # the module docstring); its transpose is the upper factor in Fortran
    # order, which LAPACK's dpotrs takes without a copy
    upper = np.linalg.cholesky(schur).T

    def solve(p, q):
        # dpotrs's info flag reports only an illegal argument
        w = sc * lapack.dpotrs(upper, sc * (q - b.T @ (p / d1)))[0]
        return (p - b @ w) / d1, w

    return solve


def _step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in [0, 1] that keeps v + step * dv nonnegative.

    Stage 1 keeps x and z positive, so for v > 0 the step is
    1 / max(1, max(-dv / v)) with no mask and no division by zero.
    """
    return 1.0 / max(1.0, -float(np.min(dv / v)))


@np.errstate(divide="raise", over="raise", invalid="raise")
def _stage1_ipm(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, dict]:
    """Stage 1 by a Mehrotra predictor-corrector that uses the LP's structure.

    Column (s, r) has two nonzeros, 1 in type row s and a = v(s,r) - 1/2 in
    threshold row r, so for a diagonal scaling d the normal matrix
    A diag(d) A^T is [[D1, B], [B^T, D2]] with D1 = row sums of d, B = d * a
    and D2 = column sums of d * a^2.  Each Newton step factorizes only the
    n_r x n_r Schur complement D2 - B^T D1^-1 B, and the predictor and the
    corrector share that factor.  The optimal face is the strictly
    complementary partition x > z (Mehrotra & Ye 1993).

    Returns the dual y (type rows, then threshold rows), the face cells and
    the statistics.  Raises ``_Stage1Failure``, ``LinAlgError`` or
    ``FloatingPointError`` when HiGHS must take over.
    """
    a = lp.vote - 0.5
    c = np.broadcast_to(-lp.win, a.shape)
    f = lp.inst.type_weights
    n_r = a.shape[1]

    # Mehrotra's starting point: least-norm x and least-squares z, shifted inside
    solve = _schur_solver(a, np.ones_like(a))
    ys, yr = solve(c.sum(axis=1), (a * c).sum(axis=0))
    z = c - ys[:, None] - a * yr
    u, w = solve(f, np.zeros(n_r))
    x = u[:, None] + a * w
    x += max(-1.5 * x.min(), 0.0)
    z += max(-1.5 * z.min(), 0.0)
    xz = float(np.vdot(x, z))
    x += 0.5 * xz / z.sum()
    z += 0.5 * xz / x.sum()

    scale_p, scale_d = 1.0 + np.linalg.norm(f), 1.0 + np.linalg.norm(c)
    for it in range(IPM_MAX_ITER + 1):
        rp_s, rp_r = f - x.sum(axis=1), -(a * x).sum(axis=0)
        rd = c - ys[:, None] - a * yr - z
        gap = float(np.vdot(x, z))
        if (
            np.hypot(np.linalg.norm(rp_s), np.linalg.norm(rp_r)) <= IPM_TOL * scale_p
            and np.linalg.norm(rd) <= IPM_TOL * scale_d
            and gap < IPM_GAP
        ):
            break
        if it == IPM_MAX_ITER:
            raise _Stage1Failure(f"iteration limit {IPM_MAX_ITER} at sum x*z = {gap:.1e}")
        d = x / z
        try:
            solve = _schur_solver(a, d)
        except np.linalg.LinAlgError:
            raise _Stage1Failure(f"Schur complement not positive definite at sum x*z = {gap:.1e}") from None

        def direction(rc):  # Newton step with complementarity target z dx + x dz = rc
            t = d * rd - rc / z
            dys, dyr = solve(rp_s + t.sum(axis=1), rp_r + (a * t).sum(axis=0))
            dz = rd - dys[:, None] - a * dyr
            return (rc - x * dz) / z, dys, dyr, dz

        dx, _, _, dz = direction(-x * z)
        mu = gap / x.size
        mu_aff = float(np.vdot(x + _step(x, dx) * dx, z + _step(z, dz) * dz)) / x.size
        dx, dys, dyr, dz = direction((mu_aff / mu) ** 3 * mu - x * z - dx * dz)
        step_p, step_d = min(1.0, IPM_ETA * _step(x, dx)), min(1.0, IPM_ETA * _step(z, dz))
        x += step_p * dx
        ys += step_d * dys
        yr += step_d * dyr
        z += step_d * dz
    stats = {
        "stage1_method": "structured-ipm",
        "stage1_iterations": it,
        "stage1_crossover_iterations": 0,
        "stage1_complementarity": gap,
    }
    return np.concatenate([ys, yr]), np.flatnonzero((x > z).ravel()), stats


def _highs(lp: LinearProgram, cells: np.ndarray, c: np.ndarray, method: str, stage: str):
    """The one HiGHS call: min c.x over the columns of ``cells`` (flat
    (type, threshold) indices), subject to the LP's equality rows, x >= 0."""
    rhs = np.concatenate([lp.inst.type_weights, np.zeros(lp.win.size)])
    res = linprog(c, A_eq=_columns(lp, cells), b_eq=rhs, bounds=(0, None), method=method, options=HIGHS_OPTIONS)
    if res.status != 0:
        raise LPSolveError(f"{stage}: HiGHS status {res.status}: {res.message}")
    return res


def _stage1_highs(lp: LinearProgram, method: str = "highs-ipm") -> tuple[np.ndarray, np.ndarray, dict]:
    """Stage 1 by HiGHS (crossover on: the result is a basic solution).

    The face is the cells of zero reduced cost under its dual,
    phi(s) - G(r) - lambda(r)(v(s,r) - 1/2) <= FACE_TOL.
    """
    n_s = lp.vote.shape[0]
    c = np.broadcast_to(-lp.win, lp.vote.shape)
    res = _highs(lp, np.arange(c.size), c.ravel(), method, f"stage 1 ({method})")
    y = np.asarray(res.eqlin.marginals, dtype=float)
    # c - A^T y on the grid, summed in the sparse product's order
    reduced = (c - (y[:n_s, None] + (lp.vote - 0.5) * y[n_s:])).ravel()
    stats = {
        "stage1_method": method,
        "stage1_iterations": int(res.nit),
        "stage1_crossover_iterations": int(res.crossover_nit),
        "stage1_complementarity": float(res.x @ reduced),
    }
    return y, np.flatnonzero(reduced <= FACE_TOL), stats


def _max_packed_on_face(lp: LinearProgram, face: np.ndarray) -> tuple[np.ndarray, dict]:
    """Stage 2: the vertex of maximum packed mass on the optimal face.

    Returns the primal point on the full (type, threshold) grid and the
    stage-2 statistics.
    """
    # a packed cell puts type s in a district with threshold r = s
    type_of, thr_of = np.divmod(face, lp.win.size)
    res = _highs(lp, face, -(type_of == thr_of).astype(float), "highs-ds", "stage 2 (max packed on face)")
    x = np.zeros(lp.vote.size)
    x[face] = res.x
    return x, {"face_cells": int(face.size), "stage2_iterations": int(res.nit)}


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve stage 1 by the structured interior point (HiGHS interior point
    if it gives up), then return the vertex of maximum packed mass on the
    optimal face with its objective and the stage-1 duals."""
    try:
        y, face, stats = _stage1_ipm(lp)
        stats["stage1_fallback"] = None
    except (_Stage1Failure, np.linalg.LinAlgError, FloatingPointError) as exc:
        y, face, stats = _stage1_highs(lp)
        stats["stage1_fallback"] = str(exc)
    x, face_stats = _max_packed_on_face(lp, face)

    n_s = lp.inst.type_grid.size
    # stage 1 minimizes -G . pi; dual feasibility y_s + y_r (v - 1/2) <= -G(r)
    # rearranges to phi(s) >= G(r) + lambda(r)(v - 1/2) with phi = -y_s, lambda = y_r
    cert = DualCertificate(lambda_=y[n_s:], phi=-y[:n_s])
    stats.update(face_stats, face_tol=FACE_TOL)
    objective = float(np.tile(lp.win, n_s) @ x)
    return LPSolution(assignment=_assignment(lp, x), objective=objective, certificate=cert, stats=stats)


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


def solve_and_classify(inst: ProblemInstance) -> tuple[LPSolution, PackAndPairDecomposition, RegimeLabel]:
    """Solve the instance's LP, then decompose and label its vertex."""
    sol = solve_lp(build_lp(inst))
    decomp = decompose_pack_and_pair(sol.assignment)
    return sol, decomp, classify_regime(decomp)


@dataclass
class SweepRow:
    gamma: float
    objective: float | None = None
    regime: str | None = None
    bifurcation: float | None = None
    error: str | None = None


def _sweep_row(inst: ProblemInstance) -> SweepRow:
    try:
        sol, decomp, regime = solve_and_classify(inst)
    except GerryOptError as exc:
        return SweepRow(gamma=inst.gamma, error=str(exc))
    return SweepRow(inst.gamma, sol.objective, regime.value, decomp.bifurcation)


def sweep_gamma(inst_template: ProblemInstance, gamma_list, jobs: int = 1) -> list[SweepRow]:
    """Solve the LP for each gamma; per-row failures do not stop the sweep.

    Every gamma is checked before any solve.  ``jobs`` worker processes, at
    most one per gamma, share the rows.
    """
    if jobs < 1:
        raise GerryOptError(f"jobs must be at least 1, got {jobs!r}")
    tasks = [replace(inst_template, gamma=float(g)) for g in gamma_list]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_row, tasks))
    return list(map(_sweep_row, tasks))
