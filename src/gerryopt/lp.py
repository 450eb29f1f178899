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
   times slower at n = 201 on a 2-core machine.  A fixed dual regularization
   IPM_REG on the normal matrix's diagonal (Friedlander & Orban, Math. Prog.
   Comp. 4, 2012) keeps the duals bounded where the optimal dual set is not.
   Stage 1 minimises the unit-scale cost -(G(r) - 1/2) / max|G - 1/2|, with
   G - 1/2 from the taste's centred cdf, so its tolerances see the cost's
   informative part at any gamma; the duals are mapped back to -G.  It stops
   at primal and dual residuals below IPM_TOL and a complementarity sum x*z
   below IPM_GAP, or raises ``LPSolveError``.  Its threshold duals, the
   certificate multipliers lambda(r), are the ones reported; the voter
   values phi(s) follow from them (``Solution``).  The optimal face is the
   cells where x > z f(s), each type row read by its share.
2. The LP often has many optimal vertices, and structural verdicts (regime,
   bifurcation, single-dippedness) read the vertex.  Stage 2 (``linprog``
   dual simplex) finds a vertex of maximum packed mass (r = s) on the face
   cells.  Every feasible point on them is complementary to the stage-1
   dual, so it is optimal and the stage-1 certificate stays valid for it.
   The reported objective is this vertex's value.

``LinearProgram`` keeps the problem on its grid, G(r) and a = v - 1/2.  Only
``_highs`` builds HiGHS's standard form: the right-hand side and, by
``_columns``, the sparse equality columns of stage 2's face cells.  The
structured interior point reads the grid.

``solve_lp`` returns one ``Solution``: the vertex pi, lam, the phi it prices,
the objective and the statistics.  Readers of pi take (lp, pi).

``solve_and_classify`` runs the whole pipeline, instance to solution,
pack-and-pair decomposition and regime; every command and sweep row uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.optimize import linprog

from .model import FEAS_TOL, SUPPORT_TOL, GerryOptError, Plan, ProblemInstance, vote_share
from .verify import PackAndPairDecomposition, RegimeLabel, classify_regime, decompose_pack_and_pair

# Plateaus as in model's tolerance comment.
IPM_TOL = 1e-10        # relative primal and dual residuals at which stage 1 stops (plateau 1e-12..1e-4, largest tried)...
IPM_GAP = 1e-14        # ...once the complementarity sum x*z is also below this (plateau 1e-16..1e-12)
IPM_MAX_ITER = 200     # stage-1 Newton steps before LPSolveError (criterion 8's wide grid takes 128)
IPM_SHIFT = 1e-14      # normal-matrix diagonal shift, relative to each diagonal entry (plateau 1e-15..1e-13)
# Added to the row sums D1 and column sums D2 of the normal matrix.  Plateau
# 1e-12..1e-11, on tests/test_lp.py's stress instances: every uniform one and
# the wide grid solve, and all 60 random draws.  The uniform verdicts hold
# from 1e-16 to 1e-9, but below 1e-12 draw 28 fails, at 1e-10 draws 3 and 42,
# and at 0 the wide grid and 5 draws.
IPM_REG = 1e-12
IPM_ETA = 0.99995      # fraction of the step to the boundary that is taken

# Stage 2's HiGHS is held to the feasibility at which stage 1 stops.
# IPM_TOL's plateau was measured on stage 1 only, not on these two.
HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": IPM_TOL,
    "dual_feasibility_tolerance": IPM_TOL,
}


class LPSolveError(GerryOptError):
    """A stage of the LP solve failed; the message names the stage and the cause."""

    kind = "solver"


@dataclass(frozen=True)
class LinearProgram:
    """The grid LP on the instance's type grid."""

    inst: ProblemInstance
    mass: np.ndarray        # f(s), a mass at most SUPPORT_TOL (numerically zero) as 0
    win: np.ndarray         # G(r) per threshold column
    a: np.ndarray           # v(s, r) - 1/2 on the (type, threshold) grid


@dataclass(frozen=True)
class Solution:
    """The LP's optimal vertex pi(s, r) and the certificate of its optimality.

    lam[j] multiplies the threshold constraint at r_j, and phi[i], the voter
    value of type s_i, is the least value dual feasible given lam: phi(s) =
    max_r G(r) + lam(r)(v(s,r) - 1/2), the price-function dual of Dworczak &
    Martini (JPE 2019).  For any lam, U = sum f(s) phi(s) bounds every plan's
    value, so ``duality_gap``, |U - objective|, rests on lam alone.
    """

    lp: LinearProgram
    pi: np.ndarray          # on the (type, threshold) grid
    lam: np.ndarray
    phi: np.ndarray
    objective: float
    stats: dict  # iteration counts, final complementarity and face size

    def duality_gap(self) -> float:
        return float(abs(self.objective - self.lp.inst.type_weights @ self.phi))


def build_lp(inst: ProblemInstance) -> LinearProgram:
    """Evaluate G(r) and a = v - 1/2; the thresholds are the type grid."""
    s = r = inst.type_grid
    mass = np.where(inst.type_weights > SUPPORT_TOL, inst.type_weights, 0.0)
    a = vote_share(inst, s[:, None], r[None, :]) - 0.5
    return LinearProgram(inst, mass, np.asarray(inst.G(r), dtype=float), a)


def _columns(lp: LinearProgram, cells: np.ndarray) -> sparse.csr_matrix:
    """The equality columns of ``cells`` (flat (type, threshold) indices), in order.

    Cell (s, r) has 1 in type row s and v(s,r) - 1/2 in threshold row r; the
    type rows come first, then the threshold rows.
    """
    n_s, n_r = lp.a.shape
    type_of, thr_of = np.divmod(cells, n_r)
    k = np.arange(cells.size)
    rows = np.concatenate([type_of, n_s + thr_of])
    data = np.concatenate([np.ones(cells.size), lp.a.ravel()[cells]])
    return sparse.coo_matrix((data, (rows, np.concatenate([k, k]))), shape=(n_s + n_r, cells.size)).tocsr()


def _pi(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """The assignment pi of a primal point, checked for feasibility: its type
    rows, and the threshold rows of its columns above SUPPORT_TOL, hold within FEAS_TOL."""
    pi = np.where(x > 0, x, 0.0).reshape(lp.a.shape)
    row = float(np.max(np.abs(pi.sum(axis=1) - lp.inst.type_weights)))
    col_res = np.where(pi.sum(axis=0) > SUPPORT_TOL, (lp.a * pi).sum(axis=0), 0.0)
    col = float(np.max(np.abs(col_res)))
    if row > FEAS_TOL or col > FEAS_TOL:
        raise LPSolveError(f"assignment residuals row={row:.2e} col={col:.2e} > {FEAS_TOL:.1e}")
    return pi


def _schur_solver(a: np.ndarray, d: np.ndarray):
    """Solver of (A diag(d) A^T + IPM_REG) (u, w) = (p, q) through the Schur complement.

    ``a`` is v(s,r) - 1/2 and ``d`` the diagonal scaling, both on the (type,
    threshold) grid.  The n_r x n_r Schur complement D2 - B^T D1^-1 B is
    factorized once; each solve is then two triangular solves with it.
    Raises ``LinAlgError`` if the complement is not positive definite.
    """
    d1, b = d.sum(axis=1) + IPM_REG, d * a
    d2 = (b * a).sum(axis=0) + IPM_REG
    # scaled to the unit diagonal of A diag(d) A^T + IPM_REG and shifted by IPM_SHIFT
    sc = 1.0 / np.sqrt(d2)
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
def _newton(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Stage 1's Mehrotra predictor-corrector, which uses the LP's structure.

    Column (s, r) has two nonzeros, 1 in type row s and a = v(s,r) - 1/2 in
    threshold row r, so for a diagonal scaling d the normal matrix
    A diag(d) A^T is [[D1, B], [B^T, D2]] with D1 = row sums of d, B = d * a
    and D2 = column sums of d * a^2.  Each Newton step factorizes only the
    n_r x n_r Schur complement D2 - B^T D1^-1 B, and the predictor and the
    corrector share that factor.

    The cost is -(G(r) - 1/2) / k with k its largest magnitude on the grid,
    G - 1/2 taken from the taste's centred cdf, which keeps its digits at
    tiny gamma where G - 1/2 would cancel.  Every type row sums to f(s), so
    it has the optimal set of -G, and the residual tolerances see its
    informative part at any gamma (cost scaling: Gondzio, EJOR 218, 2012).

    Returns the final x and z on the (type, threshold) grid, the dual y of
    -G (type rows, then threshold rows) and the statistics.
    """
    a, f = lp.a, lp.mass
    n_s, n_r = a.shape
    adv = np.asarray(lp.inst.taste.centred(lp.inst.gamma * lp.inst.type_grid), dtype=float)
    scale = float(np.abs(adv).max())
    if scale == 0.0:  # G = 1/2 on the whole grid (gamma underflows): every cell is optimal at lambda = 0
        y = np.concatenate([np.full(n_s, -0.5), np.zeros(n_r)])
        return np.ones_like(a), np.zeros_like(a), y, {"stage1_iterations": 0, "stage1_complementarity": 0.0}
    c = np.broadcast_to(-adv / scale, a.shape)

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
            raise LPSolveError(f"stage 1: iteration limit {IPM_MAX_ITER} at sum x*z = {gap:.1e}")
        d = x / z
        solve = _schur_solver(a, d)

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
    y = np.concatenate([scale * ys - 0.5, scale * yr])  # the dual of the cost -G = k c - 1/2
    return x, z, y, {"stage1_iterations": it, "stage1_complementarity": gap}


def _stage1_ipm(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, dict]:
    """Stage 1: the dual y, the optimal face and the statistics.

    The face is the strictly complementary partition (Mehrotra & Ye 1993),
    each type row read by its share: the cells where x > z f(s).
    """
    try:
        x, z, y, stats = _newton(lp)
    except np.linalg.LinAlgError:
        raise LPSolveError("stage 1: Schur complement not positive definite") from None
    except FloatingPointError as exc:
        raise LPSolveError(f"stage 1: {exc}") from None
    return y, np.flatnonzero((x > z * lp.mass[:, None]).ravel()), stats


def _highs(lp: LinearProgram, cells: np.ndarray, c: np.ndarray, method: str, stage: str):
    """The one HiGHS call: min c.x over the columns of ``cells`` (flat
    (type, threshold) indices), subject to the LP's equality rows, x >= 0."""
    rhs = np.concatenate([lp.mass, np.zeros(lp.win.size)])
    res = linprog(c, A_eq=_columns(lp, cells), b_eq=rhs, bounds=(0, None), method=method, options=HIGHS_OPTIONS)
    if res.status != 0:
        raise LPSolveError(f"{stage}: HiGHS status {res.status}: {res.message}")
    return res


def _max_packed_on_face(lp: LinearProgram, face: np.ndarray) -> tuple[np.ndarray, dict]:
    """Stage 2: the vertex of maximum packed mass on the optimal face.

    Returns the primal point on the full (type, threshold) grid and the
    stage-2 statistics.  A failure names the type rows without a face cell.
    """
    # a packed cell puts type s in a district with threshold r = s
    type_of, thr_of = np.divmod(face, lp.win.size)
    try:
        res = _highs(lp, face, -(type_of == thr_of).astype(float), "highs-ds", "stage 2 (max packed on face)")
    except LPSolveError as exc:
        bare = np.flatnonzero(np.bincount(type_of, minlength=lp.win.size) == 0)
        rows = ", ".join(f"s={lp.inst.type_grid[i]:.6g} (f={lp.inst.type_weights[i]:.3g})" for i in bare)
        raise LPSolveError(f"{exc}; type rows without a face cell: {rows or 'none'}") from None
    x = np.zeros(lp.a.size)
    x[face] = res.x
    return x, {"face_cells": int(face.size), "stage2_iterations": int(res.nit)}


def solve_lp(lp: LinearProgram) -> Solution:
    """Solve stage 1 by the structured interior point, then return the vertex
    of maximum packed mass on the optimal face with its objective, stage 1's
    multipliers and the voter values they price."""
    y, face, stats = _stage1_ipm(lp)
    x, face_stats = _max_packed_on_face(lp, face)

    n_s = lp.inst.type_grid.size
    lam = y[n_s:]  # stage 1's dual rows y_s + y_r a <= -G(r) read phi >= G + lambda a, lambda = y_r
    phi = (lp.win + lam * lp.a).max(axis=1)
    stats.update(face_stats)
    return Solution(lp, _pi(lp, x), lam, phi, float(np.tile(lp.win, n_s) @ x), stats)


def extract_plan(lp: LinearProgram, pi: np.ndarray) -> Plan:
    """One district per active threshold column of ``pi``, weighted by column mass."""
    col_mass = pi.sum(axis=0)
    cols = np.flatnonzero(col_mass > SUPPORT_TOL)
    district, types = np.nonzero(pi[:, cols].T > SUPPORT_TOL)
    w = pi[types, cols[district]]
    # a 1-D sum per column and a left-to-right total fix the rounding of plan.json
    sums = np.array([part.sum() for part in np.split(w, np.cumsum(np.bincount(district))[:-1])])
    mass = col_mass[cols]
    return Plan(district, lp.inst.type_grid[types], w / sums[district], mass / sum(mass.tolist()))


def solve_and_classify(inst: ProblemInstance) -> tuple[Solution, PackAndPairDecomposition, RegimeLabel]:
    """Solve the instance's LP, then decompose and label its vertex."""
    sol = solve_lp(build_lp(inst))
    decomp = decompose_pack_and_pair(sol.lp, sol.pi)
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


def sweep_gamma(inst_template: ProblemInstance, gamma_list) -> list[SweepRow]:
    """Solve the LP for each gamma in turn; per-row failures do not stop the
    sweep.  Every gamma is checked before any solve."""
    tasks = [replace(inst_template, gamma=float(g)) for g in gamma_list]
    return list(map(_sweep_row, tasks))
