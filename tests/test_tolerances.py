"""Plateaus of the tolerances that shape a verdict.

Each constant is scaled to 0.1x and 10x in every ``gerryopt`` module that
binds it (``from .model import SUPPORT_TOL`` makes a second binding), and the
verdicts of the seat-share figure's instances must not move: regime label,
bifurcation point, objective (to 1e-12), district counts and the single-dipped
verdict.  Only the constants that stage 1 reads need a new solve; SUPPORT_TOL
is one, since stage 1 solves for the masses above it, and it acts after stage
1 too.  The threshold root finder's step stop acts on the benchmark command
instead: on the same instances, both tastes, its cutoffs must not move and its
values not by more than 1e-12.
"""

import sys

import numpy as np
import pytest
from test_acceptance import FIG_GAMMAS

from gerryopt import benchmarks as B
from gerryopt import lp as L
from gerryopt import model as M
from gerryopt import verify as V

CASES = [(101, g) for g in FIG_GAMMAS] + [(201, g) for g in (2.0, 6.0, 10.0, 30.0)]
RESOLVE = ("SUPPORT_TOL", "IPM_TOL", "IPM_GAP", "IPM_SHIFT", "IPM_REG")


def _solve_all():
    return {(n, g): L.solve_lp(L.build_lp(M.uniform_instance(n=n, gamma=g))) for n, g in CASES}


def _verdicts(sols):
    """Per case: the objective, and the tuple of verdicts compared exactly."""
    out = {}
    for key, sol in sols.items():
        decomp = V.decompose_pack_and_pair(sol.lp, sol.pi)
        single_dipped = V.check_single_dipped(sol.lp, sol.pi)
        out[key] = sol.objective, (
            V.classify_regime(decomp),
            decomp.bifurcation,
            decomp.districts.mass.size,
            L.extract_plan(sol.lp, sol.pi).mass.size,
            not single_dipped,
        )
    return out


@pytest.fixture(scope="module")
def baseline():
    sols = _solve_all()
    return sols, _verdicts(sols)


@pytest.mark.parametrize("scale", [0.1, 10.0])
@pytest.mark.parametrize("name", ["SPLIT_FRAC", *RESOLVE])
def test_verdicts_hold_across_the_tolerance_plateau(monkeypatch, baseline, name, scale):
    sols, want = baseline
    modules = [mod for key, mod in sys.modules.items() if key.partition(".")[0] == "gerryopt" and hasattr(mod, name)]
    assert modules
    for mod in modules:
        monkeypatch.setattr(mod, name, getattr(mod, name) * scale)
    got = _verdicts(_solve_all() if name in RESOLVE else sols)
    for key in CASES:
        assert got[key][1] == want[key][1], key
        assert abs(got[key][0] - want[key][0]) <= 1e-12, key


def test_residuals_keep_a_tenfold_margin_to_their_bounds(monkeypatch, baseline):
    sols, _ = baseline
    # the row and threshold residuals of lp._pi's check, at a tenth of FEAS_TOL
    monkeypatch.setattr(L, "FEAS_TOL", 0.1 * M.FEAS_TOL)
    for n, g in CASES:
        sol = sols[n, g]
        L._pi(sol.lp, sol.pi.ravel())
        assert V.refine_assignment(sol.lp, sol.pi).leftover <= 0.1 * M.FEAS_TOL
        assert sol.duality_gap() <= 0.1 * V.DUAL_TOL
        assert V.check_dual_support_optimality(sol).worst_slack <= 0.1 * V.DUAL_TOL


def _benchmarks():
    """Per case and taste: the optimized cutoffs, and the benchmark values."""
    out = {}
    for taste in (M.NORMAL, M.LOGISTIC):
        for n, g in CASES:
            inst = M.uniform_instance(n=n, gamma=g, taste=taste)
            pop = B.optimize_cutoff(inst, B.pop_pool_plan)
            pc = B.optimize_cutoff(inst, B.traditional_pc_plan)
            slices = M.expected_seat_share(inst, B.matching_slices_plan(inst))
            out[taste.name, n, g] = (pop.cutoff, pc.cutoff), np.array([pop.value, pc.value, slices])
    return out


@pytest.mark.parametrize("scale", [0.1, 10.0])
def test_benchmarks_hold_across_the_root_step_plateau(monkeypatch, scale):
    want = _benchmarks()
    monkeypatch.setattr(M, "ROOT_STEP_ABS", M.ROOT_STEP_ABS * scale)
    got = _benchmarks()
    for key, (cutoffs, values) in want.items():
        assert got[key][0] == cutoffs, key
        assert np.abs(got[key][1] - values).max() <= 1e-12, key
