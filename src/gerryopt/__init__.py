"""Optimal partisan districting under uncertainty.

Solve the designer's districting problem as a linear program, verify the
structure of optimal plans (single-dipped, pack-and-pair, regime taxonomy,
dual certificates), evaluate closed-form benchmark plans, and estimate the
aggregate-uncertainty ratio gamma from precinct-level election returns.
"""

from .model import (
    GerryOptError,
    ConvergenceError,
    InfeasiblePlanError,
    TasteDistribution,
    NORMAL,
    LOGISTIC,
    get_taste,
    ProblemInstance,
    uniform_instance,
    vote_share,
    district_threshold,
    Plan,
    uniform_plan,
    segregation_plan,
    check_feasibility,
    expected_seat_share,
    check_assumption1,
)
from .lp import build_lp, solve_lp, solve_and_classify, extract_plan, sweep_gamma, LPSolution
from .verify import (
    RegimeLabel,
    check_single_dipped,
    decompose_pack_and_pair,
    classify_regime,
    check_dual_support_optimality,
    check_pap_condition,
    y_necessary_conditions,
    check_seg_nad_conditions,
)
from .benchmarks import (
    perfect_info_value,
    no_aggregate_solution,
    no_idiosyncratic_value,
    matching_slices_plan,
    pop_pool_plan,
    traditional_pc_plan,
    optimize_cutoff,
    linear_pop_foc,
    check_linearity,
)
from .estimation import (
    PrecinctRecord,
    Returns,
    ingest,
    probit_transform,
    estimate_gamma,
    estimate_F_moments,
    simulate_returns,
    descriptive_summaries,
)

__version__ = "0.1.0"
