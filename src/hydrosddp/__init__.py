"""Risk-averse multistage hydrothermal dispatch toolkit.

Multicut SDDP with a nested CVaR objective, risk-adjusted forward
sampling for valid upper-bound estimation, and an exact full-tree
deterministic-equivalent oracle for validation at desk scale.
"""

from .engine import (
    BoundsEntry,
    BoundsLog,
    Cut,
    CutPool,
    EngineConfig,
    TrainedPolicy,
    backward_pass,
    evaluate_policy_exact,
    forward_pass,
    simulate_policy,
    train,
    upper_bound_estimate,
)
from .hydro import (
    Bus,
    Hydro,
    Line,
    Renewable,
    StageSolution,
    StateVector,
    SystemCase,
    Thermal,
    build_stage_lp,
    initial_state,
    solve_stage,
)
from .lp import LinearProgram, LPSolution, solve
from .risk import (
    RiskMeasure,
    WeightVector,
    cvar_oracle,
    rho,
    rho_lp,
    sampling_weights,
    var_oracle,
)
from .scenario import (
    Lattice,
    NoiseRealization,
    PathRecord,
    SamplerMode,
    sample_opening,
)
from .treelp import build_tree_lp, exact_cost_to_go, tree_objective

__version__ = "0.1.0"

__all__ = [
    "BoundsEntry", "BoundsLog", "Cut", "CutPool", "EngineConfig",
    "TrainedPolicy", "backward_pass", "evaluate_policy_exact",
    "forward_pass", "simulate_policy", "train", "upper_bound_estimate",
    "Bus", "Hydro", "Line", "Renewable", "StageSolution", "StateVector",
    "SystemCase", "Thermal", "build_stage_lp", "initial_state",
    "solve_stage",
    "LinearProgram", "LPSolution", "solve",
    "RiskMeasure", "WeightVector", "cvar_oracle", "rho", "rho_lp",
    "sampling_weights", "var_oracle",
    "Lattice", "NoiseRealization", "PathRecord", "SamplerMode",
    "sample_opening",
    "build_tree_lp", "exact_cost_to_go", "tree_objective",
]
