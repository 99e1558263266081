"""Risk-averse multistage hydrothermal dispatch toolkit.

Multicut SDDP with a nested CVaR objective, risk-adjusted forward
sampling for valid upper-bound estimation, and an exact full-tree
deterministic-equivalent oracle for validation at desk scale.
"""

from .engine import (
    BoundsEntry,
    Cut,
    CutPool,
    EngineConfig,
    StageMemo,
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
    StageTemplate,
    SystemCase,
    Thermal,
    build_stage_lp,
    initial_state,
    solve_stage,
)
from .lp import LinearProgram, LPSolution, solve
from .risk import RiskMeasure, WeightVector, sampling_weights
from .scenario import (
    Lattice,
    NoiseRealization,
    PathRecord,
    SamplerMode,
    sample_opening,
)
from .treelp import build_tree_lp, tree_objective

__version__ = "0.1.0"

__all__ = [
    "BoundsEntry", "Cut", "CutPool", "EngineConfig",
    "StageMemo", "TrainedPolicy", "backward_pass", "evaluate_policy_exact",
    "forward_pass", "simulate_policy", "train", "upper_bound_estimate",
    "Bus", "Hydro", "Line", "Renewable", "StageSolution", "StageTemplate",
    "SystemCase", "Thermal", "build_stage_lp",
    "initial_state", "solve_stage",
    "LinearProgram", "LPSolution", "solve",
    "RiskMeasure", "WeightVector", "sampling_weights",
    "Lattice", "NoiseRealization", "PathRecord", "SamplerMode",
    "sample_opening",
    "build_tree_lp", "tree_objective",
]
