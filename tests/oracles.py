"""Independent reference computations the tests check the package against.

The risk oracles evaluate VaR, CVaR and the composite measure by sorting
and scanning, and by the measure's linear program; ``exact_cost_to_go``
solves the subtree LP rooted at one node; ``write_case`` writes a case
file with optional risk and engine blocks.
"""

import json
from typing import Optional

import numpy as np

from hydrosddp.caseio import case_to_dict
from hydrosddp.hydro import StateVector, SystemCase
from hydrosddp.lp import GREATER, OPTIMAL, LinearProgram, solve
from hydrosddp.risk import RiskMeasure, _atoms, quantile_position
from hydrosddp.scenario import Lattice
from hydrosddp.treelp import NODE_CAP, build_subtree_lp


def var_oracle(values, alpha: float) -> float:
    """Smallest atom whose empirical CDF reaches alpha."""
    v = _atoms(values)
    return float(np.sort(v, kind="stable")[quantile_position(alpha, v.size) - 1])


def cvar_oracle(values, alpha: float) -> float:
    """Exact CVaR by scanning the anchor b over the support.

    The minimized objective b + E[(Y-b)^+]/(1-alpha) attains its minimum
    at an atom, so the scan is exact rather than approximate.
    """
    v = _atoms(values)
    excess = np.maximum(v[None, :] - v[:, None], 0.0).mean(axis=1)
    return float((v + excess / (1.0 - alpha)).min())


def rho(values, measure: RiskMeasure) -> float:
    """Composite measure: (1-lam)*mean + lam*CVaR_alpha."""
    v = _atoms(values)
    if measure.lam == 0.0:
        return float(v.mean())
    return float((1.0 - measure.lam) * v.mean()
                 + measure.lam * cvar_oracle(v, measure.alpha))


def rho_lp(values, measure: RiskMeasure):
    """Composite measure via its linear program; returns (value, z, deltas).

    Decision variables are the anchor z and per-atom excesses delta_l;
    the expectation term is constant and added outside the solve.
    """
    v = _atoms(values)
    n = v.size
    lam, alpha = measure.lam, measure.alpha
    cost = np.empty(n + 1)
    cost[0] = lam
    cost[1:] = lam / ((1.0 - alpha) * n)
    lower = np.zeros(n + 1)
    lower[0] = -np.inf
    upper = np.full(n + 1, np.inf)
    rows = np.hstack([np.ones((n, 1)), np.eye(n)])  # z + delta_l >= y_l
    sol = solve(LinearProgram(cost, lower, upper, rows, [GREATER] * n, v))
    if sol.status != OPTIMAL:  # pragma: no cover - always feasible/bounded
        raise ArithmeticError(f"risk LP ended {sol.status}")
    value = (1.0 - lam) * float(v.mean()) + sol.objective
    return value, float(sol.primal[0]), sol.primal[1:].copy()


def exact_cost_to_go(case: SystemCase, lattice: Lattice, measure: RiskMeasure,
                     t: int, state: StateVector, opening: Optional[int] = None,
                     cap: int = NODE_CAP) -> float:
    """Exact Q_t(state, opening): optimum of the subtree LP rooted there."""
    sol = solve(build_subtree_lp(case, lattice, measure, t, state,
                                 opening, cap))
    if sol.status != OPTIMAL:
        raise RuntimeError(f"subtree LP ended {sol.status}")
    return sol.objective


def write_case(path, system, lattice, risk=None, engine=None):
    """Write a case file; ``risk`` and ``engine`` add those blocks."""
    doc = case_to_dict(system, lattice)
    if risk is not None:
        doc["risk"] = {"lambda": risk.lam, "alpha": risk.alpha}
    if engine:
        doc["engine"] = dict(engine)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
