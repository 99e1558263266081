"""Exact oracle: one monolithic LP over the expanded scenario tree.

Every node carries its own dispatch block, stamped by the same
``hydro.dispatch_columns`` / ``dispatch_rows`` as the single-stage
subproblem and linked to the parent through storage variables and
ancestor inflows; every internal node carries a risk block with an
anchor z, per-child excesses delta, and per-child value variables theta
tied by equality to the child's immediate cost plus the child's own risk
term. The root objective is its immediate cost plus its risk term, which
makes the LP optimum the exact nested risk-adjusted cost.

This is the reference the SDDP engine is validated against: cut
validity, converged lower bounds, and exact policy values all compare
to numbers produced here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .hydro import (
    StateVector,
    SystemCase,
    check_state,
    dispatch_columns,
    dispatch_cost,
    dispatch_rows,
    initial_state,
)
from .lp import EQUAL, GREATER, OPTIMAL, LPBuilder, solve
from .risk import RiskMeasure
from .scenario import Lattice, TreeTooLarge

NODE_CAP = 10_000


@dataclass
class TreeNode:
    stage: int
    opening: Optional[int]          # 0-based; None at a deterministic root
    parent: Optional[int]           # index into the node list
    children: list = field(default_factory=list)


def expand_tree(lattice: Lattice, root_stage: int, cap: int = NODE_CAP):
    """Breadth-first node list of the subtree rooted at `root_stage`."""
    depth = lattice.num_stages - root_stage
    L = lattice.num_openings
    count = sum(L ** d for d in range(depth + 1))
    if count > cap:
        raise TreeTooLarge(f"{count} tree nodes exceed the cap of {cap}")
    nodes = [TreeNode(root_stage, None, None)]
    frontier = [0]
    for stage in range(root_stage + 1, lattice.num_stages + 1):
        next_frontier = []
        for parent in frontier:
            for l in range(L):
                nodes.append(TreeNode(stage, l, parent))
                nodes[parent].children.append(len(nodes) - 1)
                next_frontier.append(len(nodes) - 1)
        frontier = next_frontier
    return nodes


def build_subtree_lp(case: SystemCase, lattice: Lattice, measure: RiskMeasure,
                     root_stage: int, root_state: StateVector,
                     root_opening: Optional[int] = None,
                     cap: int = NODE_CAP):
    """LP whose optimum is the exact cost-to-go from (root_stage, opening)
    with the incoming state fixed to `root_state`."""
    check_state(case, root_state)
    nodes = expand_tree(lattice, root_stage, cap)
    L = lattice.num_openings
    lam, alpha = measure.lam, measure.alpha
    bld = LPBuilder()

    cols, ancestors = [], []
    theta, delta, zvar = {}, {}, {}

    for n, node in enumerate(nodes):
        noise = (lattice.stage_noise(node.stage, root_opening) if n == 0
                 else lattice.noise(node.stage, node.opening))
        cols.append(dispatch_columns(bld, case, noise))
        if node.children:
            for l in range(L):
                theta[(n, l)] = bld.add_var(-np.inf, np.inf)
                delta[(n, l)] = bld.add_var(0.0, np.inf)
            zvar[n] = bld.add_var(-np.inf, np.inf)

        # Storage comes from the parent; lag k of a node is the inflow of
        # its k-th ancestor inside the subtree, or a fixed lag of the root
        # state beyond it.
        ancestors.append([] if node.parent is None
                         else [node.parent] + ancestors[node.parent])
        up = [cols[a] for a in ancestors[n]]
        storage_in = [up[0]["vout", h.name] if up else root_state.storages[j]
                      for j, h in enumerate(case.hydros)]
        lags_in = [[c["a", h.name] for c in up] + list(root_state.lags[j])
                   for j, h in enumerate(case.hydros)]
        dispatch_rows(bld, case, cols[n], node.stage, noise, storage_in,
                      lags_in)

    def risk_terms(n):
        if not nodes[n].children:
            return []
        terms = [(theta[(n, l)], (1.0 - lam) / L) for l in range(L)]
        terms.append((zvar[n], lam))
        terms += [(delta[(n, l)], lam / ((1.0 - alpha) * L)) for l in range(L)]
        return terms

    for n, node in enumerate(nodes):
        if not node.children:
            continue
        for l, child in enumerate(node.children):
            # theta_{n,l} = immediate cost of child + child risk term
            terms = [(theta[(n, l)], 1.0)]
            terms += [(col, -coef) for col, coef
                      in dispatch_cost(case, cols[child])]
            terms += [(col, -coef) for col, coef in risk_terms(child)]
            bld.add_row(terms, EQUAL, 0.0)
            bld.add_row([(delta[(n, l)], 1.0), (theta[(n, l)], -1.0),
                         (zvar[n], 1.0)], GREATER, 0.0)

    for col, coef in dispatch_cost(case, cols[0]) + risk_terms(0):
        bld.set_cost(col, coef)
    return bld.build()


def build_tree_lp(case: SystemCase, lattice: Lattice, measure: RiskMeasure,
                  cap: int = NODE_CAP):
    """Deterministic-equivalent LP of the whole problem."""
    return build_subtree_lp(case, lattice, measure, 1, initial_state(case),
                            None, cap)


def tree_objective(case: SystemCase, lattice: Lattice, measure: RiskMeasure,
                   cap: int = NODE_CAP) -> float:
    """Exact optimal nested risk-adjusted cost."""
    sol = solve(build_tree_lp(case, lattice, measure, cap))
    if sol.status != OPTIMAL:
        raise RuntimeError(f"tree LP ended {sol.status}")
    return sol.objective

