"""Exact oracle: one monolithic LP over the expanded scenario tree.

Every node carries its own dispatch block, stamped by the same
``hydro.dispatch_columns`` / ``dispatch_rows`` as the single-stage
subproblem and linked to the parent through the parent's outgoing state,
which ``hydro.outgoing_state`` gives as it gives a stage LP's; every
internal node carries a risk block with an anchor z, per-child excesses
delta, and per-child value variables theta tied by equality to the
child's immediate cost plus the child's own risk term. The root
objective is its immediate cost plus its risk term, which makes the LP
optimum the exact nested risk-adjusted cost.

This is the reference the SDDP engine is validated against: cut
validity, converged lower bounds, and exact policy values all compare
to numbers produced here. ``tree_objective`` solves the program
presolved: each node's AR row pins its free inflow column to data, so
``LinearProgram.presolved`` fixes those columns and drops those rows,
about 30% of a tree's. ``build_tree_lp`` itself stays whole, so an
independent solver of the built program checks the presolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .hydro import (
    StageInfeasible,
    SystemCase,
    check_state,
    dispatch_columns,
    dispatch_cost,
    dispatch_rows,
    initial_state,
    outgoing_state,
    read_noise,
    split_state,
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
    """Breadth-first node list of the subtree rooted at `root_stage`:
    node k > 0 is opening (k - 1) % L below node (k - 1) // L."""
    depth = lattice.num_stages - root_stage
    L = lattice.num_openings
    count = sum(L ** d for d in range(depth + 1))
    if count > cap:
        raise TreeTooLarge(f"{count} tree nodes exceed the cap of {cap}")
    nodes = [TreeNode(root_stage, None, None)]
    for k in range(1, count):
        parent = (k - 1) // L
        nodes.append(TreeNode(nodes[parent].stage + 1, (k - 1) % L, parent))
        nodes[parent].children.append(k)
    return nodes


def build_subtree_lp(case: SystemCase, lattice: Lattice, measure: RiskMeasure,
                     root_stage: int, root_state: np.ndarray,
                     root_opening: Optional[int] = None,
                     cap: int = NODE_CAP):
    """LP whose optimum is the exact cost-to-go from (root_stage, opening)
    with the incoming state fixed to `root_state`."""
    root_state = check_state(case, root_state)
    nodes = expand_tree(lattice, root_stage, cap)
    L = lattice.num_openings
    mean, tail = measure.atom_weights(L)
    bld = LPBuilder()

    cols, state_in = [], []
    theta, delta, zvar = {}, {}, {}

    for n, node in enumerate(nodes):
        noise = (lattice.stage_noise(node.stage, root_opening) if n == 0
                 else lattice.noise(node.stage, node.opening))
        demand, inflow, caps = read_noise(case, node.stage, noise)
        cols.append(dispatch_columns(bld, case, caps))
        if node.children:
            for l in range(L):
                theta[(n, l)] = bld.add_var(-np.inf, np.inf)
                delta[(n, l)] = bld.add_var(0.0, np.inf)
            zvar[n] = bld.add_var(-np.inf, np.inf)

        # A node's incoming state is its parent's outgoing one: columns,
        # and fixed values of the root state.
        state_in.append(root_state if n == 0 else
                        outgoing_state(case, cols[node.parent],
                                       state_in[node.parent]))
        dispatch_rows(bld, case, cols[n], demand, inflow,
                      *split_state(case, state_in[n]))

    def risk_terms(n):
        if not nodes[n].children:
            return []
        terms = [(theta[(n, l)], mean) for l in range(L)]
        terms.append((zvar[n], measure.lam))
        terms += [(delta[(n, l)], tail) for l in range(L)]
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


def tree_objective(case: SystemCase, lattice: Lattice,
                   measure: RiskMeasure) -> float:
    """Exact optimal nested risk-adjusted cost, over at most ``NODE_CAP``
    tree nodes: the optimum of ``build_tree_lp``, solved without the
    inflow rows that ``presolved`` substitutes out."""
    sol = solve(build_tree_lp(case, lattice, measure).presolved())
    if sol.status != OPTIMAL:
        raise StageInfeasible(f"tree LP ended {sol.status}")
    return sol.objective

