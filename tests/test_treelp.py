"""Deterministic-equivalent tree LP against closed forms and fresh oracles."""

import dataclasses

import numpy as np
import pytest

from casegen import in_bounds_state, random_case, thermal_only_case
from hydrosddp import engine
from hydrosddp.engine import EngineConfig, evaluate_policy_exact, train
from hydrosddp.hydro import (
    Bus,
    DimensionMismatch,
    StageTemplate,
    SystemCase,
    Thermal,
    initial_state,
    solve_stage,
)
from hydrosddp.lp import EQUAL, OPTIMAL, LPBuilder, solve
from hydrosddp.risk import RiskMeasure
from hydrosddp.scenario import Lattice, NoiseRealization, TreeTooLarge
from hydrosddp.treelp import build_tree_lp, expand_tree, tree_objective
from oracles import exact_cost_to_go, highs_tree_objective

NEUTRAL = RiskMeasure(lam=0.0, alpha=0.0)


def two_stage_demand_case(demands=(1.0, 3.0), root_demand=0.0, cost=1.0):
    """Stage-2 demand is the only stochastic element."""
    case = SystemCase(
        buses=(Bus("b1", (root_demand, max(demands) + 1)),),
        thermals=(Thermal("t1", "b1", cost, max(demands) + 5),),
        deficit_cost=10 * cost)
    lattice = Lattice(2, len(demands), NoiseRealization(),
                      [[NoiseRealization(demand={"b1": d}) for d in demands]])
    return case, lattice


def expected_value_tree_objective(case, lattice):
    """Independent risk-neutral oracle: probability-weighted tree LP with
    no risk block, built from scratch."""
    nodes = expand_tree(lattice, 1)
    L = lattice.num_openings
    bld = LPBuilder()
    g, deficit, u, spill, vout, inflow = {}, {}, {}, {}, {}, {}
    ren, ship = {}, {}
    for n, node in enumerate(nodes):
        depth = node.stage - 1
        prob = (1.0 / L) ** depth
        noise = lattice.stage_noise(node.stage, node.opening)
        for th in case.thermals:
            g[(n, th.name)] = bld.add_var(0.0, th.cap, prob * th.cost)
        for re in case.renewables:
            ren[(n, re.name)] = bld.add_var(0.0, noise.renewable_cap[re.name])
        # ship[(n, i, a, z)]: power sent over line i from bus a to bus z
        for i, line in enumerate(case.lines):
            for a, z in ((line.from_bus, line.to_bus),
                         (line.to_bus, line.from_bus)):
                ship[(n, i, a, z)] = bld.add_var(0.0, line.capacity)
        for b in case.buses:
            deficit[(n, b.name)] = bld.add_var(0.0, np.inf,
                                               prob * case.deficit_cost)
        for h in case.hydros:
            u[(n, h.name)] = bld.add_var(0.0, h.max_turbine)
            spill[(n, h.name)] = bld.add_var(0.0, np.inf)
            vout[(n, h.name)] = bld.add_var(0.0, h.max_storage)
            inflow[(n, h.name)] = bld.add_var(-np.inf, np.inf)
        for b in case.buses:
            demand = noise.demand.get(b.name, b.demand[node.stage - 1])
            terms = [(deficit[(n, b.name)], 1.0)]
            terms += [(g[(n, th.name)], 1.0) for th in case.thermals
                      if th.bus == b.name]
            terms += [(u[(n, h.name)], h.production) for h in case.hydros
                      if h.bus == b.name]
            terms += [(ren[(n, re.name)], 1.0) for re in case.renewables
                      if re.bus == b.name]
            for i, line in enumerate(case.lines):
                for a, z in ((line.from_bus, line.to_bus),
                             (line.to_bus, line.from_bus)):
                    if z == b.name:
                        terms.append((ship[(n, i, a, z)], 1.0))
                    elif a == b.name:
                        terms.append((ship[(n, i, a, z)], -1.0))
            bld.add_row(terms, EQUAL, float(demand))
        for j, h in enumerate(case.hydros):
            terms = [(vout[(n, h.name)], 1.0), (u[(n, h.name)], 1.0),
                     (spill[(n, h.name)], 1.0), (inflow[(n, h.name)], -1.0)]
            terms += [(u[(n, up)], -1.0) for up in h.upstream]
            terms += [(spill[(n, up)], -1.0) for up in h.upstream]
            rhs = float(initial_state(case).storages[j]) if node.parent is None else 0.0
            if node.parent is not None:
                terms.append((vout[(node.parent, h.name)], -1.0))
            bld.add_row(terms, EQUAL, rhs)
            ar_terms = [(inflow[(n, h.name)], 1.0)]
            rhs = float(noise.inflow_noise[h.name])
            for k, coef in enumerate(h.ar_coeffs, start=1):
                if node.stage - k >= 1:
                    anc = n
                    for _ in range(k):
                        anc = nodes[anc].parent
                    ar_terms.append((inflow[(anc, h.name)], -coef))
                else:
                    rhs += coef * float(initial_state(case).lags[j][k - node.stage])
            bld.add_row(ar_terms, EQUAL, rhs)
    sol = solve(bld.build())
    assert sol.status == OPTIMAL
    return sol.objective


def test_single_stage_tree_equals_stage_lp():
    case, lattice = thermal_only_case(demand=10, cost=2, cap=15)
    stage = solve_stage(StageTemplate(case, lattice, 1, None, NEUTRAL),
                        initial_state(case), lattice.stage1)
    assert tree_objective(case, lattice, NEUTRAL) == pytest.approx(
        stage.objective, abs=1e-8)


def test_pure_cvar_two_stage_closed_form():
    case, lattice = two_stage_demand_case()
    worst = tree_objective(case, lattice, RiskMeasure(lam=1.0, alpha=0.5))
    assert worst == pytest.approx(3.0, abs=1e-8)
    neutral = tree_objective(case, lattice, NEUTRAL)
    assert neutral == pytest.approx(2.0, abs=1e-8)
    blend = tree_objective(case, lattice, RiskMeasure(lam=0.5, alpha=0.5))
    assert blend == pytest.approx(2.5, abs=1e-8)


def test_risk_neutral_matches_probability_weighted_oracle():
    rng = np.random.default_rng(71)
    for _ in range(6):
        case, lattice = random_case(rng, T=3, L=2)
        ours = tree_objective(case, lattice, NEUTRAL)
        oracle = expected_value_tree_objective(case, lattice)
        assert ours == pytest.approx(oracle, abs=1e-7)
    for _ in range(4):
        case, lattice = random_case(rng, T=3, L=2, two_bus=True,
                                    with_renewable=True)
        ours = tree_objective(case, lattice, NEUTRAL)
        oracle = expected_value_tree_objective(case, lattice)
        assert ours == pytest.approx(oracle, abs=1e-7)
    # also with any alpha: lam=0 must ignore it
    case, lattice = random_case(rng, T=3, L=3)
    a = tree_objective(case, lattice, RiskMeasure(lam=0.0, alpha=0.8))
    assert a == pytest.approx(expected_value_tree_objective(case, lattice),
                              abs=1e-7)


def test_self_consistency_root_cost_to_go():
    rng = np.random.default_rng(72)
    case, lattice = random_case(rng, T=3, L=2)
    m = RiskMeasure(lam=0.5, alpha=0.5)
    whole = tree_objective(case, lattice, m)
    rooted = exact_cost_to_go(case, lattice, m, 1, initial_state(case))
    assert whole == pytest.approx(rooted, abs=1e-8)


def test_terminal_cost_to_go_equals_stage_solve():
    rng = np.random.default_rng(73)
    case, lattice = random_case(rng, T=3, L=2)
    T, L = lattice.num_stages, lattice.num_openings
    for l in range(L):
        state = in_bounds_state(rng, case)
        direct = solve_stage(StageTemplate(case, lattice, T, None, NEUTRAL),
                             state, lattice.noise(T, l)).objective
        oracle = exact_cost_to_go(case, lattice, NEUTRAL, T, state, l)
        assert oracle == pytest.approx(direct, abs=1e-8)


def test_fuller_reservoir_never_costs_more():
    rng = np.random.default_rng(74)
    case, lattice = random_case(rng, T=3, L=2, n_hydro=1)
    m = RiskMeasure(lam=0.6, alpha=0.4)
    state = in_bounds_state(rng, case)
    state.storages[0] = 0.0
    empty = exact_cost_to_go(case, lattice, m, 2, state, 0)
    state.storages[0] = case.hydros[0].max_storage
    full = exact_cost_to_go(case, lattice, m, 2, state, 0)
    assert full <= empty + 1e-8


def test_risk_aversion_never_cheapens_the_tree():
    rng = np.random.default_rng(75)
    for _ in range(4):
        case, lattice = random_case(rng, T=3, L=2)
        prev = -np.inf
        for lam in (0.0, 0.3, 0.7, 1.0):
            val = tree_objective(case, lattice, RiskMeasure(lam=lam, alpha=0.5))
            assert val >= prev - 1e-8
            prev = val


def test_missing_renewable_cap_is_dimension_mismatch():
    rng = np.random.default_rng(76)
    case, lattice = random_case(rng, T=2, L=2, with_renewable=True)
    bare = NoiseRealization(inflow_noise=lattice.noise(2, 1).inflow_noise)
    short = Lattice(2, 2, lattice.stage1, [[lattice.noise(2, 0), bare]])
    with pytest.raises(DimensionMismatch, match="w1"):
        build_tree_lp(case, short, NEUTRAL)


def test_node_cap_enforced():
    case, lattice = thermal_only_case(demand=1, cost=1, cap=2, T=12)
    # L=1 keeps it tiny, so force the cap instead
    with pytest.raises(TreeTooLarge):
        build_tree_lp(case, lattice, NEUTRAL, cap=5)


# Metamorphic properties of the tree optimum on casegen cases. A case
# whose hydros cover all demand has an optimum of 0, hence the absolute
# floor.
METAMORPHIC = dict(rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_tree_objective_ignores_opening_order(seed):
    rng = np.random.default_rng(seed)
    case, lattice = random_case(rng, T=3, L=3)
    measure = RiskMeasure(lam=0.5, alpha=0.5)
    shuffled = Lattice(lattice.num_stages, lattice.num_openings,
                       lattice.stage1,
                       [[stage[i] for i in rng.permutation(len(stage))]
                        for stage in lattice.openings])
    assert tree_objective(case, shuffled, measure) == pytest.approx(
        tree_objective(case, lattice, measure), **METAMORPHIC)


@pytest.mark.parametrize("seed", range(8))
def test_tree_objective_scales_with_costs(seed):
    case, lattice = random_case(np.random.default_rng(seed), T=3, L=3)
    measure = RiskMeasure(lam=0.5, alpha=0.5)
    S = 3.0
    scaled = dataclasses.replace(
        case, deficit_cost=S * case.deficit_cost,
        thermals=tuple(dataclasses.replace(th, cost=S * th.cost)
                       for th in case.thermals))
    assert tree_objective(scaled, lattice, measure) == pytest.approx(
        S * tree_objective(case, lattice, measure), **METAMORPHIC)
    # Training scales too, iteration by iteration. Degenerate stage LPs
    # may pivot differently, so only the bounds are compared.
    cfg = EngineConfig(max_iterations=8, min_iterations=8, batch_size=2,
                       seed=7, measure=measure)
    base = train(case, lattice, cfg).bounds
    bounds = train(scaled, lattice, cfg).bounds
    assert len(bounds) == len(base) == 8
    for got, want in zip(bounds, base):
        assert got.lower_bound == pytest.approx(S * want.lower_bound,
                                                **METAMORPHIC)
        assert got.ub_mean == pytest.approx(S * want.ub_mean, **METAMORPHIC)


def test_small_mid_case_bounds_bracket_the_highs_optimum(monkeypatch):
    # 1,365 nodes: the tree LP has 16,378 rows and 71,294 nonzeros, which
    # a dense m×n matrix would hold in 4.7 GB.
    case, lattice = random_case(np.random.default_rng(3), 6, 4, n_hydro=4,
                                n_thermal=4, max_lag=1, two_bus=True)
    blend = RiskMeasure(lam=0.5, alpha=0.5)
    optimum = highs_tree_objective(case, lattice, blend)
    tol = 1e-9 * abs(optimum)

    # The policy after 6 iterations is the pool as the 6th backward
    # pass leaves it: with min_iterations at 10, no earlier iteration
    # stops training.
    exact, passes = {}, []
    backward_pass = engine.backward_pass

    def backward_and_evaluate(memo, paths):
        added = backward_pass(memo, paths)
        passes.append(added)
        if len(passes) == 6:
            exact[6] = evaluate_policy_exact(case, lattice, memo.cuts, blend)
        return added

    monkeypatch.setattr(engine, "backward_pass", backward_and_evaluate)
    policy = train(case, lattice, EngineConfig(
        max_iterations=10, min_iterations=10, batch_size=4, seed=7,
        measure=blend))
    monkeypatch.undo()
    exact[10] = evaluate_policy_exact(case, lattice, policy.cuts, blend)

    assert len(policy.bounds) == 10
    assert all(b.lower_bound <= optimum + tol for b in policy.bounds)
    assert policy.bounds[-1].lower_bound > 0.99 * optimum
    assert sorted(exact) == [6, 10]
    assert all(value >= optimum - tol for value in exact.values())
