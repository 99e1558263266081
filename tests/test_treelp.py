"""Deterministic-equivalent tree LP against closed forms and fresh oracles."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from casegen import in_bounds_state, random_case, thermal_only_case
from hydrosddp import engine, treelp
from hydrosddp.caseio import parse_case
from hydrosddp.engine import EngineConfig, evaluate_policy_exact, train
from hydrosddp.hydro import (
    Bus,
    DimensionMismatch,
    StageTemplate,
    SystemCase,
    Thermal,
    initial_state,
    read_noise,
    solve_stage,
)
from hydrosddp.lp import (
    _SPARSE_ROWS,
    EQUAL,
    GREATER,
    LESS,
    OPTIMAL,
    TOL_FEAS,
    LPBuilder,
    solve,
)
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
            rhs = float(h.initial_storage) if node.parent is None else 0.0
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
                    rhs += coef * float(h.initial_lags[k - node.stage])
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
    state[0] = 0.0
    empty = exact_cost_to_go(case, lattice, m, 2, state, 0)
    state[0] = case.hydros[0].max_storage
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
    with pytest.raises(DimensionMismatch, match=re.escape(
            "renewable_caps: missing renewable(s) ['w1']")):
        build_tree_lp(case, short, NEUTRAL)
    # So is a case built through the API whose demand stops short of the
    # lattice.
    bus = case.buses[0]
    cut = dataclasses.replace(case, buses=(
        dataclasses.replace(bus, demand=bus.demand[:1]), *case.buses[1:]))
    with pytest.raises(DimensionMismatch, match=re.escape(
            "buses[0].demand: no value for stage 2")):
        tree_objective(cut, lattice, NEUTRAL)


def test_node_cap_enforced():
    case, lattice = thermal_only_case(demand=1, cost=1, cap=2, T=12)
    # L=1 keeps it tiny, so force the cap instead
    with pytest.raises(TreeTooLarge):
        build_tree_lp(case, lattice, NEUTRAL, cap=5)


# Each case has a hydro with three lags.
@pytest.mark.parametrize("seed, T", [(404, 5), (405, 5), (400, 6), (401, 6)])
def test_tree_lp_links_lag_k_to_the_kth_ancestors_inflow(seed, T,
                                                          monkeypatch):
    # Read off the nonzeros: a node's AR row for hydro h holds +1 on its
    # own inflow column and, for each lag k up to the node's depth, -coef_k
    # on the inflow column of its k-th ancestor; each deeper lag is the
    # root state's, coef_k times it in the right-hand side.
    case, lattice = random_case(np.random.default_rng(seed), T=T, L=2,
                                n_hydro=3, max_lag=3, two_bus=True)
    blocks = []     # each node's dispatch columns, in node order
    dispatch_columns = treelp.dispatch_columns
    monkeypatch.setattr(treelp, "dispatch_columns", lambda *args: (
        blocks.append(dispatch_columns(*args)) or blocks[-1]))
    lp = build_tree_lp(case, lattice, NEUTRAL)
    nodes = expand_tree(lattice, 1)
    assert len(blocks) == len(nodes)
    nz = lp.nonzeros
    root_lags = [h.initial_lags for h in case.hydros]
    deepest = 0
    for n, node in enumerate(nodes):
        ancestors, k = [], node.parent
        while k is not None:
            ancestors.append(k)
            k = nodes[k].parent
        noise = (lattice.stage1 if n == 0
                 else lattice.noise(node.stage, node.opening))
        inflow = read_noise(case, node.stage, noise)[1]
        for j, h in enumerate(case.hydros):
            own = blocks[n]["a", h.name]
            row, = nz.row[(nz.col == own) & (nz.val == 1.0)]
            terms = dict(zip(nz.col[nz.row == row].tolist(),
                             nz.val[nz.row == row].tolist()))
            depth = min(len(ancestors), len(h.ar_coeffs))
            deepest = max(deepest, depth)
            assert terms == {own: 1.0, **{
                blocks[a]["a", h.name]: -coef for a, coef
                in zip(ancestors[:depth], h.ar_coeffs)}}
            beyond = sum(coef * lag for coef, lag in zip(
                h.ar_coeffs[depth:], root_lags[j]))
            assert lp.rhs[row] == pytest.approx(inflow[j] + beyond,
                                                rel=1e-12)
    assert deepest == 3


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


def scaled_physically(case, lattice, S):
    """The case and lattice with every physical quantity times S:
    demands, capacities, storages, inflows and their lags, renewable
    caps and the future-cost floor. Production, AR coefficients and
    costs stay, so every cost scales by S."""
    def noise(n):
        return NoiseRealization(
            inflow_noise={k: S * v for k, v in n.inflow_noise.items()},
            renewable_cap={k: S * v for k, v in n.renewable_cap.items()},
            demand={k: S * v for k, v in n.demand.items()})

    scaled = dataclasses.replace(
        case,
        buses=tuple(dataclasses.replace(b, demand=tuple(S * d for d in
                                                        b.demand))
                    for b in case.buses),
        lines=tuple(dataclasses.replace(line, capacity=S * line.capacity)
                    for line in case.lines),
        thermals=tuple(dataclasses.replace(th, cap=S * th.cap)
                       for th in case.thermals),
        hydros=tuple(dataclasses.replace(
            h, max_storage=S * h.max_storage, max_turbine=S * h.max_turbine,
            initial_storage=S * h.initial_storage,
            initial_lags=tuple(S * a for a in h.initial_lags))
            for h in case.hydros),
        future_lower_bound=S * case.future_lower_bound)
    return scaled, Lattice(lattice.num_stages, lattice.num_openings,
                           noise(lattice.stage1),
                           [[noise(n) for n in stage]
                            for stage in lattice.openings])


@pytest.mark.parametrize("seed", range(8))
def test_tree_objective_scales_with_physical_quantities(seed):
    case, lattice = random_case(np.random.default_rng(seed), T=3, L=3)
    measure = RiskMeasure(lam=0.5, alpha=0.5)
    # A power of two, so every scaled datum is exact.
    S = 4.0
    scaled, scaled_lattice = scaled_physically(case, lattice, S)
    assert tree_objective(scaled, scaled_lattice, measure) == pytest.approx(
        S * tree_objective(case, lattice, measure), **METAMORPHIC)
    cfg = EngineConfig(max_iterations=8, min_iterations=8, batch_size=2,
                       seed=7, measure=measure)
    base = train(case, lattice, cfg).bounds
    bounds = train(scaled, scaled_lattice, cfg).bounds
    assert len(bounds) == len(base) == 8
    for got, want in zip(bounds, base):
        assert got.lower_bound == pytest.approx(S * want.lower_bound,
                                                **METAMORPHIC)
        assert got.ub_mean == pytest.approx(S * want.ub_mean, **METAMORPHIC)


@pytest.mark.parametrize("seed", range(6))
def test_tree_objective_at_lambda_one_matches_highs_across_scales(seed):
    # Pure CVaR stresses the absolute tolerances in ``lp`` most; scaling
    # every physical quantity by a power of two from 2^-10 to 2^10 moves
    # the data by the same factor.
    pytest.importorskip("scipy")
    case, lattice = random_case(np.random.default_rng(seed), T=3, L=3,
                                max_lag=1, two_bus=True)
    for S in (2.0 ** -10, 1.0, 2.0 ** 10):
        scaled, scaled_lattice = scaled_physically(case, lattice, S)
        for alpha in (0.0, 0.5, 0.9):
            measure = RiskMeasure(lam=1.0, alpha=alpha)
            assert tree_objective(scaled, scaled_lattice, measure) == \
                pytest.approx(highs_tree_objective(scaled, scaled_lattice,
                                                   measure),
                              rel=1e-7, abs=0.0)


@pytest.mark.parametrize("seed", [20261018, 1, 2])
def test_sparse_tree_objective_matches_highs_across_scales(seed):
    # The trees above presolve to fewer than _SPARSE_ROWS rows, so they
    # run the dense kernels. These presolve to 313 rows and run the
    # sparse ones, whose inverse update skips entries below a tolerance
    # relative to their vector: the scale of the data must not matter.
    pytest.importorskip("scipy")
    case, lattice = random_case(np.random.default_rng(seed), T=6, L=2,
                                n_hydro=2, n_thermal=2)
    for S in (2.0 ** -10, 1.0, 2.0 ** 10):
        scaled, scaled_lattice = scaled_physically(case, lattice, S)
        for lam, alpha in ((0.5, 0.5), (1.0, 0.9)):
            measure = RiskMeasure(lam=lam, alpha=alpha)
            lp = build_tree_lp(scaled, scaled_lattice, measure).presolved()
            assert lp.num_rows >= _SPARSE_ROWS
            assert tree_objective(scaled, scaled_lattice, measure) == \
                pytest.approx(highs_tree_objective(scaled, scaled_lattice,
                                                   measure),
                              rel=1e-9, abs=0.0)


@pytest.mark.parametrize("seed", range(10))
def test_dominated_thermal_changes_nothing(seed):
    # Splitting a thermal into two halves at its cost, or adding one that
    # can generate nothing, leaves the same feasible costs.
    case, lattice = random_case(np.random.default_rng(seed), T=3, L=3,
                                two_bus=seed % 2 == 1)
    measure = RiskMeasure(lam=0.5, alpha=0.5)
    base = tree_objective(case, lattice, measure)
    first, *rest = case.thermals
    halves = tuple(dataclasses.replace(first, name=first.name + side,
                                       cap=first.cap / 2) for side in "ab")
    idle = Thermal("idle", first.bus, cost=0.0, cap=0.0)
    for thermals in (halves + tuple(rest), case.thermals + (idle,)):
        changed = dataclasses.replace(case, thermals=thermals)
        assert tree_objective(changed, lattice, measure) == pytest.approx(
            base, **METAMORPHIC)


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


def uncapped_atom_weights(measure, n, tail_atoms=1):
    """``RiskMeasure.atom_weights`` without its cap on the tail weight."""
    return ((1.0 - measure.lam) / n,
            measure.lam * tail_atoms / ((1.0 - measure.alpha) * n))


def test_tree_objective_near_alpha_one_matches_highs(monkeypatch):
    # Uncapped, the per-atom CVaR weight 1/((1-alpha)L) reached 5e5 on the
    # demo at alpha = 1 - 1e-6, and 6 of these 35 tree LPs failed (4
    # drifted off a row, 2 ended unbounded). Capped at 2 it moves no
    # optimum: HiGHS on the capped and on the uncapped LP agree with the
    # bundled simplex.
    pytest.importorskip("scipy")
    demo = parse_case(Path(__file__).resolve().parent.parent / "cases"
                      / "demo.json")
    cases = [(demo.system, demo.lattice)] + [
        random_case(np.random.default_rng(s), T=3, L=3) for s in range(6)]
    measures = [RiskMeasure(lam, alpha) for lam, alpha in (
        (1.0, 1 - 1e-6), (0.5, 1 - 1e-6), (1.0, 1 - 1e-9), (0.5, 0.9),
        (0.5, 0.5))]
    for case, lattice in cases:
        for measure in measures:
            ours = tree_objective(case, lattice, measure)
            capped = highs_tree_objective(case, lattice, measure)
            with monkeypatch.context() as patch:
                patch.setattr(RiskMeasure, "atom_weights",
                              uncapped_atom_weights)
                uncapped = highs_tree_objective(case, lattice, measure)
            assert ours == pytest.approx(capped, rel=1e-7, abs=0.0)
            assert ours == pytest.approx(uncapped, rel=1e-7, abs=0.0)


def cascaded(case):
    """The case with h2, if any, below h1."""
    hydros = tuple(dataclasses.replace(h, upstream=("h1",))
                   if h.name == "h2" else h for h in case.hydros)
    return dataclasses.replace(case, hydros=hydros)


def presolve_trees():
    """Casegen tree LPs over lags 0–2, one or two buses, renewables and a
    cascade, each under its own (λ, α): (case, lattice, measure)."""
    shapes = [dict(max_lag=0), dict(max_lag=1, two_bus=True),
              dict(max_lag=2, with_renewable=True),
              dict(max_lag=2, two_bus=True, with_renewable=True)]
    measures = [RiskMeasure(0.0, 0.0), RiskMeasure(0.5, 0.5),
                RiskMeasure(1.0, 0.9), RiskMeasure(0.3, 0.0)]
    trees = []
    for seed, (shape, measure) in enumerate(zip(shapes, measures)):
        case, lattice = random_case(np.random.default_rng(80 + seed), T=4,
                                    L=2, n_hydro=2, **shape)
        trees.append((case, lattice, measure))
        trees.append((cascaded(case), lattice, measures[seed - 1]))
    return trees


PRESOLVE_TREES = presolve_trees()


@pytest.mark.parametrize("case, lattice, measure", PRESOLVE_TREES)
def test_presolve_drops_one_inflow_row_per_node_and_hydro(case, lattice,
                                                          measure):
    lp = build_tree_lp(case, lattice, measure)
    pre = lp.presolved()
    pinned = len(expand_tree(lattice, 1)) * len(case.hydros)
    assert lp.num_rows - pre.num_rows == pinned
    # Each dropped row fixed one inflow column, free in the built program.
    fixed = (pre.lower == pre.upper) & (lp.lower < lp.upper)
    assert fixed.sum() == pinned
    assert np.isinf(lp.lower[fixed]).all() and np.isinf(lp.upper[fixed]).all()
    assert pre.objective is lp.objective


@pytest.mark.parametrize("shape, rows", [
    (dict(T=7, L=2, n_thermal=3, max_lag=0), (887, 633)),
    (dict(T=3, L=8, n_thermal=3, max_lag=1, two_bus=True,
          with_renewable=True), (582, 436))])
def test_presolve_on_the_benchmark_shapes(shape, rows):
    # The deep shape (127 nodes, no lags) and the wide one (73 nodes,
    # AR(1) lags, two buses and a renewable).
    case, lattice = random_case(np.random.default_rng(7), n_hydro=2,
                                **shape)
    lp = build_tree_lp(case, lattice, RiskMeasure(0.5, 0.5))
    assert (lp.num_rows, lp.presolved().num_rows) == rows


@pytest.mark.parametrize("case, lattice, measure", PRESOLVE_TREES)
def test_presolved_solution_solves_the_built_tree_lp(case, lattice, measure):
    lp = build_tree_lp(case, lattice, measure)
    full, sol = solve(lp), solve(lp.presolved())
    assert full.status == sol.status == OPTIMAL
    ours = tree_objective(case, lattice, measure)
    assert ours == sol.objective
    assert ours == pytest.approx(full.objective, rel=1e-9, abs=1e-12)
    # The primal maps one-for-one onto the built program's columns.
    x = sol.primal
    tol = TOL_FEAS * (1.0 + np.abs(lp.rhs).max())
    nz = lp.nonzeros
    lhs = np.bincount(nz.row, nz.val * x[nz.col], minlength=lp.num_rows)
    senses = np.array(lp.senses)
    gap = np.where(senses == LESS, lhs - lp.rhs,
                   np.where(senses == GREATER, lp.rhs - lhs,
                            np.abs(lhs - lp.rhs)))
    assert gap.max() <= tol
    assert (lp.lower - x).max() <= tol and (x - lp.upper).max() <= tol
    assert lp.objective @ x == pytest.approx(ours, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("case, lattice, measure", PRESOLVE_TREES)
def test_presolved_tree_objective_matches_highs(case, lattice, measure):
    pytest.importorskip("scipy")
    assert tree_objective(case, lattice, measure) == pytest.approx(
        highs_tree_objective(case, lattice, measure), rel=1e-9, abs=1e-12)
