"""SDDP engine: pass mechanics, bounds behavior, and oracle agreement."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from casegen import in_bounds_state, random_case, thermal_only_case
from hydrosddp.caseio import parse_case
from hydrosddp.engine import (
    Cut,
    CutPool,
    EmptyBatch,
    EngineConfig,
    StageMemo,
    backward_pass,
    effective_sampler,
    evaluate_policy_exact,
    forward_pass,
    iterate,
    simulate_policy,
    train,
    upper_bound_estimate,
)
from hydrosddp.hydro import (
    Bus,
    Hydro,
    SystemCase,
    Thermal,
    initial_state,
)
from hydrosddp.risk import RiskMeasure
from hydrosddp.scenario import (
    Lattice,
    NoiseRealization,
    PathRecord,
    PathStep,
    SamplerMode,
)
from hydrosddp.treelp import tree_objective
from oracles import exact_cost_to_go, path_bytes

NEUTRAL = RiskMeasure(lam=0.0, alpha=0.0)
BLEND = RiskMeasure(lam=0.5, alpha=0.5)


def fresh_pool(case, lattice):
    return CutPool(lattice.num_stages, lattice.num_openings,
                   case.state_dimension())


def two_stage_demand_case(demands=(1.0, 3.0)):
    case = SystemCase(
        buses=(Bus("b1", (0.0, max(demands) + 1)),),
        thermals=(Thermal("t1", "b1", 1.0, max(demands) + 5),),
        deficit_cost=10.0)
    lattice = Lattice(2, len(demands), NoiseRealization(),
                      [[NoiseRealization(demand={"b1": d}) for d in demands]])
    return case, lattice


# ---------------------------------------------------------------------------
# Small mechanics


def test_upper_bound_estimate_examples():
    def path(cost):
        return PathRecord((PathStep(None, None, cost, None),))

    assert upper_bound_estimate([path(7.0), path(7.0)]) == (7.0, 0.0)
    mean, err = upper_bound_estimate([path(4.0), path(6.0)])
    assert (mean, err) == (pytest.approx(5.0), pytest.approx(1.0))
    assert upper_bound_estimate([path(3.0)]) == (3.0, 0.0)
    with pytest.raises(EmptyBatch):
        upper_bound_estimate([])


def test_cut_pool_shape_and_validation():
    pool = CutPool(3, 2, 1)
    pool.append(1, 0, Cut(np.zeros(1), np.zeros(1), 5.0))
    assert len(pool) == 1
    assert pool.slice(3) is None
    assert [len(c) for c in pool.slice(1)] == [1, 0]
    # A wrong shape, a coefficient that is not finite, or an offset that
    # overflows is refused at append, and the pool keeps nothing of it.
    for bad in [Cut(np.zeros(2), np.zeros(2), 0.0),
                Cut(np.zeros(1), np.zeros(2), 0.0),
                Cut(np.array([np.nan]), np.zeros(1), 0.0),
                Cut(np.zeros(1), np.array([np.nan]), 0.0),
                Cut(np.zeros(1), np.zeros(1), np.inf),
                Cut(np.array([1e308]), np.array([1e308]), 0.0)]:
        with pytest.raises(ValueError):
            pool.append(1, 0, bad)
        assert (len(pool), pool.duplicates) == (1, 0)


def test_cut_pool_drops_duplicate_rows():
    pool = CutPool(3, 2, 2)
    cut = Cut(np.array([-1.0, 0.5]), np.array([2.0, 4.0]), 6.0)
    assert cut.offset == 6.0 - (-2.0 + 2.0)
    assert pool.append(1, 0, cut) is True
    # Same affine function through another anchor: the same LP row.
    moved = Cut(np.array([-1.0, 0.5]), np.array([3.0, 4.0]), 5.0)
    assert moved.offset == cut.offset
    assert pool.append(1, 0, moved) is False
    assert pool.append(1, 0, cut) is False
    assert (len(pool), pool.duplicates) == (1, 2)
    # An offset moved by rounding only is the same row as well.
    assert pool.append(1, 0, Cut(np.array([-1.0, 0.5]), np.array([2.0, 4.0]),
                                 6.0 + 1e-12)) is False
    # Another gradient, another offset, or another (t, l) is a new row.
    assert pool.append(1, 0, Cut(np.array([-1.0, 0.25]), np.array([2.0, 4.0]),
                                 6.0)) is True
    assert pool.append(1, 0, Cut(np.array([-1.0, 0.5]), np.array([2.0, 4.0]),
                                 6.0 + 1e-4)) is True
    assert pool.append(1, 1, cut) is True
    assert pool.append(2, 0, cut) is True
    assert (len(pool), pool.duplicates) == (5, 3)
    assert [len(c) for c in pool.slice(1)] == [3, 1]


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
def test_cut_pool_tolerance_is_relative_to_the_row(scale):
    # Rows [gradient | offset] with a zero anchor, so the offset is q.
    rows = [
        ([-1.0, 0.5], 6.0),               # kept
        ([-1.0, 0.5], 6.0 * (1 + 1e-6)),  # 1e-6 relative apart: kept
        ([-1.0, 0.5 * (1 - 3e-12)], 6.0),  # rounding of the first: dropped
        ([-1.0, 0.5], 6.0 * (1 + 1e-6) + 2e-12),  # of the second: dropped
        ([3.0, 0.0], -2.0),               # another row: kept
        ([-1.0, 0.5], 6.0 + 6e-8),        # 1e-8 relative: kept
        ([-1.0, 0.5], 6.0 + 5e-9),        # 8.3e-10 relative: dropped
    ]
    pool = CutPool(2, 2, 2)
    kept = [pool.append(1, 0, Cut(scale * np.array(g), np.zeros(2), scale * q))
            for g, q in rows]
    assert kept == [True, True, False, False, True, True, False]
    # The zero row and a tiny nonzero row are different rows; each
    # repeats only itself.
    tiny = [([0.0, 0.0], 0.0), ([0.0, 0.0], 1e-280), ([0.0, 0.0], 0.0),
            ([0.0, 1e-290], 0.0), ([0.0, 0.0], 1e-280)]
    kept = [pool.append(1, 1, Cut(scale * np.array(g), np.zeros(2), scale * q))
            for g, q in tiny]
    assert kept == [True, True, False, True, False]
    assert (len(pool), pool.duplicates) == (7, 5)


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(max_iterations=2, min_iterations=3)
    with pytest.raises(ValueError):
        EngineConfig(batch_size=0)


def test_effective_sampler_alternation():
    assert effective_sampler(SamplerMode.UNIFORM, 5) is SamplerMode.UNIFORM
    assert effective_sampler(SamplerMode.RISK_ADJUSTED, 4) is SamplerMode.RISK_ADJUSTED
    assert effective_sampler(SamplerMode.ALTERNATING, 1) is SamplerMode.UNIFORM
    assert effective_sampler(SamplerMode.ALTERNATING, 2) is SamplerMode.RISK_ADJUSTED


def test_forward_single_stage_no_sampling():
    case, lattice = thermal_only_case(demand=10, cost=2, cap=15)
    paths, lb = forward_pass(StageMemo(case, lattice,
                                       fresh_pool(case, lattice), BLEND),
                             SamplerMode.RISK_ADJUSTED, 1, 3, seed=0)
    assert len(paths) == 3
    for p in paths:
        assert len(p.steps) == 1
        assert p.steps[0].opening is None
        assert p.steps[0].weights is None
    assert lb == pytest.approx(20.0, abs=1e-8)


def test_backward_counts():
    case, lattice = thermal_only_case(demand=10, cost=2, cap=15)
    pool = fresh_pool(case, lattice)
    paths, _ = forward_pass(StageMemo(case, lattice, pool, NEUTRAL),
                            SamplerMode.UNIFORM, 1, 2, seed=0)
    assert backward_pass(StageMemo(case, lattice, pool, NEUTRAL), paths) == 0

    case, lattice = random_case(np.random.default_rng(8), T=2, L=3)
    pool = fresh_pool(case, lattice)
    paths, _ = forward_pass(StageMemo(case, lattice, pool, NEUTRAL),
                            SamplerMode.UNIFORM, 1, 2, seed=0)
    # Both paths leave the deterministic root in the same state, so their
    # three cuts (one per opening) are the same rows: the pool keeps 3 of
    # the 6 it is offered.
    assert backward_pass(StageMemo(case, lattice, pool, NEUTRAL), paths) == 3
    assert len(pool) == 3
    assert pool.duplicates == 3


def test_flat_cut_for_worthless_water():
    # Hydro with zero production: the future never values its storage.
    case = SystemCase(
        buses=(Bus("b1", (4.0, 4.0)),),
        thermals=(Thermal("t1", "b1", 2.0, 10.0),),
        hydros=(Hydro("h1", "b1", 8.0, 3.0, 0.0, initial_storage=4.0),),
        deficit_cost=40.0)
    noise = NoiseRealization(inflow_noise={"h1": 1.0})
    lattice = Lattice(2, 2, noise, [[noise, noise]])
    pool = fresh_pool(case, lattice)
    paths, _ = forward_pass(StageMemo(case, lattice, pool, NEUTRAL),
                            SamplerMode.UNIFORM, 1, 1, seed=3)
    backward_pass(StageMemo(case, lattice, pool, NEUTRAL), paths)
    for (_, _), cuts in pool.items():
        for cut in cuts:
            assert cut.gradient[0] == pytest.approx(0.0, abs=1e-9)


def test_lower_bound_with_empty_pool():
    case, lattice = thermal_only_case(demand=10, cost=2, cap=15, T=3)
    # Future epigraph floors at zero, so the bound is the immediate cost.
    _, lb = forward_pass(StageMemo(case, lattice, fresh_pool(case, lattice),
                                   BLEND),
                         SamplerMode.RISK_ADJUSTED, 1, 1, seed=0)
    assert lb == pytest.approx(20.0, abs=1e-8)


def test_risk_adjusted_sampling_chases_high_beta():
    case, lattice = two_stage_demand_case()
    measure = RiskMeasure(lam=1.0, alpha=0.5)
    pool = fresh_pool(case, lattice)
    paths, _ = forward_pass(StageMemo(case, lattice, pool, measure),
                            SamplerMode.RISK_ADJUSTED, 1, 2, seed=1)
    backward_pass(StageMemo(case, lattice, pool, measure), paths)
    # Stage-1 betas are now (1, 3): all mass on the expensive opening.
    paths, _ = forward_pass(StageMemo(case, lattice, pool, measure),
                            SamplerMode.RISK_ADJUSTED, 2, 8, seed=11)
    for p in paths:
        assert p.steps[0].weights.weights == pytest.approx([0.0, 1.0])
        assert p.steps[1].opening == 1


def test_lambda_zero_modes_are_bitwise_identical():
    rng = np.random.default_rng(82)
    case, lattice = random_case(rng, T=4, L=3)
    pool_a = fresh_pool(case, lattice)
    pool_b = fresh_pool(case, lattice)
    for k in (1, 2, 3):
        pa, _ = forward_pass(StageMemo(case, lattice, pool_a, NEUTRAL),
                             SamplerMode.RISK_ADJUSTED, k, 3, seed=42)
        pb, _ = forward_pass(StageMemo(case, lattice, pool_b, NEUTRAL),
                             SamplerMode.UNIFORM, k, 3, seed=42)
        assert path_bytes(pa) == path_bytes(pb)
        backward_pass(StageMemo(case, lattice, pool_a, NEUTRAL), pa)
        backward_pass(StageMemo(case, lattice, pool_b, NEUTRAL), pb)


def test_paths_independent_of_batch_order():
    # Rebuilding any single path from its own stream must reproduce the
    # batch result: that is what makes concurrent execution safe.
    rng = np.random.default_rng(83)
    case, lattice = random_case(rng, T=3, L=2)
    pool = fresh_pool(case, lattice)
    batch, _ = forward_pass(StageMemo(case, lattice, pool, BLEND),
                            SamplerMode.RISK_ADJUSTED, 4, 5, seed=9)
    for s in (4, 2, 0, 3, 1):  # deliberately scrambled order
        alone, _ = forward_pass(StageMemo(case, lattice, pool, BLEND),
                                SamplerMode.RISK_ADJUSTED, 4, s + 1, seed=9)
        assert path_bytes([alone[s]]) == path_bytes([batch[s]])


# ---------------------------------------------------------------------------
# Training behavior


def test_train_single_stage_stops_at_min_iterations():
    case, lattice = thermal_only_case(demand=10, cost=2, cap=15)
    cfg = EngineConfig(max_iterations=10, min_iterations=3, batch_size=2,
                       seed=5, measure=BLEND)
    policy = train(case, lattice, cfg)
    assert len(policy.bounds) == 3
    last = policy.bounds[-1]
    assert last.lower_bound == pytest.approx(20.0, abs=1e-8)
    assert last.ub_mean == pytest.approx(20.0, abs=1e-8)
    assert last.ub_stderr == 0.0
    # single-stage policy value is just the immediate cost
    assert evaluate_policy_exact(case, lattice, policy.cuts, BLEND) == \
        pytest.approx(20.0, abs=1e-8)


def test_lower_bound_monotone_and_log_ordered():
    rng = np.random.default_rng(84)
    case, lattice = random_case(rng, T=3, L=2)
    cfg = EngineConfig(max_iterations=12, min_iterations=12, batch_size=2,
                       seed=2, measure=BLEND)
    log = train(case, lattice, cfg).bounds
    lbs = [e.lower_bound for e in log]
    assert all(lbs[i + 1] >= lbs[i] - 1e-9 for i in range(len(lbs) - 1))
    assert [e.iteration for e in log] == list(range(1, len(log) + 1))


def test_alternating_mode_skips_ub_on_odd_iterations():
    rng = np.random.default_rng(85)
    case, lattice = random_case(rng, T=3, L=2)
    cfg = EngineConfig(max_iterations=6, min_iterations=6, batch_size=2,
                       seed=3, measure=RiskMeasure(lam=1.0, alpha=0.5),
                       sampler_mode=SamplerMode.ALTERNATING)
    log = train(case, lattice, cfg).bounds
    for e in log:
        if e.iteration % 2 == 1:
            assert e.sampler == "uniform"
            assert e.ub_mean is None and e.ub_stderr is None
            assert e.ub_samples is None
        else:
            assert e.sampler == "risk"
            assert e.ub_mean is not None


def test_train_determinism():
    rng = np.random.default_rng(86)
    case, lattice = random_case(rng, T=3, L=2)
    cfg = EngineConfig(max_iterations=8, min_iterations=8, batch_size=2,
                       seed=7, measure=BLEND)
    log1 = train(case, lattice, cfg).bounds
    log2 = train(case, lattice, cfg).bounds
    for a, b in zip(log1, log2):
        assert (a.iteration, a.lower_bound, a.ub_mean, a.ub_stderr,
                a.ub_samples, a.sampler) == \
               (b.iteration, b.lower_bound, b.ub_mean, b.ub_stderr,
                b.ub_samples, b.sampler)


# (case seed, sampler, min_iterations, batch): each run stops before its
# 12th iteration, the alternating one on iteration 8. The risk run's rule
# already holds at iteration 3, before min_iterations lets it stop.
STOPPING_RUNS = [(86, SamplerMode.RISK_ADJUSTED, 4, 2),
                 (86, SamplerMode.ALTERNATING, 3, 2)]


def iterate_run(seed, sampler, min_iterations, batch):
    """A stopping run's case, config, pool and bounds, and per record of
    ``iterate`` the record, the pool's size and duplicates at its yield,
    and the root objective of a fresh memo over the pool."""
    case, lattice = random_case(np.random.default_rng(seed), T=3, L=2)
    cfg = EngineConfig(max_iterations=12, min_iterations=min_iterations,
                       batch_size=batch, seed=3, measure=BLEND,
                       sampler_mode=sampler)
    pool = fresh_pool(case, lattice)
    bounds, seen = [], []
    for it in iterate(StageMemo(case, lattice, pool, BLEND), cfg, bounds):
        root = StageMemo(case, lattice, pool, BLEND).solve(
            1, initial_state(case), None)
        seen.append((it, len(pool), pool.duplicates, root.objective))
    return case, lattice, cfg, pool, bounds, seen


@pytest.mark.parametrize("run", STOPPING_RUNS)
def test_iterate_exhausted_is_train(run):
    case, lattice, cfg, pool, bounds, _ = iterate_run(*run)
    policy = train(case, lattice, cfg)
    assert len(bounds) < cfg.max_iterations

    def timeless(entries):
        return [dataclasses.replace(e, wall_ms=0.0) for e in entries]

    assert timeless(bounds) == timeless(policy.bounds)
    for t in range(1, lattice.num_stages):
        assert [m.tobytes() for m in pool.slice(t)] == \
            [m.tobytes() for m in policy.cuts.slice(t)]
    assert pool.duplicates == policy.cuts.duplicates


@pytest.mark.parametrize("run", STOPPING_RUNS)
def test_iterate_ends_on_the_stopping_iteration(run):
    _, _, cfg, pool, bounds, seen = iterate_run(*run)
    records = [it for it, *_ in seen]
    stops = [it.rule_holds and it.iteration >= cfg.min_iterations
             for it in records]
    assert stops[-1] and not any(stops[:-1])
    early = [it.iteration for it in records
             if it.rule_holds and it.iteration < cfg.min_iterations]
    assert early == ([3] if cfg.sampler_mode is SamplerMode.RISK_ADJUSTED
                     else [])
    assert [it.iteration for it in records] == \
        [b.iteration for b in bounds]
    # The stopping iteration runs no backward pass.
    _, size, duplicates, _ = seen[-1]
    assert (len(pool), pool.duplicates) == (size, duplicates)
    for it in records:
        assert it.band_holds >= it.rule_holds
        if it.ub_mean is None:
            assert cfg.sampler_mode is SamplerMode.ALTERNATING
            assert it.sampler is SamplerMode.UNIFORM and not it.band_holds


@pytest.mark.parametrize("run", STOPPING_RUNS)
def test_iterate_yields_the_pool_its_stop_test_saw(run):
    _, _, cfg, _, bounds, seen = iterate_run(*run)
    for (it, _, _, root), entry in zip(seen, bounds):
        assert it.lower_bound == root == entry.lower_bound
        assert len(it.paths) == cfg.batch_size
        if it.ub_mean is not None:
            assert (it.ub_mean, it.ub_stderr) == \
                upper_bound_estimate(it.paths)
            assert (it.ub_mean, it.ub_stderr) == \
                (entry.ub_mean, entry.ub_stderr)


def test_converged_bounds_match_tree_oracle():
    rng = np.random.default_rng(87)
    case, lattice = random_case(rng, T=3, L=2, n_hydro=1, max_lag=0)
    exact = tree_objective(case, lattice, BLEND)
    cfg = EngineConfig(max_iterations=30, min_iterations=30, batch_size=2,
                       seed=1, measure=BLEND)
    policy = train(case, lattice, cfg)
    assert policy.bounds[-1].lower_bound == pytest.approx(exact, rel=1e-5)
    value = evaluate_policy_exact(case, lattice, policy.cuts, BLEND)
    assert value == pytest.approx(exact, rel=1e-5)
    assert value >= exact - 1e-6  # policy value never beats the optimum


def test_convergence_with_network_and_renewables():
    rng = np.random.default_rng(90)
    case, lattice = random_case(rng, T=3, L=2, two_bus=True,
                                with_renewable=True, max_lag=0)
    exact = tree_objective(case, lattice, BLEND)
    cfg = EngineConfig(max_iterations=30, min_iterations=30, batch_size=2,
                       seed=8, measure=BLEND)
    policy = train(case, lattice, cfg)
    assert policy.bounds[-1].lower_bound == pytest.approx(exact, rel=1e-5)
    assert evaluate_policy_exact(case, lattice, policy.cuts, BLEND) == \
        pytest.approx(exact, rel=1e-5)


def test_risk_neutral_policy_value_is_expected_cost():
    rng = np.random.default_rng(88)
    case, lattice = random_case(rng, T=3, L=2, max_lag=0)
    exact = tree_objective(case, lattice, NEUTRAL)
    cfg = EngineConfig(max_iterations=25, min_iterations=25, batch_size=2,
                       seed=4, measure=NEUTRAL)
    policy = train(case, lattice, cfg)
    assert policy.bounds[-1].lower_bound == pytest.approx(exact, rel=1e-5)
    assert evaluate_policy_exact(case, lattice, policy.cuts, NEUTRAL) == \
        pytest.approx(exact, rel=1e-5)


def test_cut_validity_against_oracle():
    rng = np.random.default_rng(89)
    case, lattice = random_case(rng, T=3, L=2, n_hydro=1, max_lag=1)
    cfg = EngineConfig(max_iterations=4, min_iterations=4, batch_size=2,
                       seed=6, measure=BLEND)
    policy = train(case, lattice, cfg)
    for (t, l), cuts in policy.cuts.items():
        for _ in range(10):
            state = in_bounds_state(rng, case)
            exact = exact_cost_to_go(case, lattice, BLEND, t + 1, state, l)
            for cut in cuts:
                assert cut.intercept + cut.gradient @ (state - cut.anchor) <= exact + 1e-6


def test_naive_uniform_ub_underestimates_risk_averse_cost():
    case, lattice = two_stage_demand_case(demands=(1.0, 9.0))
    exact = tree_objective(case, lattice, BLEND)
    cfg = EngineConfig(max_iterations=12, min_iterations=12, batch_size=2,
                       seed=3, measure=BLEND)
    policy = train(case, lattice, cfg)
    assert policy.bounds[-1].lower_bound == pytest.approx(exact, rel=1e-6)
    paths, naive_mean, _ = simulate_policy(case, lattice, policy.cuts, BLEND,
                                           SamplerMode.UNIFORM, 400, seed=17)
    totals = [p.total_cost for p in paths]
    assert np.std(totals) > 0.01 * naive_mean  # genuinely dispersed
    assert naive_mean < exact  # the known naive-UB defect
    _, risk_mean, _ = simulate_policy(case, lattice, policy.cuts, BLEND,
                                      SamplerMode.RISK_ADJUSTED, 400, seed=17)
    assert risk_mean == pytest.approx(exact, rel=0.05)


def test_training_near_alpha_one_reaches_the_tree_optimum():
    # At alpha = 1 - 1e-6 the stage LPs' delta columns cost the capped
    # tail weight, 2 per atom where 1/((1-alpha)L) would be 5e5.
    demo = parse_case(Path(__file__).resolve().parent.parent / "cases"
                      / "demo.json")
    case, lattice = demo.system, demo.lattice
    for lam in (1.0, 0.5):
        measure = RiskMeasure(lam=lam, alpha=1 - 1e-6)
        optimum = tree_objective(case, lattice, measure)
        cfg = EngineConfig(max_iterations=20, min_iterations=20,
                           batch_size=2, seed=0, measure=measure)
        policy = train(case, lattice, cfg)
        assert len(policy.bounds) == 20
        exact = evaluate_policy_exact(case, lattice, policy.cuts, measure)
        for value in (policy.bounds[-1].lower_bound, exact):
            assert value == pytest.approx(optimum, rel=1e-9, abs=0.0)


def test_risk_sampled_mean_estimates_the_exact_policy_value():
    # A risk-adjusted rollout draws each opening with the weights that
    # evaluate_policy_exact gives the node's children, both read off the
    # same betas, so its mean estimates the exact value of any policy,
    # converged or, as here after 2 iterations, not.
    for seed in range(4):
        case, lattice = random_case(np.random.default_rng(seed), T=4, L=3,
                                    n_hydro=2, max_lag=1, two_bus=True)
        cfg = EngineConfig(max_iterations=2, min_iterations=2, batch_size=2,
                           seed=0, measure=BLEND)
        cuts = train(case, lattice, cfg).cuts
        exact = evaluate_policy_exact(case, lattice, cuts, BLEND)
        _, mean, stderr = simulate_policy(case, lattice, cuts, BLEND,
                                          SamplerMode.RISK_ADJUSTED, 2000,
                                          seed=5)
        assert stderr > 0.0
        assert abs(mean - exact) <= 4.0 * stderr
