"""Stage-solution memo: each distinct stage LP is solved once per scope,
a new cut at a stage invalidates only that stage, and the memo never
changes a result."""

import numpy as np
import pytest

from casegen import random_case
from hydrosddp import engine
from hydrosddp.engine import (
    Cut,
    CutPool,
    EngineConfig,
    StageMemo,
    evaluate_policy_exact,
    simulate_policy,
    train,
)
from hydrosddp.hydro import StageTemplate, initial_state, solve_stage
from hydrosddp.risk import RiskMeasure
from hydrosddp.scenario import SamplerMode
from oracles import path_bytes

BLEND = RiskMeasure(lam=0.5, alpha=0.5)


def acceptance_case():
    """The acceptance-1 case and its training configuration."""
    rng = np.random.default_rng(20240807)
    case, lattice = random_case(rng, T=7, L=2, n_hydro=2, n_thermal=3,
                                max_lag=0)
    cfg = EngineConfig(max_iterations=20, min_iterations=20, batch_size=2,
                       seed=7, measure=BLEND,
                       sampler_mode=SamplerMode.RISK_ADJUSTED)
    return case, lattice, cfg


def small_case():
    rng = np.random.default_rng(5)
    case, lattice = random_case(rng, T=4, L=2, n_hydro=2, n_thermal=2)
    cfg = EngineConfig(max_iterations=12, min_iterations=12, batch_size=3,
                       seed=3, measure=BLEND,
                       sampler_mode=SamplerMode.ALTERNATING)
    return case, lattice, cfg


def record_stage_solves(monkeypatch, lattice):
    """Patch the engine's solve_stage to log (t, state bytes, opening,
    cut count) of every stage LP it solves, the cut count taken when the
    engine builds the template the LP is stamped from."""
    openings = {id(lattice.stage1): None}
    for t in range(2, lattice.num_stages + 1):
        for l in range(lattice.num_openings):
            openings[id(lattice.noise(t, l))] = l
    sizes = {}
    calls = []

    def built(case, lattice, t, cuts, measure):
        template = StageTemplate(case, lattice, t, cuts, measure)
        sizes[template] = sum(len(c) for c in cuts) if cuts is not None else 0
        return template

    def logged(template, state, noise):
        calls.append((template.t, state.tobytes(),
                      openings[id(noise)], sizes[template]))
        return solve_stage(template, state, noise)

    monkeypatch.setattr(engine, "StageTemplate", built)
    monkeypatch.setattr(engine, "solve_stage", logged)
    return calls


def never_hit(monkeypatch):
    """Make every memo lookup miss, so each call solves its stage LP."""
    solve = StageMemo.solve

    def missing(self, t, state, opening):
        self._tables.clear()
        return solve(self, t, state, opening)

    monkeypatch.setattr(StageMemo, "solve", missing)


def test_train_solves_each_distinct_stage_lp_once(monkeypatch):
    case, lattice, cfg = small_case()
    calls = record_stage_solves(monkeypatch, lattice)
    policy = train(case, lattice, cfg)
    memo_calls = list(calls)
    assert len(set(memo_calls)) == len(memo_calls)
    assert policy.stage_solves == len(memo_calls)

    calls.clear()
    never_hit(monkeypatch)
    bypassed = train(case, lattice, cfg)
    assert set(calls) == set(memo_calls)
    assert len(calls) > len(memo_calls)
    assert bypassed.reused_solves == 0
    assert (len(calls) == bypassed.stage_solves
            == policy.stage_solves + policy.reused_solves)


def test_new_cut_invalidates_only_its_stage():
    case, lattice, _ = acceptance_case()
    T, L = lattice.num_stages, lattice.num_openings
    pool = CutPool(T, L, case.state_dimension())
    memo = StageMemo(case, lattice, pool, BLEND)
    root = memo.solve(1, initial_state(case), None)
    state = root.state_out
    first = memo.solve(2, state, 0)
    later = memo.solve(3, first.state_out, 1)
    assert memo.solve(1, initial_state(case), None) is root
    assert memo.solve(2, state, 0) is first
    assert (memo.solves, memo.reuses) == (3, 2)

    dim = case.state_dimension()
    floor = first.objective + 100.0
    assert pool.append(2, 1, Cut(np.zeros(dim), np.zeros(dim), floor))
    again = memo.solve(2, state, 0)
    assert memo.solves == 4
    direct = solve_stage(StageTemplate(case, lattice, 2, pool.slice(2), BLEND),
                         state, lattice.noise(2, 0))
    assert again.objective == direct.objective > first.objective
    assert again.betas[1] == pytest.approx(floor)
    assert memo.solve(1, initial_state(case), None) is root
    assert memo.solve(3, first.state_out, 1) is later

    # A duplicate row leaves the stage's entries valid.
    assert not pool.append(2, 1, Cut(np.zeros(dim), np.ones(dim), floor))
    assert memo.solve(2, state, 0) is again
    assert (memo.solves, memo.reuses) == (4, 5)


def cut_bytes(pool):
    return [(key, [(c.gradient.tobytes(), c.anchor.tobytes(), c.intercept)
                   for c in cuts])
            for key, cuts in sorted(pool.items())]


def run_all(case, lattice, cfg):
    policy = train(case, lattice, cfg)
    value = evaluate_policy_exact(case, lattice, policy.cuts, cfg.measure)
    rollouts = [simulate_policy(case, lattice, policy.cuts, cfg.measure,
                                sampler, 16, seed=11)
                for sampler in (SamplerMode.UNIFORM,
                                SamplerMode.RISK_ADJUSTED)]
    return ([e.lower_bound for e in policy.bounds],
            [e.ub_mean for e in policy.bounds],
            cut_bytes(policy.cuts), policy.cuts.duplicates, value,
            [(path_bytes(paths), mean, stderr)
             for paths, mean, stderr in rollouts])


def test_memo_changes_no_result(monkeypatch):
    case, lattice, cfg = small_case()
    with_memo = run_all(case, lattice, cfg)
    never_hit(monkeypatch)
    assert run_all(case, lattice, cfg) == with_memo


def test_solve_counts_pinned_on_acceptance_case():
    case, lattice, cfg = acceptance_case()
    policy = train(case, lattice, cfg)
    # Near-duplicate cuts (within engine.DEDUP_RTOL) leave the stage
    # tables in place.
    assert (policy.stage_solves, policy.reused_solves) == (260, 456)
    # Simplex iterations per phase over those 260 stage LPs, as their
    # LPSolution counts sum; they pin the pivot path of the stage LPs.
    assert (policy.phase1_pivots, policy.phase2_pivots) == (0, 1380)
