"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Stated runtime budgets are asserted where the criterion pins one.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import test_lp
from casegen import in_bounds_state, random_case
from hydrosddp.caseio import read_convergence_csv
from hydrosddp.cli import run_cli
from hydrosddp.engine import (
    EngineConfig,
    StageMemo,
    evaluate_policy_exact,
    forward_pass,
    simulate_policy,
    train,
)
from hydrosddp.risk import RiskMeasure, sampling_weights
from hydrosddp.scenario import SamplerMode
from hydrosddp.treelp import tree_objective
from oracles import exact_cost_to_go, path_bytes, rho, rho_lp, write_case

BLEND = RiskMeasure(lam=0.5, alpha=0.5)


@contextmanager
def criterion(number, description, budget_s=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number}: PASS - {description} [{elapsed:.1f}s]")
    if budget_s is not None:
        assert elapsed <= budget_s, (
            f"criterion {number} took {elapsed:.1f}s > {budget_s}s budget")


def test_criterion_1_full_tree_sanity():
    with criterion(1, "full-tree sanity: LB, exact policy value, and naive "
                      "UB vs the deterministic equivalent", budget_s=60):
        rng = np.random.default_rng(20240807)
        case, lattice = random_case(rng, T=7, L=2, n_hydro=2, n_thermal=3,
                                    max_lag=0)
        assert len(case.hydros) == 2 and len(case.thermals) == 3
        exact = tree_objective(case, lattice, BLEND)

        cfg = EngineConfig(max_iterations=20, min_iterations=20,
                           batch_size=2, seed=7, measure=BLEND,
                           sampler_mode=SamplerMode.RISK_ADJUSTED)
        policy = train(case, lattice, cfg)
        lower_bound = policy.bounds[-1].lower_bound
        assert abs(lower_bound - exact) <= 1e-5 * abs(exact), \
            "(a) lower bound did not close the gap"

        value = evaluate_policy_exact(case, lattice, policy.cuts, BLEND)
        assert abs(value - exact) <= 1e-5 * abs(exact), \
            "(b) exact policy value does not match the tree optimum"

        paths, naive_mean, _ = simulate_policy(
            case, lattice, policy.cuts, BLEND, SamplerMode.UNIFORM, 200,
            seed=99)
        totals = np.array([p.total_cost for p in paths])
        dispersion = totals.std() / naive_mean
        assert dispersion > 0.01, "case lacks cost dispersion"
        assert naive_mean < exact, \
            "(c) naive uniform upper bound failed to undershoot"


def test_criterion_2_cvar_lp_equivalence():
    with criterion(2, "rho LP form equals the oracle on 1e4 draws with "
                      "integral alpha*L", budget_s=30):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            values = rng.uniform(-50, 150, n)
            measure = RiskMeasure(lam=float(rng.uniform(0, 1)),
                                  alpha=float(rng.integers(0, n)) / n)
            assert abs(rho_lp(values, measure)[0]
                       - rho(values, measure)) <= 1e-8


def test_criterion_3_weight_distribution():
    with criterion(3, "weights are a distribution reproducing rho; "
                      "lambda=0 is exactly uniform", budget_s=10):
        rng = np.random.default_rng(6)
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            betas = rng.uniform(-10, 100, n)
            measure = RiskMeasure(lam=float(rng.uniform(0, 1)),
                                  alpha=float(rng.integers(0, n)) / n)
            w = sampling_weights(betas, measure).weights
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert abs(w @ betas - rho(betas, measure)) <= 1e-9
        for n in (1, 2, 5, 8):
            w = sampling_weights(rng.uniform(0, 9, n),
                                 RiskMeasure(lam=0.0, alpha=0.6)).weights
            assert np.all(w == 1.0 / n)


def test_criterion_4_cut_validity():
    with criterion(4, "every stored cut underestimates the exact "
                      "cost-to-go at 100 random states", budget_s=120):
        rng = np.random.default_rng(1234)
        for c in range(3):
            case, lattice = random_case(rng, T=int(rng.integers(3, 5)), L=2,
                                        n_hydro=1, max_lag=1)
            cfg = EngineConfig(max_iterations=4, min_iterations=4,
                               batch_size=2, seed=c, measure=BLEND)
            policy = train(case, lattice, cfg)
            for (t, l), cuts in policy.cuts.items():
                assert cuts, "training left an empty pool index"
                for _ in range(100):
                    state = in_bounds_state(rng, case)
                    exact = exact_cost_to_go(case, lattice, BLEND, t + 1,
                                             state, l)
                    for cut in cuts:
                        assert cut.intercept + cut.gradient @ (state - cut.anchor) <= exact + 1e-6


def test_criterion_5_lower_bound_monotonicity():
    with criterion(5, "lower bound never decreases over 20 cases x 30 "
                      "iterations"):
        for c in range(20):
            case, lattice = random_case(np.random.default_rng(300 + c),
                                        T=3, L=2)
            cfg = EngineConfig(max_iterations=30, min_iterations=30,
                               batch_size=1, seed=c, measure=BLEND)
            log = train(case, lattice, cfg).bounds
            lbs = [e.lower_bound for e in log]
            assert len(lbs) == 30
            assert all(lbs[i + 1] >= lbs[i] - 1e-9 for i in range(29))


def test_criterion_6_risk_neutral_regression():
    with criterion(6, "lambda=0: samplers coincide path-for-path and LB "
                      "matches the risk-neutral tree"):
        neutral = RiskMeasure(lam=0.0, alpha=0.0)
        rng = np.random.default_rng(77)
        case, lattice = random_case(rng, T=4, L=2, max_lag=0)
        base = dict(max_iterations=25, min_iterations=25, batch_size=2,
                    seed=13, measure=neutral)
        policy_r = train(case, lattice, EngineConfig(
            sampler_mode=SamplerMode.RISK_ADJUSTED, **base))
        policy_u = train(case, lattice, EngineConfig(
            sampler_mode=SamplerMode.UNIFORM, **base))
        for a, b in zip(policy_r.bounds, policy_u.bounds):
            assert a.lower_bound == b.lower_bound
            assert a.ub_mean == b.ub_mean

        paths_r, _ = forward_pass(StageMemo(case, lattice, policy_r.cuts,
                                            neutral),
                                  SamplerMode.RISK_ADJUSTED, 31, 4, seed=5)
        paths_u, _ = forward_pass(StageMemo(case, lattice, policy_u.cuts,
                                            neutral),
                                  SamplerMode.UNIFORM, 31, 4, seed=5)
        assert path_bytes(paths_r) == path_bytes(paths_u)

        exact = tree_objective(case, lattice, neutral)
        lower_bound = policy_r.bounds[-1].lower_bound
        assert abs(lower_bound - exact) <= 1e-5 * abs(exact)


def test_criterion_7_lp_solver_soundness():
    with criterion(7, "strong duality and brute-force vertex agreement"):
        test_lp.test_strong_duality_and_feasibility_1000()
        test_lp.test_brute_force_vertex_agreement()


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "identical solve invocations yield identical CSVs "
                      "modulo wall_ms"):
        rng = np.random.default_rng(88)
        case, lattice = random_case(rng, T=3, L=2)
        case_path = tmp_path / "case.json"
        write_case(case_path, case, lattice, risk=BLEND)
        texts = []
        for name in ("one", "two"):
            outdir = tmp_path / name
            code = run_cli(["solve", str(case_path), "--iters", "6",
                            "--min-iters", "6", "--paths", "2",
                            "--seed", "21", "--sampling", "risk",
                            "--out", str(outdir)])
            assert code == 0
            text = (outdir / "convergence.csv").read_text()
            texts.append("\n".join(line.rsplit(",", 1)[0]
                                   for line in text.splitlines()))
            rows = read_convergence_csv(outdir / "convergence.csv")
            assert len(rows) == 6
        assert texts[0] == texts[1]
