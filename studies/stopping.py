"""The engine's stopping rule, iteration by iteration, against the truth.

    python3 studies/stopping.py          # recompute and print
    python3 studies/stopping.py --write  # also rewrite the JSON

The rule stops training at the first iteration where the lower bound
reaches the risk-sampled mean less 1.96 standard errors of its batch.
This study trains the mid case (T=7, L=5) and the small mid case (T=6,
L=4) of ``random_case(np.random.default_rng(3), T, L, n_hydro=4,
n_thermal=4, max_lag=1, two_bus=True)`` at lambda = alpha = 0.5, with
each sampler and training seeds 7-9, batch 4, for 10 iterations.
``min_iterations`` is 10 too, so no run stops early and every run
shows what the rule would have said at each iteration.

Row k of a run describes the policy that training holds when iteration
k tests the rule: the pool after k - 1 backward passes, the one a run
that stopped at k would return. It records the lower bound, the
risk-sampled and the uniform mean of 4 paths with their standard
errors (the training batch gives the run's own sampler; the other is a
batch of the same seed and iteration drawn through a fresh memo, so it
costs training no pivots), the stage-LP pivots training had spent by
then, and whether the rule held. The uniform sampler is never eligible
for the rule at lambda > 0; its rows record the band test of its own
batch as ``band_holds``. ``evaluate_policy_exact`` gives the policy's
true value: on the small mid case at every iteration, on the mid case
(20-30 s per policy) only at the first stop and at iteration 10. Gaps
are relative to each case's HiGHS optimum of the tree LP
(``oracles.highs_tree_objective``, recorded in ROADMAP.md). Every
figure is deterministic; the JSON holds no timings.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "stopping.json"
# (name, T, L, HiGHS optimum of the tree LP, exact value at every row)
CASES = (("small_mid", 6, 4, 1.0395511192409173, True),
         ("mid", 7, 5, 57.652618782505556, False))
SEEDS = (7, 8, 9)
ITERATIONS, BATCH = 10, 4


def run(name, T, L, optimum, exact_every, sampler, seed):
    import numpy as np
    from casegen import random_case
    from hydrosddp import engine
    from hydrosddp.engine import (
        EngineConfig, StageMemo, evaluate_policy_exact, train,
        upper_bound_estimate)
    from hydrosddp.risk import RiskMeasure
    from hydrosddp.scenario import SamplerMode

    blend = RiskMeasure(lam=0.5, alpha=0.5)
    case, lattice = random_case(np.random.default_rng(3), T, L, n_hydro=4,
                                n_thermal=4, max_lag=1, two_bus=True)
    own = SamplerMode(sampler)
    other = (SamplerMode.UNIFORM if own is SamplerMode.RISK_ADJUSTED
             else SamplerMode.RISK_ADJUSTED)
    config = EngineConfig(max_iterations=ITERATIONS,
                          min_iterations=ITERATIONS, batch_size=BATCH,
                          seed=seed, sampler_mode=own, measure=blend)
    rows = []
    forward_pass = engine.forward_pass

    def observed(memo, mode, iteration, batch_size, seed):
        paths, lb = forward_pass(memo, mode, iteration, batch_size, seed)
        means = {own.value: upper_bound_estimate(paths)}
        fresh = StageMemo(case, lattice, memo.cuts, blend)
        means[other.value] = upper_bound_estimate(
            forward_pass(fresh, other, iteration, batch_size, seed)[0])
        mean, stderr = means[own.value]
        band = bool(lb >= mean - config.ub_confidence * stderr - 1e-12)
        holds = band and own is SamplerMode.RISK_ADJUSTED
        first = holds and not any(r["rule_holds"] for r in rows)
        row = {"iteration": iteration, "lower_bound": lb,
               "risk_mean": means["risk"][0],
               "risk_stderr": means["risk"][1],
               "uniform_mean": means["uniform"][0],
               "uniform_stderr": means["uniform"][1],
               "pivots": memo.phase1_pivots + memo.phase2_pivots,
               "band_holds": band, "rule_holds": holds}
        if exact_every or first or iteration == ITERATIONS:
            value = evaluate_policy_exact(case, lattice, memo.cuts, blend)
            row["exact"] = value
            row["exact_gap"] = (value - optimum) / abs(optimum)
        rows.append(row)
        return paths, lb

    engine.forward_pass = observed
    try:
        policy = train(case, lattice, config)
    finally:
        engine.forward_pass = forward_pass
    assert [r["lower_bound"] for r in rows] == \
        [b.lower_bound for b in policy.bounds]
    stops = [r for r in rows if r["rule_holds"]]
    stop = stops[0] if stops else None
    return {
        "case": name, "sampler": own.value, "seed": seed,
        "optimum": optimum,
        "first_stop": stop and stop["iteration"],
        "first_stop_gap": stop and stop["exact_gap"],
        "final_lb_gap": (rows[-1]["lower_bound"] - optimum) / abs(optimum),
        "final_exact_gap": rows[-1]["exact_gap"],
        "stage_solves": policy.stage_solves,
        "phase1_pivots": policy.phase1_pivots,
        "phase2_pivots": policy.phase2_pivots,
        "iterations": rows,
    }


def main(argv):
    parser = argparse.ArgumentParser(prog="studies/stopping.py")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    runs = []
    for name, T, L, optimum, exact_every in CASES:
        for sampler in ("risk", "uniform"):
            for seed in SEEDS:
                r = run(name, T, L, optimum, exact_every, sampler, seed)
                runs.append(r)
                gap = ("-" if r["first_stop"] is None
                       else f"{r['first_stop_gap']:.2e}")
                print(f"{name:>9} {sampler:>7} seed {seed}: first stop "
                      f"{r['first_stop']} gap {gap}; at {ITERATIONS}: "
                      f"lb gap {r['final_lb_gap']:.2e} exact gap "
                      f"{r['final_exact_gap']:.2e}; pivots "
                      f"{r['phase1_pivots']} + {r['phase2_pivots']}",
                      flush=True)
    if args.write:
        doc = {
            "recipe": "random_case(rng(3), T, L, n_hydro=4, n_thermal=4, "
                      "max_lag=1, two_bus=True); lambda = alpha = 0.5; "
                      f"batch {BATCH}, {ITERATIONS} iterations, "
                      f"min_iterations {ITERATIONS}",
            "runs": runs,
        }
        OUT.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {OUT}")


if __name__ == "__main__":
    main(sys.argv[1:])
