"""Acceptance criterion 1's recipe over many case seeds.

    python3 studies/criterion1_seeds.py          # recompute and print
    python3 studies/criterion1_seeds.py --write  # also rewrite the JSON
    python3 studies/criterion1_seeds.py --check  # also compare with it

Criterion 1 (``tests/test_acceptance.py``) trains 20 iterations at batch
2, seed 7, on ``random_case(T=7, L=2, n_hydro=2, n_thermal=3,
max_lag=0)`` drawn from rng seed 20240807, and requires the final lower
bound and the exact value of the trained policy to lie within 1e-5
relative of the tree optimum. This study runs the same recipe on that
seed and on seeds 1-15, and records per seed both relative gaps and the
simplex pivots of training, so a change that moves pivots can be judged
by its miss rate across seeds as well as on the one fixed seed. Every
figure is deterministic; ``criterion1_seeds.json`` holds no timings.

``--check`` exits 1 if a training figure of the recomputed study differs
from the JSON's: a seed's lower bound, exact policy value, stage solves,
pivots, cuts or verdict, or the misses or the pivot total. It lists,
without failing, the seeds whose tree optimum or gaps moved, since the
tree oracle may move the optimum's last bits without any change to
training.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "criterion1_seeds.json"
SEEDS = (20240807, *range(1, 16))
TOL = 1e-5
# Per seed: figures of training, which --check requires to match, and
# figures that hang on the tree optimum, which it only lists.
TRAINING = ("lower_bound", "exact_policy", "stage_solves", "phase1_pivots",
            "phase2_pivots", "cuts", "meets_criterion")
TREE = ("optimum", "lb_gap", "eval_gap")


def run_seed(seed):
    import numpy as np
    from casegen import random_case
    from hydrosddp.engine import EngineConfig, evaluate_policy_exact, train
    from hydrosddp.risk import RiskMeasure
    from hydrosddp.scenario import SamplerMode
    from hydrosddp.treelp import tree_objective

    blend = RiskMeasure(lam=0.5, alpha=0.5)
    case, lattice = random_case(np.random.default_rng(seed), T=7, L=2,
                                n_hydro=2, n_thermal=3, max_lag=0)
    optimum = tree_objective(case, lattice, blend)
    policy = train(case, lattice, EngineConfig(
        max_iterations=20, min_iterations=20, batch_size=2, seed=7,
        measure=blend, sampler_mode=SamplerMode.RISK_ADJUSTED))
    lower_bound = float(policy.bounds[-1].lower_bound)
    exact = float(evaluate_policy_exact(case, lattice, policy.cuts, blend))
    lb_gap = abs(lower_bound - optimum) / abs(optimum)
    eval_gap = abs(exact - optimum) / abs(optimum)
    return {
        "seed": seed,
        "optimum": float(optimum),
        "lower_bound": lower_bound,
        "exact_policy": exact,
        "lb_gap": lb_gap,
        "eval_gap": eval_gap,
        "meets_criterion": bool(lb_gap <= TOL and eval_gap <= TOL),
        "stage_solves": policy.stage_solves,
        "phase1_pivots": policy.phase1_pivots,
        "phase2_pivots": policy.phase2_pivots,
        "cuts": len(policy.cuts),
    }


def check(doc, recorded):
    """Print how ``doc`` differs from ``recorded``; whether its training
    figures all match."""
    ok = True
    for key in ("misses", "pivots"):
        if doc[key] != recorded[key]:
            print(f"CHANGED {key}: {recorded[key]} -> {doc[key]}")
            ok = False
    if [r["seed"] for r in doc["seeds"]] != [r["seed"]
                                            for r in recorded["seeds"]]:
        print("CHANGED seeds: the study's differ from the JSON's")
        return False
    for row, old in zip(doc["seeds"], recorded["seeds"]):
        for key in TRAINING:
            if row[key] != old[key]:
                print(f"CHANGED seed {row['seed']} {key}: {old[key]} -> "
                      f"{row[key]}")
                ok = False
        moved = [f"{key} {old[key]!r} -> {row[key]!r}"
                 for key in TREE if row[key] != old[key]]
        if moved:
            print(f"moved seed {row['seed']}: {'; '.join(moved)}")
    print("training figures match" if ok else "training figures differ")
    return ok


def main(argv):
    parser = argparse.ArgumentParser(prog="studies/criterion1_seeds.py")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    rows = []
    for seed in SEEDS:
        row = run_seed(seed)
        rows.append(row)
        print(f"seed {seed:>8}: lb gap {row['lb_gap']:.1e} eval gap "
              f"{row['eval_gap']:.1e} pivots {row['phase1_pivots']} + "
              f"{row['phase2_pivots']}"
              f"{'' if row['meets_criterion'] else '  MISS'}", flush=True)
    misses = [r["seed"] for r in rows if not r["meets_criterion"]]
    print(f"{len(misses)} of {len(rows)} seeds miss {TOL:g}: {misses}")
    doc = {
        "recipe": "random_case(rng(seed), T=7, L=2, n_hydro=2, "
                  "n_thermal=3, max_lag=0); lambda = alpha = 0.5; "
                  "20 iterations, batch 2, training seed 7, risk sampler",
        "tolerance": TOL,
        "misses": misses,
        "pivots": sum(r["phase1_pivots"] + r["phase2_pivots"] for r in rows),
        "seeds": rows,
    }
    if args.check:
        recorded = json.loads(OUT.read_text(encoding="utf-8"))
        return 0 if check(doc, recorded) else 1
    if args.write:
        OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
