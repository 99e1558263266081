"""Command-line surface: solve, detequiv, evaluate, simulate, plot.

Exit codes: 0 success, 1 usage error, 2 data error (schema, references,
fingerprints, corrupt or oversized inputs), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import caseio
from .caseio import (
    CorruptFile,
    FingerprintMismatch,
    ParsedCase,
    SchemaError,
    bounds_to_csv,
    parse_case,
    read_convergence_csv,
    read_policy,
    write_policy,
)
from .engine import EngineConfig, evaluate_policy_exact, simulate_policy, train
from .hydro import StageInfeasible
from .lp import LPError, NumericalFailure
from .plotting import convergence_svg
from .risk import RiskMeasure
from .scenario import SamplerMode, TreeTooLarge
from .treelp import tree_objective

DATA_ERRORS = (SchemaError, FingerprintMismatch, CorruptFile, TreeTooLarge,
               FileNotFoundError, IsADirectoryError, PermissionError)
NUMERIC_ERRORS = (NumericalFailure, StageInfeasible, LPError, ArithmeticError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydrosddp",
        description="Risk-averse hydrothermal dispatch via multicut SDDP "
                    "with CVaR-adjusted forward sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_risk_flags(p):
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="CVaR weight in [0,1] (overrides the case file)")
        p.add_argument("--alpha", type=float, default=None,
                       help="CVaR level in [0,1) (overrides the case file)")

    p = sub.add_parser("solve", help="train a policy and write run outputs")
    p.add_argument("case")
    p.add_argument("--iters", type=int, default=None, help="max iterations")
    p.add_argument("--min-iters", type=int, default=None)
    p.add_argument("--paths", type=int, default=None,
                   help="forward paths per iteration")
    p.add_argument("--seed", type=int, default=None)
    add_risk_flags(p)
    p.add_argument("--sampling", choices=[m.value for m in SamplerMode],
                   default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("detequiv",
                       help="print the exact full-tree objective")
    p.add_argument("case")
    add_risk_flags(p)
    p.set_defaults(func=cmd_detequiv)

    p = sub.add_parser("evaluate",
                       help="exact nested value of a trained policy")
    p.add_argument("case")
    p.add_argument("--policy", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate",
                       help="Monte Carlo rollout of a trained policy")
    p.add_argument("case")
    p.add_argument("--policy", required=True)
    p.add_argument("--paths", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampling", choices=[m.value for m in SamplerMode],
                   default=SamplerMode.RISK_ADJUSTED.value)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plot", help="emit an SVG convergence chart")
    p.add_argument("rundir")
    p.add_argument("--out", default=None, help="SVG path (default: RUNDIR/convergence.svg)")
    p.set_defaults(func=cmd_plot)
    return parser


def resolve_risk(parsed: ParsedCase, args) -> RiskMeasure:
    lam = args.lam if getattr(args, "lam", None) is not None else parsed.risk.lam
    alpha = args.alpha if getattr(args, "alpha", None) is not None else parsed.risk.alpha
    return RiskMeasure(lam=lam, alpha=alpha)


def resolve_config(parsed: ParsedCase, args, measure: RiskMeasure) -> EngineConfig:
    file_cfg = parsed.engine

    def pick(flag, key, fallback):
        if flag is not None:
            return flag
        return file_cfg.get(key, fallback)

    sampling = pick(args.sampling, "sampling",
                    SamplerMode.RISK_ADJUSTED.value)
    stop_gap = file_cfg.get("stop_gap_tol")
    return EngineConfig(
        max_iterations=int(pick(args.iters, "max_iterations", 20)),
        min_iterations=int(pick(args.min_iters, "min_iterations", 1)),
        batch_size=int(pick(args.paths, "batch_size", 1)),
        seed=int(pick(args.seed, "seed", 0)),
        sampler_mode=SamplerMode.parse(sampling),
        measure=measure,
        stop_gap_tol=np.inf if stop_gap is None else float(stop_gap),
        ub_confidence=float(file_cfg.get("ub_confidence", 1.96)))


def cmd_solve(args) -> int:
    parsed = parse_case(args.case)
    measure = resolve_risk(parsed, args)
    config = resolve_config(parsed, args, measure)
    policy, log = train(parsed.system, parsed.lattice, config,
                        fingerprint=parsed.fingerprint)

    stem = os.path.splitext(os.path.basename(args.case))[0]
    outdir = args.out or f"{stem}-run"
    os.makedirs(outdir, exist_ok=True)
    caseio._atomic_write(os.path.join(outdir, "convergence.csv"),
                         bounds_to_csv(log))
    write_policy(policy, os.path.join(outdir, "policy.json"))
    last = log.entries[-1]
    summary = {
        "iterations": len(log),
        "lower_bound": last.lower_bound,
        "ub_mean": last.ub_mean,
        "ub_stderr": last.ub_stderr,
        "ub_samples": last.ub_samples,
        "sampler": last.sampler,
        "cut_count": len(policy.cuts),
        "duplicate_cuts": policy.cuts.duplicates,
        "stage_solves": policy.stage_solves,
        "reused_solves": policy.reused_solves,
        "lambda": measure.lam,
        "alpha": measure.alpha,
        "seed": config.seed,
        "fingerprint": parsed.fingerprint,
    }
    caseio._atomic_write(os.path.join(outdir, "summary.json"),
                         json.dumps(summary, indent=2) + "\n")
    print(f"trained {len(log)} iteration(s); "
          f"lower bound {last.lower_bound:.6f}; "
          f"{len(policy.cuts)} cuts ({policy.cuts.duplicates} duplicates "
          f"dropped) -> {outdir}")
    return 0


def cmd_detequiv(args) -> int:
    parsed = parse_case(args.case)
    measure = resolve_risk(parsed, args)
    value = tree_objective(parsed.system, parsed.lattice, measure)
    print(f"{value:.6f}")
    return 0


def cmd_evaluate(args) -> int:
    parsed = parse_case(args.case)
    policy = read_policy(args.policy, parsed.fingerprint)
    value = evaluate_policy_exact(parsed.system, parsed.lattice, policy,
                                  policy.config.measure)
    print(f"{value:.6f}")
    return 0


def cmd_simulate(args) -> int:
    parsed = parse_case(args.case)
    policy = read_policy(args.policy, parsed.fingerprint)
    sampler = SamplerMode.parse(args.sampling)
    _, mean, stderr = simulate_policy(parsed.system, parsed.lattice, policy,
                                      policy.config.measure, sampler,
                                      args.paths, args.seed)
    print(f"mean {mean:.6f} stderr {stderr:.6f} paths {args.paths} "
          f"sampler {sampler.value}")
    return 0


def cmd_plot(args) -> int:
    rows = read_convergence_csv(os.path.join(args.rundir, "convergence.csv"))
    out = args.out or os.path.join(args.rundir, "convergence.svg")
    caseio._atomic_write(out, convergence_svg(rows))
    print(out)
    return 0


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
