"""Command-line surface: solve, detequiv, evaluate, simulate, plot.

Exit codes: 0 success, 1 usage error, 2 data error (schema, references,
fingerprints, corrupt, undecodable, oversized or mismatched inputs, and
files that cannot be read or written), 3 numerical failure, including a
solve that cannot certify its point.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import caseio
from .caseio import (
    CorruptFile,
    FingerprintMismatch,
    SETTINGS,
    SchemaError,
    bounds_to_csv,
    config_from_dict,
    parse_case,
    read_convergence_csv,
    read_policy,
    write_policy,
)
from .engine import EngineConfig, evaluate_policy_exact, simulate_policy, train
from .hydro import DimensionMismatch, StageInfeasible
from .lp import LPError
from .plotting import convergence_svg
from .scenario import SamplerMode, TreeTooLarge
from .treelp import tree_objective

DATA_ERRORS = (SchemaError, FingerprintMismatch, CorruptFile, TreeTooLarge,
               DimensionMismatch, OSError)
NUMERIC_ERRORS = (StageInfeasible, LPError, ArithmeticError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydrosddp",
        description="Risk-averse hydrothermal dispatch via multicut SDDP "
                    "with CVaR-adjusted forward sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Run-setting flags, each stored under its case-file name; one left
    # out keeps the case file's value (the policy's for simulate).
    def add_risk_flags(p):
        p.add_argument("--lambda", dest="lambda", type=float,
                       help="CVaR weight in [0,1]")
        p.add_argument("--alpha", type=float, help="CVaR level in [0,1)")

    def add_sampling_flags(p):
        p.add_argument("--paths", dest="batch_size", type=int,
                       help="forward paths per iteration or rollout")
        p.add_argument("--seed", type=int)
        p.add_argument("--sampling", choices=[m.value for m in SamplerMode])

    p = sub.add_parser("solve", help="train a policy and write run outputs")
    p.add_argument("case")
    p.add_argument("--iters", dest="max_iterations", type=int)
    p.add_argument("--min-iters", dest="min_iterations", type=int)
    add_sampling_flags(p)
    add_risk_flags(p)
    p.add_argument("--out", help="output directory")
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
    add_sampling_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plot", help="emit an SVG convergence chart")
    p.add_argument("rundir")
    p.add_argument("--out", help="SVG path (default: RUNDIR/convergence.svg)")
    p.set_defaults(func=cmd_plot)
    return parser


# The flags named otherwise than the settings they store.
FLAG_NAMES = {"batch_size": "--paths", "max_iterations": "--iters",
              "min_iterations": "--min-iters"}


def resolve_config(base: EngineConfig, args) -> EngineConfig:
    """``base`` with the run settings given as flags applied on top. A
    refused flag of ``FLAG_NAMES`` is named as typed, with its value."""
    flags = {key: getattr(args, key) for keys in SETTINGS.values()
             for key in keys if getattr(args, key, None) is not None}
    # Only solve takes --iters, on the case file's settings: a maximum
    # below the minimum the file sets is the flag's doing, not the file's.
    iters = flags.get("max_iterations")
    if ("min_iterations" not in flags and iters is not None
            and 1 <= iters < base.min_iterations):
        raise SchemaError(
            f"--iters {iters} is below min_iterations "
            f"{base.min_iterations} from the case file; pass --min-iters "
            f"{iters} or lower as well")
    try:
        return config_from_dict(flags, "command line", base)
    except SchemaError as exc:
        # The message leads with "command line.<setting>".
        key = str(exc).partition(".")[2].split(" ", 1)[0]
        if key not in FLAG_NAMES or key not in flags:
            raise
        raise SchemaError(
            f"{exc}, got {FLAG_NAMES[key]} {flags[key]}") from None


def cmd_solve(args) -> int:
    parsed = parse_case(args.case)
    config = resolve_config(parsed.config, args)
    stem = os.path.splitext(os.path.basename(args.case))[0]
    outdir = args.out or f"{stem}-run"
    os.makedirs(outdir, exist_ok=True)
    policy = train(parsed.system, parsed.lattice, config,
                   fingerprint=parsed.fingerprint)
    bounds = policy.bounds

    caseio._atomic_write(os.path.join(outdir, "convergence.csv"),
                         bounds_to_csv(bounds))
    write_policy(policy, os.path.join(outdir, "policy.json"))
    last = bounds[-1]
    summary = {
        "iterations": len(bounds),
        "lower_bound": last.lower_bound,
        "ub_mean": last.ub_mean,
        "ub_stderr": last.ub_stderr,
        "ub_samples": last.ub_samples,
        "sampler": last.sampler,
        "cut_count": len(policy.cuts),
        "duplicate_cuts": policy.cuts.duplicates,
        "stage_solves": policy.stage_solves,
        "reused_solves": policy.reused_solves,
        "phase1_pivots": policy.phase1_pivots,
        "start_fallbacks": policy.start_fallbacks,
        "phase2_pivots": policy.phase2_pivots,
        "lambda": config.measure.lam,
        "alpha": config.measure.alpha,
        "seed": config.seed,
        "fingerprint": parsed.fingerprint,
    }
    caseio._atomic_write(os.path.join(outdir, "summary.json"),
                         json.dumps(summary, indent=2) + "\n")
    print(f"trained {len(bounds)} iteration(s); "
          f"lower bound {last.lower_bound:.6f}; "
          f"{len(policy.cuts)} cuts ({policy.cuts.duplicates} duplicates "
          f"dropped) -> {outdir}")
    return 0


def cmd_detequiv(args) -> int:
    parsed = parse_case(args.case)
    measure = resolve_config(parsed.config, args).measure
    value = tree_objective(parsed.system, parsed.lattice, measure)
    print(f"{value:.6f}")
    return 0


def cmd_evaluate(args) -> int:
    parsed = parse_case(args.case)
    policy = read_policy(args.policy, parsed.fingerprint)
    value = evaluate_policy_exact(parsed.system, parsed.lattice,
                                  policy.cuts, policy.config.measure)
    print(f"{value:.6f}")
    return 0


def cmd_simulate(args) -> int:
    parsed = parse_case(args.case)
    policy = read_policy(args.policy, parsed.fingerprint)
    config = resolve_config(policy.config, args)
    _, mean, stderr = simulate_policy(parsed.system, parsed.lattice,
                                      policy.cuts, config.measure,
                                      config.sampler_mode, config.batch_size,
                                      config.seed)
    print(f"mean {mean:.6f} stderr {stderr:.6f} paths {config.batch_size} "
          f"sampler {config.sampler_mode.value}")
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
