"""The three workloads: the commands one cycle runs through
``hydrosddp.cli.run_cli``, in process, and the checks made on their
outputs.

A cycle is one closed-loop pass: one client issues the workload's
commands back to back, each after the previous one returned. Every
command and every check counts as one attempted operation; a command
that exits non-zero or raises, and a check that does not hold, count as
failed. After a failed command the rest of the cycle is counted as
failed without running.

Seeds. The case comes from a recorded case seed, so its tree optimum is
a recorded reference. Training seeds and the seed of the risk-sampled
rollout are fixed per workload: the training seed moves the solve time
by about 15% and decides whether 30 iterations close the gap, and the
risk-rollout check is a 3-standard-error test that a fresh seed would
fail about once in 370 runs. The run's ``--seed`` drives the
uniform-sampled rollout, whose check holds by several standard errors.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
import traceback
from dataclasses import dataclass, field

from . import cases

TRAIN_SEED = 7
RISK_ROLLOUT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str            # case generator, a key of cases.SHAPES
    default_case_seed: int


WORKLOADS = {w.name: w for w in (
    Workload("deep-train",
             "write-heavy cut pool: 30 fixed SDDP iterations keep appending "
             "duplicate cuts after the bound closes, then exact evaluation",
             "deep", 7),
    Workload("wide-rollout",
             "read-heavy: a short 8-opening solve, then exact evaluation and "
             "risk and uniform rollouts against a fixed 448-cut pool",
             "wide", 1),
    Workload("tree-oracle",
             "one large dense deterministic-equivalent LP; the stage-LP, "
             "engine, risk and scenario layers do no work",
             "deep", 7),
)}

DEEP_ITERS, DEEP_PATHS = 30, 2
WIDE_ITERS, WIDE_PATHS, WIDE_ROLLOUT_PATHS = 8, 4, 24


@dataclass
class Cycle:
    """Commands, timings and checks of one pass through a workload."""

    run_cli: object
    probe: dict
    times: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)   # (name, passed, detail)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    traced: bool = False

    def command(self, label, argv) -> bool:
        self.attempted += 1
        if self.errors:
            self.failed += 1
            return False
        out = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                code = self.run_cli(argv)
        except Exception:  # a traceback is a failed command, not a crash
            code = traceback.format_exc()
        self.times[label] = time.perf_counter() - started
        if code != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv[:2])}: exit {code!r} "
                               f"{out.getvalue()[-400:]}")
            return False
        return True

    def check(self, name, passed, detail=""):
        self.attempted += 1
        self.failed += 0 if passed else 1
        self.checks.append((name, bool(passed), detail))


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _read_lower_bounds(read_csv, rundir):
    rows = read_csv(os.path.join(rundir, "convergence.csv"))
    return ([r["lower_bound"] for r in rows], [r["wall_ms"] for r in rows])


def _check_bounds_column(cy, lbs, optimum, first_lbs):
    worst = max(lbs)
    cy.check("lb_not_above_optimum", worst <= optimum + 1e-9 * abs(optimum),
             f"max LB {worst!r} vs optimum {optimum!r}")
    if first_lbs is not None:
        cy.check("lb_column_deterministic", lbs == first_lbs,
                 "lower_bound column equals the first cycle's")


def run_cycle(workload, env, first_lbs):
    """One cycle; ``env`` holds run_cli, the probe, paths and references.
    Returns the Cycle; ``cycle.metrics`` holds its end-to-end numbers."""
    cy = Cycle(env["run_cli"], env["probe"])
    case, rundir, optimum = env["case_path"], env["rundir"], env["optimum"]
    policy = os.path.join(rundir, "policy.json")
    m = cy.metrics

    if workload.name == "tree-oracle":
        if cy.command("detequiv", ["detequiv", case]):
            value = float(cy.probe["tree_objective"])
            cy.check("detequiv_matches_reference",
                     _rel(value, optimum) <= 1e-9,
                     f"{value!r} vs {optimum!r}")
        m["detequiv_s"] = cy.times.get("detequiv", 0.0)

    elif workload.name == "deep-train":
        ran = cy.command("solve", [
            "solve", case, "--iters", str(DEEP_ITERS),
            "--min-iters", str(DEEP_ITERS), "--paths", str(DEEP_PATHS),
            "--seed", str(TRAIN_SEED), "--sampling", "risk", "--out", rundir])
        if ran:
            lbs, wall_ms = _read_lower_bounds(env["read_csv"], rundir)
            m["lower_bounds"] = lbs
            _check_bounds_column(cy, lbs, optimum, first_lbs)
            cy.check("final_lb_at_optimum", _rel(lbs[-1], optimum) <= 1e-5,
                     f"{lbs[-1]!r} vs {optimum!r}")
            hit = [k for k, lb in enumerate(lbs) if _rel(lb, optimum) <= 1e-6]
            cy.check("lb_reaches_1e-6", bool(hit),
                     f"{len(lbs)} iterations")
            if hit:
                m["iters_to_tol"] = hit[0] + 1
                m["time_to_tol_s"] = sum(wall_ms[:hit[0] + 1]) / 1e3
        if cy.command("evaluate", ["evaluate", case, "--policy", policy]):
            value = float(cy.probe["evaluate_policy_exact"])
            cy.check("evaluate_at_optimum", _rel(value, optimum) <= 1e-5,
                     f"{value!r} vs {optimum!r}")
        m["solve_s"] = cy.times.get("solve", 0.0)
        m["evaluate_s"] = cy.times.get("evaluate", 0.0)

    else:  # wide-rollout
        ran = cy.command("solve", [
            "solve", case, "--iters", str(WIDE_ITERS),
            "--min-iters", str(WIDE_ITERS), "--paths", str(WIDE_PATHS),
            "--seed", str(TRAIN_SEED), "--sampling", "risk", "--out", rundir])
        if ran:
            lbs, _ = _read_lower_bounds(env["read_csv"], rundir)
            m["lower_bounds"] = lbs
            _check_bounds_column(cy, lbs, optimum, first_lbs)
        if cy.command("evaluate", ["evaluate", case, "--policy", policy]):
            value = float(cy.probe["evaluate_policy_exact"])
            cy.check("evaluate_not_below_optimum",
                     value >= optimum - 1e-9 * abs(optimum),
                     f"{value!r} vs {optimum!r}")
        rollouts = (("risk", RISK_ROLLOUT_SEED), ("uniform", env["seed"]))
        for sampling, seed in rollouts:
            if not cy.command(f"simulate_{sampling}", [
                    "simulate", case, "--policy", policy,
                    "--paths", str(WIDE_ROLLOUT_PATHS), "--seed", str(seed),
                    "--sampling", sampling]):
                continue
            _, mean, stderr = cy.probe["simulate_policy"]
            if sampling == "risk":
                cy.check("risk_mean_within_3se",
                         abs(mean - optimum) <= 3.0 * stderr,
                         f"{mean!r} +- {stderr!r} vs {optimum!r}")
            else:
                cy.check("uniform_mean_below_optimum", mean < optimum,
                         f"{mean!r} vs {optimum!r}")
        m["solve_s"] = cy.times.get("solve", 0.0)
        m["evaluate_s"] = cy.times.get("evaluate", 0.0)
        m["simulate_s"] = (cy.times.get("simulate_risk", 0.0)
                           + cy.times.get("simulate_uniform", 0.0))

    m["workload_s"] = sum(cy.times.values())
    return cy


def case_document(workload, case_seed):
    return cases.SHAPES[workload.shape](case_seed)
