"""One SHA-256 per command output, to compare two checkouts byte for byte.

    python3 studies/digest.py          # recompute and print
    python3 studies/digest.py --write  # also rewrite studies/digest.txt
    python3 studies/digest.py --check  # also compare with it

Runs ``solve``, ``plot``, ``evaluate``, ``simulate`` (risk and uniform)
and ``detequiv`` through ``hydrosddp.cli.run_cli`` on ``cases/demo.json``
on the benchmark's case shapes (``perfbench/cases.py``, read only):
deep at case seeds 7 and 9, wide at 1 and 2, with the benchmark's
training settings, and on two cases with upstream hydros and more than
one inflow lag, each from ``tests/casegen.random_case`` with two buses
and a renewable, rewired, and written by ``caseio.case_to_dict`` with
λ = α = 0.5: ``cascade3`` at seed 3 (T=4, L=3, four hydros with up to
two lags; a 40-node tree), where h2 takes h1 and h4 takes h2 and h3;
and ``join3`` at seed 7 (T=5, L=2, five hydros with lags [2, 3, 3, 2,
3]; a 31-node tree), where h2 takes h1 and h5 takes h2, h3 and h4. A
sum of three upstream hydros or three lags depends on its order, so
``join3`` shows a change in that order. Each line is ``case command
output sha256``.

``solve`` gives one digest per file it writes, ``convergence.csv``
with its ``wall_ms`` column removed, since that is a timing, and
``summary.json`` as written, and one per top-level key of
``policy.json``: the schema version, the fingerprint, the cut pool
(dimensions and every cut list), the config block and the ``bounds``
rows with their ``wall_ms`` field removed. Together those cover the
whole file, and a change shows which part it moved. ``plot`` of the
run directory gives the digest of ``convergence.svg``, which reads no
``wall_ms``, so it covers the CSV reader and the chart. The other
commands print rounded numbers, so their digests cover the full
values their top-level call returned: the objective as ``float.hex``,
and for ``simulate`` every path's openings, states, stage costs and
sampling weights, then the mean and standard error. ``detequiv`` gives
a second line for the solution of its tree LP: status, objective as
``float.hex``, primal and dual bytes, pivots per phase and basis
factorizations, so a change on the simplex shows there even where the
objective keeps its bits.

After each case's digests comes one plain-text line of solver traffic
over all its commands, ``case traffic solves N started A
phase1_equality B phase1_inequality C``: of the N calls of
``lp.solve``, A took their start, B ran phase 1 with only equality rows
violated at the starting point, and C ran phase 1 with an inequality
row violated. A change that routes solves through phase 1 shows there.

``--write`` records the lines in ``studies/digest.txt``; ``--check``
prints each line that differs from the recorded ones and exits 1 if any
does, so a change that claims byte-identical outputs passes ``--check``
against the file its parent wrote. The digests hold on one host only:
the dense kernels call BLAS, whose rounding depends on the library
build and the processor, so write the file on the host that checks it.
"""

import argparse
import contextlib
import csv
import dataclasses
import difflib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "digest.txt"
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from casegen import random_case  # noqa: E402
from hydrosddp import caseio, cli, hydro, lp, treelp  # noqa: E402
from perfbench import cases  # noqa: E402

# The benchmark's solve settings per shape: iterations, paths per
# iteration, training seed. Rollouts run 24 paths at seed 1.
TRAIN = {"deep": (30, 2, 7), "wide": (8, 4, 7), "cascade": (30, 2, 7),
         "join": (30, 2, 7)}
ROLLOUT_PATHS, ROLLOUT_SEED = 24, 1
# (label, shape, case seed); the demo case is read from cases/demo.json.
CASES = (("demo", None, None), ("deep7", "deep", 7), ("deep9", "deep", 9),
         ("wide1", "wide", 1), ("wide2", "wide", 2),
         ("cascade3", "cascade", 3), ("join3", "join", 7))


def rewired(T, L, n_hydro, max_lag, upstream):
    """The shape of casegen's two-bus case with lags and a renewable, its
    hydros rewired into a cascade by ``upstream``, {hydro: upstream
    hydros}."""
    def shape(seed) -> dict:
        case, lattice = random_case(np.random.default_rng(seed), T=T, L=L,
                                    n_hydro=n_hydro, max_lag=max_lag,
                                    two_bus=True, with_renewable=True)
        hydros = tuple(dataclasses.replace(h,
                                           upstream=upstream.get(h.name, ()))
                       for h in case.hydros)
        doc = caseio.case_to_dict(dataclasses.replace(case, hydros=hydros),
                                  lattice)
        doc["risk"] = {"lambda": 0.5, "alpha": 0.5}
        return doc
    return shape


SHAPES = {**cases.SHAPES,
          "cascade": rewired(4, 3, 4, 2, {"h2": ("h1",), "h4": ("h2", "h3")}),
          "join": rewired(5, 2, 5, 3, {"h2": ("h1",),
                                       "h5": ("h2", "h3", "h4")})}


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def float_bytes(*values) -> bytes:
    return b" ".join(float(v).hex().encode() for v in values)


def path_bytes(path) -> bytes:
    parts = []
    for step in path.steps:
        parts.append(repr(step.opening).encode())
        parts.append(np.asarray(step.state_out.flatten(), float).tobytes())
        parts.append(float_bytes(step.immediate_cost))
        if step.weights is not None:
            parts.append(step.weights.weights.tobytes())
    return b"|".join(parts)


def solution_bytes(sol) -> bytes:
    return b"|".join([
        sol.status.encode(), float_bytes(sol.objective), sol.primal.tobytes(),
        sol.duals.tobytes(),
        repr((sol.phase1_pivots, sol.phase2_pivots,
              sol.refactorizations)).encode()])


def run(argv, *hooks):
    """Run one command quietly; the last return value of each hooked
    ``(module, name)`` call, by name."""
    kept, saved = {}, [(mod, name, getattr(mod, name)) for mod, name in hooks]

    def keep(name, fn):
        def kept_call(*args, **kwargs):
            kept[name] = fn(*args, **kwargs)
            return kept[name]
        return kept_call

    for mod, name, fn in saved:
        setattr(mod, name, keep(name, fn))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run_cli(argv)
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {code}")
    return kept


def solve_digests(rundir):
    with open(os.path.join(rundir, "convergence.csv"), newline="") as fh:
        rows = [r[:-1] for r in csv.reader(fh)]     # wall_ms is last
    yield "convergence.csv", sha(json.dumps(rows))
    with open(os.path.join(rundir, "policy.json")) as fh:
        policy = json.load(fh)
    policy["bounds"] = [row[:-1] for row in policy["bounds"]]
    for key in sorted(policy):
        yield f"policy.json:{key}", sha(json.dumps(policy[key],
                                                   sort_keys=True))
    with open(os.path.join(rundir, "summary.json"), "rb") as fh:
        yield "summary.json", sha(fh.read())


def case_digests(label, case, flags, workdir):
    rundir = os.path.join(workdir, label)
    policy = os.path.join(rundir, "policy.json")
    run(["solve", case, *flags, "--out", rundir])
    for output, digest in solve_digests(rundir):
        yield "solve", output, digest
    run(["plot", rundir])
    with open(os.path.join(rundir, "convergence.svg"), "rb") as fh:
        yield "plot", "convergence.svg", sha(fh.read())
    value = run(["evaluate", case, "--policy", policy],
                (cli, "evaluate_policy_exact"))["evaluate_policy_exact"]
    yield "evaluate", "value", sha(float_bytes(value))
    for sampling in ("risk", "uniform"):
        paths, mean, stderr = run(
            ["simulate", case, "--policy", policy, "--paths",
             str(ROLLOUT_PATHS), "--seed", str(ROLLOUT_SEED), "--sampling",
             sampling], (cli, "simulate_policy"))["simulate_policy"]
        yield (f"simulate_{sampling}", "paths",
               sha(b"\n".join(map(path_bytes, paths))
                   + float_bytes(mean, stderr)))
    kept = run(["detequiv", case], (cli, "tree_objective"), (treelp, "solve"))
    yield "detequiv", "value", sha(float_bytes(kept["tree_objective"]))
    yield "detequiv", "solution", sha(solution_bytes(kept["solve"]))


def counting_solve(counts):
    """``lp.solve``, counting each call into ``counts`` by the path it
    took: its start, or phase 1 by the rows violated where phase 1
    starts, each column at a finite bound (the lower one first) or 0."""
    def solve(program, start=None):
        sol = lp.solve(program, start)
        counts["solves"] += 1
        if sol.started:
            counts["started"] += 1
            return sol
        point = np.where(np.isfinite(program.lower), program.lower,
                         np.where(np.isfinite(program.upper), program.upper,
                                  0.0))
        gap = lp._row_gap(program, program._form, point)
        violated = np.abs(gap) > lp._TOL_STEP
        if violated.any():
            equality = np.array(program.senses, dtype=object) == lp.EQUAL
            counts["phase1_inequality" if (violated & ~equality).any()
                   else "phase1_equality"] += 1
        return sol
    return solve


def digest_lines():
    """Each case's digest lines and then its traffic line, printed as
    they come."""
    with tempfile.TemporaryDirectory() as workdir:
        for label, shape, seed in CASES:
            if shape is None:
                case, flags = str(ROOT / "cases/demo.json"), []
            else:
                case = os.path.join(workdir, f"{label}.json")
                with open(case, "w") as fh:
                    fh.write(cases.dumps(SHAPES[shape](seed)))
                iters, paths, train_seed = TRAIN[shape]
                flags = ["--iters", str(iters), "--min-iters", str(iters),
                         "--paths", str(paths), "--seed", str(train_seed),
                         "--sampling", "risk"]
            counts = dict.fromkeys(("solves", "started", "phase1_equality",
                                    "phase1_inequality"), 0)
            hydro.solve = treelp.solve = counting_solve(counts)
            try:
                for command, output, digest in case_digests(label, case,
                                                            flags, workdir):
                    yield f"{label} {command} {output} {digest}"
            finally:
                hydro.solve = treelp.solve = lp.solve
            yield " ".join([label, "traffic", *(f"{key} {count}"
                                                for key, count in
                                                counts.items())])


def check(lines, recorded):
    """Print each line that differs between ``recorded`` (``-``) and
    ``lines`` (``+``); whether none does."""
    diff = list(difflib.ndiff(recorded, lines))
    changed = [line for line in diff if line[0] in "+-"]
    for line in changed:
        print(line)
    same = sum(line[0] == " " for line in diff)
    print(f"{same} of {len(recorded)} recorded lines identical")
    return not changed


def main(argv):
    parser = argparse.ArgumentParser(prog="studies/digest.py")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    lines = []
    for line in digest_lines():
        lines.append(line)
        print(line, flush=True)
    if args.check:
        recorded = OUT.read_text(encoding="utf-8").splitlines()
        return 0 if check(lines, recorded) else 1
    if args.write:
        OUT.write_text("".join(f"{line}\n" for line in lines),
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
