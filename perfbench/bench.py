"""Runs one workload for a fixed time and prints its metrics.

A run generates the workload's case file, times set-up, then repeats
closed-loop cycles of the workload's commands until the next cycle
would overrun ``--seconds`` (at least two cycles, so the determinism
check has something to compare). With ``--trace 0`` it reports the
end-to-end metrics, medians over the cycles. With ``--trace 1`` it
alternates untraced and traced cycles and reports the per-layer metrics
of the traced ones, plus the tracing overhead against the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it print every metric by name with its unit, and a full record goes to
``.perfbench/results/`` (spans to ``.perfbench/spans/``) in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import cases, spans, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"
OUT = ROOT / ".perfbench"

SETUP_REPS_FIRST = 3   # plus one after every cycle
MIN_CYCLES = 2

END_TO_END = (
    ("workload_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
# Printed with every untraced run, for the workloads they apply to.
DETAIL = (
    ("solve_s", "s"), ("evaluate_s", "s"), ("simulate_s", "s"),
    ("detequiv_s", "s"), ("iters_to_tol", "count"), ("time_to_tol_s", "s"),
)
PER_LAYER = (
    ("lp.solve.calls", "count", "lower"),
    ("lp.solve.busy_s", "s", "lower"),
    ("lp.solve.p50_ms", "ms", "lower"),
    ("lp.solve.p_hi_ms", "ms", "lower"),
    ("lp.rows.mean", "count", "lower"),
    ("lp.rows.max", "count", "lower"),
    ("lp.cols.mean", "count", "lower"),
    ("lp.binv_bytes", "B_computed", "lower"),
    ("hydro.build_stage_lp.calls", "count", "lower"),
    ("hydro.build_stage_lp.busy_s", "s", "lower"),
    ("hydro.solve_stage.calls", "count", "lower"),
    ("hydro.solve_stage.self_s", "s", "lower"),
    ("hydro.cut_rows.mean", "count", "lower"),
    ("engine.forward_pass.busy_s", "s", "lower"),
    ("engine.backward_pass.busy_s", "s", "lower"),
    ("engine.cuts.appended", "count", "lower"),
    ("engine.cuts.distinct", "count", "lower"),
    ("engine.cuts.distinct_ratio", "ratio", "higher"),
    ("engine.backward.solves_per_cut", "ratio", "lower"),
    ("risk.sampling_weights.calls", "count", "lower"),
    ("risk.sampling_weights.busy_s", "s", "lower"),
    ("scenario.sample_opening.calls", "count", "lower"),
    ("scenario.sample_opening.busy_s", "s", "lower"),
    ("treelp.build_tree_lp.busy_s", "s", "lower"),
    ("treelp.rows", "count", "lower"),
    ("treelp.cols", "count", "lower"),
    ("treelp.nnz", "count", "lower"),
    ("caseio.parse_case.busy_s", "s", "lower"),
    ("caseio.write_policy.busy_s", "s", "lower"),
    ("caseio.read_policy.busy_s", "s", "lower"),
    ("caseio.policy_bytes", "B", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class SetupError(RuntimeError):
    """The checkout lacks the program or the workload lacks a reference."""


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_THREADS")},
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def _program_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "hydrosddp" or name.startswith("hydrosddp.")}


def timed_setup(case_path):
    """Import hydrosddp afresh and parse the case.

    Returns (seconds, cli module, parsed case)."""
    if not (SRC / "hydrosddp" / "__init__.py").is_file():
        raise SetupError(f"no hydrosddp package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in _program_modules():
        del sys.modules[name]
    started = time.perf_counter()
    cli = importlib.import_module("hydrosddp.cli")
    parsed = cli.parse_case(case_path)
    took = time.perf_counter() - started
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported {cli.__file__}, not the checkout's")
    return took, cli, parsed


def timed_setup_aside(case_path):
    """One more set-up, timed, after which the running modules return."""
    running = _program_modules()
    try:
        return timed_setup(case_path)[0]
    finally:
        sys.modules.update(running)


@contextlib.contextmanager
def result_probe(cli):
    """Keep the return value of the commands' top-level calls, so checks
    see full precision rather than the printed digits."""
    probe, saved = {}, {}

    def keep(name, fn):
        def kept(*args, **kwargs):
            probe[name] = fn(*args, **kwargs)
            return probe[name]
        return kept

    for name in ("tree_objective", "evaluate_policy_exact", "simulate_policy"):
        saved[name] = getattr(cli, name)
        setattr(cli, name, keep(name, saved[name]))
    try:
        yield probe
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def _median(values):
    return statistics.median(values) if values else None


def workload_seconds(cycles):
    """Median time of each command over the cycles, summed over commands.

    Finer than the median cycle: a slow spell of the host that hits a
    different command in each cycle is rejected by every median."""
    labels = dict.fromkeys(label for c in cycles for label in c.times)
    return sum(_median([c.times[label] for c in cycles if label in c.times])
               for label in labels)


def run_cycles(workload, env, seconds, trace, setup_times):
    """Closed-loop cycles until the next one would overrun ``seconds``.

    With ``trace`` every second cycle is traced. A timed set-up follows
    each cycle and is appended to ``setup_times``. Returns (cycles,
    tracer, per-layer metrics of each traced cycle)."""
    modules = {name: sys.modules[f"hydrosddp.{name}"]
               for name in ("cli", "engine", "hydro", "treelp")}
    rundir = Path(env["rundir"])
    tracer = spans.Tracer()
    cycles, layer_rows = [], []
    first_lbs = None
    started = time.perf_counter()
    while True:
        traced = bool(trace) and len(cycles) % 2 == 1
        shutil.rmtree(rundir, ignore_errors=True)
        tracer.cycle = len(cycles)
        with (tracer.installed(modules) if traced
              else contextlib.nullcontext()):
            cy = workloads.run_cycle(workload, env, first_lbs)
        cy.traced = traced
        if first_lbs is None:
            first_lbs = cy.metrics.get("lower_bounds")
        if traced:
            policy = rundir / "policy.json"
            layer_rows.append(spans.cycle_metrics(
                tracer.spans, tracer.cycle,
                policy.stat().st_size if policy.exists() else 0))
        cycles.append(cy)
        setup_times.append(timed_setup_aside(env["case_path"]))
        elapsed = time.perf_counter() - started
        if (len(cycles) >= MIN_CYCLES
                and elapsed * (len(cycles) + 1) / len(cycles) > seconds):
            return cycles, tracer, layer_rows


def measure(workload, seed, seconds, trace, case_seed=None, workdir=None,
            case_doc=None, reference=None):
    """Run one workload; returns the full record of the run.

    ``case_doc`` and ``reference`` replace the generated case and its
    recorded optimum (the self-tests use them)."""
    case_seed = workload.default_case_seed if case_seed is None else case_seed
    if case_doc is None:
        case_doc = workloads.case_document(workload, case_seed)
    if reference is None:
        recorded = load_references()[workload.shape]
        if str(case_seed) not in recorded:
            raise SetupError(f"no recorded optimum for {workload.shape} case "
                             f"seed {case_seed}; known: {sorted(recorded)}")
        reference = recorded[str(case_seed)]

    workdir = Path(workdir or OUT / f"work-{os.getpid()}")
    workdir.mkdir(parents=True, exist_ok=True)
    case_path = workdir / "case.json"
    case_path.write_text(cases.dumps(case_doc), encoding="utf-8")
    rundir = workdir / "run"

    setup_checks = []
    digest = cases.digest(case_doc)
    if "case_sha256" in reference:
        setup_checks.append(("case_matches_reference",
                             digest == reference["case_sha256"], digest))

    try:
        setup_times = [timed_setup(str(case_path))[0]
                       for _ in range(SETUP_REPS_FIRST - 1)]
        took, cli, parsed = timed_setup(str(case_path))
        setup_times.append(took)
        with result_probe(cli) as probe:
            env = {"run_cli": cli.run_cli, "probe": probe,
                   "read_csv": sys.modules["hydrosddp.caseio"].read_convergence_csv,
                   "case_path": str(case_path), "rundir": str(rundir),
                   "optimum": float(reference["optimum"]), "seed": seed}
            cycles, tracer, layer_rows = run_cycles(workload, env, seconds,
                                                    trace, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [c for c in cycles if not c.traced]
    detail = {"workload_s": {"value": workload_seconds(plain), "unit": "s",
                             "n": len(plain)}}
    for name, unit in DETAIL:
        values = [c.metrics[name] for c in plain if name in c.metrics]
        if values:
            detail[name] = {"value": _median(values), "unit": unit,
                            "n": len(values)}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail["setup_s"] = {"value": _median(setup_times), "unit": "s",
                         "n": len(setup_times)}
    detail["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "n": 1}

    if trace:
        layers = {key: _median([row[key] for row in layer_rows])
                  for key in layer_rows[0]}
        traced_s = workload_seconds([c for c in cycles if c.traced])
        layers["trace.overhead_pct"] = (
            100.0 * (traced_s - detail["workload_s"]["value"])
            / detail["workload_s"]["value"])
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": layers[name], "unit": units[name]}
                   for name, _, _ in PER_LAYER}
        detail["lp.solve.p_hi_pct"] = {"value": layers["lp.solve.p_hi_pct"],
                                       "unit": "%", "n": len(layer_rows)}
    else:
        metrics = {name: {"value": detail[name]["value"], "unit": unit}
                   for name, unit, _, _ in END_TO_END}

    attempted = len(setup_checks) + sum(c.attempted for c in cycles)
    failed = (sum(1 for _, ok, _ in setup_checks if not ok)
              + sum(c.failed for c in cycles))
    return {
        "workload": workload.name,
        "seed": seed,
        "case_seed": case_seed,
        "case_sha256": digest,
        "case_fingerprint": parsed.fingerprint,
        "optimum": float(reference["optimum"]),
        "trace": int(bool(trace)),
        "environment": environment(),
        "setup_s_reps": setup_times,
        "setup_checks": setup_checks,
        "cycles": [{"traced": c.traced, "times": c.times,
                    "metrics": {k: v for k, v in c.metrics.items()
                                if k != "lower_bounds"},
                    "checks": c.checks, "errors": c.errors} for c in cycles],
        "layers_per_cycle": layer_rows,
        "detail": detail,
        "tracer": tracer,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def report(record):
    """Human-readable lines; the caller prints the result line last."""
    env = record["environment"]
    lines = [
        f"# {record['workload']} seed={record['seed']} "
        f"case_seed={record['case_seed']} "
        f"case={record['case_fingerprint'][:16]} trace={record['trace']} "
        f"cycles={len(record['cycles'])}",
        f"# python {env['python']} numpy {env['numpy']} blas {env['blas']} "
        f"blas_threads={env['blas_threads']} nproc={env['nproc']}",
    ]
    for name, entry in record["detail"].items():
        lines.append(f"  {name:<22} {entry['value']:>14.6g} {entry['unit']:<6}"
                     f" median of {entry['n']}")
    if record["trace"]:
        for name, entry in record["result"]["metrics"].items():
            lines.append(f"  {name:<32} {entry['value']:>14.6g} "
                         f"{entry['unit']}")
    res = record["result"]
    lines.append(f"  ops_attempted {res['attempted']}  "
                 f"failed_ops {res['failed']}")
    for cy in record["cycles"]:
        for name, ok, info in cy["checks"]:
            if not ok:
                lines.append(f"  FAILED check {name}: {info}")
        for err in cy["errors"]:
            lines.append(f"  FAILED command {err}")
    for name, ok, info in record["setup_checks"]:
        if not ok:
            lines.append(f"  FAILED check {name}: {info}")
    return lines


def save(record):
    tag = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    results, span_dir = OUT / "results", OUT / "spans"
    results.mkdir(parents=True, exist_ok=True)
    saved = {k: v for k, v in record.items() if k != "tracer"}
    (results / f"{tag}.json").write_text(json.dumps(saved, indent=1) + "\n",
                                         encoding="utf-8")
    if record["trace"]:
        span_dir.mkdir(parents=True, exist_ok=True)
        record["tracer"].write(span_dir / f"{tag}.jsonl", tag)


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    script = Path(__file__).resolve().parent / "run.py"
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(script), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = proc.returncode or 1
            total["correct"] = False
            continue
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, entry in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return status


def main(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--case-seed", type=int, default=None,
                        help="recorded case seed (default: the workload's)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        record = measure(workloads.WORKLOADS[args.workload], args.seed,
                         args.seconds, args.trace, case_seed=args.case_seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    save(record)
    print("\n".join(report(record)))
    print(json.dumps(record["result"]))
    return 0
