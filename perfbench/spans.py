"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

Each public function of a layer is wrapped at the name its caller binds
(``hydro.solve`` for the stage LPs, ``engine.solve_stage`` for the
engine's stage solves, and so on), so nothing under ``src/`` changes.
A span holds its id, its parent's id, its name, start and end times, the
cycle it belongs to and, for a few layers, a small record of the call's
size. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import numpy as np

PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def _stage_cut_rows(args, kwargs, result):
    cuts = args[4] if len(args) > 4 else kwargs.get("cuts")
    return sum(len(c) for c in cuts) if cuts is not None else 0


def _lp_size(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    return (lp.num_rows, lp.num_vars)


def _tree_size(args, kwargs, result):
    return (result.num_rows, result.num_vars,
            int(np.count_nonzero(result.rows)))


def _cut_key(args, kwargs, result):
    t, l, cut = args[1:4]
    return (t, l, cut.gradient.tobytes(), cut.anchor.tobytes(),
            float(cut.intercept))


def layer_bindings(modules):
    """(namespace, attribute, span name, size recorder) for every wrapped
    call; ``modules`` maps layer names to the imported modules."""
    cli, engine, hydro, treelp = (modules[k] for k in
                                  ("cli", "engine", "hydro", "treelp"))
    return [
        (cli, "parse_case", "caseio.parse_case", None),
        (cli, "read_policy", "caseio.read_policy", None),
        (cli, "write_policy", "caseio.write_policy", None),
        (cli, "train", "engine.train", None),
        (cli, "evaluate_policy_exact", "engine.evaluate_policy_exact", None),
        (cli, "simulate_policy", "engine.simulate_policy", None),
        (cli, "tree_objective", "treelp.tree_objective", None),
        (engine, "forward_pass", "engine.forward_pass", None),
        (engine, "backward_pass", "engine.backward_pass", None),
        (engine.CutPool, "append", "engine.CutPool.append", _cut_key),
        (engine, "solve_stage", "hydro.solve_stage", None),
        (engine, "sampling_weights", "risk.sampling_weights", None),
        (engine, "sample_opening", "scenario.sample_opening", None),
        (hydro, "build_stage_lp", "hydro.build_stage_lp", _stage_cut_rows),
        (hydro, "solve", "lp.solve", _lp_size),
        (treelp, "build_tree_lp", "treelp.build_tree_lp", _tree_size),
        (treelp, "solve", "lp.solve", _lp_size),
    ]


class Tracer:
    """Span recorder; ``spans`` rows are
    [id, parent, name, start, end, cycle, size]."""

    def __init__(self):
        self.spans = []
        self.cycle = 0
        self._stack = []

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            row = [len(spans), stack[-1] if stack else -1, name,
                   time.perf_counter(), 0.0, self.cycle, None]
            spans.append(row)
            stack.append(row[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                row[4] = time.perf_counter()
                stack.pop()
            if size is not None:
                row[6] = size(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap every layer binding for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, size in layer_bindings(modules):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, size))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path, run_id):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, cycle, _ in self.spans:
                fh.write(json.dumps({"run": run_id, "cycle": cycle,
                                     "id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def high_percentile(values):
    """(percentile, value): the highest of PERCENTILES with at least ten
    samples beyond it, or the maximum when there are too few samples."""
    n = len(values)
    if n == 0:
        return 100.0, 0.0
    ordered = sorted(values)
    chosen = 100.0
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10 - 1e-9:
            chosen = p
    if chosen == 100.0:
        return chosen, ordered[-1]
    return chosen, float(np.percentile(ordered, chosen))


def cycle_metrics(spans, cycle, policy_bytes):
    """Per-layer metrics of one traced cycle, keyed by metric name."""
    rows = [s for s in spans if s[5] == cycle]
    by_id = {s[0]: s for s in rows}
    children_time = {}
    for s in rows:
        if s[1] in by_id:
            children_time[s[1]] = children_time.get(s[1], 0.0) + s[4] - s[3]

    def named(name):
        return [s for s in rows if s[2] == name]

    def busy(name):
        return sum((s[4] - s[3] for s in named(name)), 0.0)

    def self_time(name):
        return sum((s[4] - s[3] - children_time.get(s[0], 0.0)
                    for s in named(name)), 0.0)

    def parent_name(s):
        parent = by_id.get(s[1])
        return parent[2] if parent else None

    solves = named("lp.solve")
    solve_ms = [(s[4] - s[3]) * 1e3 for s in solves]
    sizes = [s[6] for s in solves]
    hi_pct, hi_ms = high_percentile(solve_ms)
    builds = named("hydro.build_stage_lp")
    appends = [s for s in named("engine.CutPool.append")
               if parent_name(s) == "engine.backward_pass"]
    appended = len(appends)
    distinct = len({s[6] for s in appends})
    backward_solves = sum(1 for s in named("hydro.solve_stage")
                          if parent_name(s) == "engine.backward_pass")
    tree = named("treelp.build_tree_lp")
    tree_size = tree[-1][6] if tree else (0, 0, 0)

    return {
        "lp.solve.calls": len(solves),
        "lp.solve.busy_s": busy("lp.solve"),
        "lp.solve.p50_ms": statistics.median(solve_ms) if solve_ms else 0.0,
        "lp.solve.p_hi_ms": hi_ms,
        "lp.solve.p_hi_pct": hi_pct,
        "lp.rows.mean": statistics.fmean(m for m, _ in sizes) if sizes else 0.0,
        "lp.rows.max": max((m for m, _ in sizes), default=0),
        "lp.cols.mean": statistics.fmean(n for _, n in sizes) if sizes else 0.0,
        "lp.binv_bytes": sum(8 * m * m for m, _ in sizes),
        "hydro.build_stage_lp.calls": len(builds),
        "hydro.build_stage_lp.busy_s": busy("hydro.build_stage_lp"),
        "hydro.solve_stage.calls": len(named("hydro.solve_stage")),
        "hydro.solve_stage.self_s": self_time("hydro.solve_stage"),
        "hydro.cut_rows.mean": (statistics.fmean(s[6] for s in builds)
                                if builds else 0.0),
        "engine.forward_pass.busy_s": busy("engine.forward_pass"),
        "engine.backward_pass.busy_s": busy("engine.backward_pass"),
        "engine.cuts.appended": appended,
        "engine.cuts.distinct": distinct,
        "engine.cuts.distinct_ratio": distinct / appended if appended else 0.0,
        "engine.backward.solves_per_cut": (backward_solves / appended
                                           if appended else 0.0),
        "risk.sampling_weights.calls": len(named("risk.sampling_weights")),
        "risk.sampling_weights.busy_s": busy("risk.sampling_weights"),
        "scenario.sample_opening.calls": len(named("scenario.sample_opening")),
        "scenario.sample_opening.busy_s": busy("scenario.sample_opening"),
        "treelp.build_tree_lp.busy_s": busy("treelp.build_tree_lp"),
        "treelp.rows": tree_size[0],
        "treelp.cols": tree_size[1],
        "treelp.nnz": tree_size[2],
        "caseio.parse_case.busy_s": busy("caseio.parse_case"),
        "caseio.write_policy.busy_s": busy("caseio.write_policy"),
        "caseio.read_policy.busy_s": busy("caseio.read_policy"),
        "caseio.policy_bytes": policy_bytes,
        "trace.spans": len(rows),
    }
