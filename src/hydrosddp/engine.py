"""Multicut SDDP engine: sampled forward passes, cut-generating backward
passes, bound tracking, and exact policy evaluation.

Each iteration runs a batch of forward paths (uniform or risk-adjusted
sampling), logs the deterministic lower bound and the statistical upper
bound estimate, checks the stopping rule, and then sweeps backward
appending one distinct cut per (path, stage, opening) to the pool: a cut
whose stage-LP row lies within ``DEDUP_RTOL`` (1e-9 relative, max-norm)
of a row the pool already holds at that (stage, opening) is dropped, so
rows that differ only by rounding do not grow the stage LP. Cuts created
while processing stage t+1 are visible to the stage-t solves of the
same sweep, matching the backward order of the recursion.

Stage solves go through a ``StageMemo``, the one holder of a run's
case, lattice, cut pool and risk measure: a stage LP is a pure function
of (stage, incoming state, opening) and the stage's cut rows, so a
solution is reused until a distinct cut lands at that stage. A state is
``hydro``'s flat vector, and nothing writes one in place: the memo keys
a state by its bytes, and the cut pool copies each cut's anchor into
its own rows.
``forward_pass`` and ``backward_pass`` read every fixed input from the
memo they are given. ``train`` shares one memo across all its
iterations; ``evaluate_policy_exact`` and ``simulate_policy`` each build
their own over the pool they are given.

In alternating mode, odd iterations sample uniformly and skip both the
upper-bound estimate and the convergence check; even iterations use the
risk-adjusted weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .hydro import (
    DimensionMismatch,
    StageTemplate,
    SystemCase,
    initial_state,
    solve_stage,
)
from .risk import RiskMeasure, sampling_weights, uniform_weights
from .scenario import (
    ENUMERATION_CAP,
    Lattice,
    PathRecord,
    PathStep,
    SamplerMode,
    TreeTooLarge,
    path_rng,
    sample_opening,
)

# Two stage-LP cut rows closer than this, relative to the larger of the
# two in max-norm, are one row to the pool (exact equality is distance 0).
DEDUP_RTOL = 1e-9


class EmptyBatch(ValueError):
    """Upper-bound statistics requested over zero paths."""


class Cut(NamedTuple):
    """Affine minorant q + gradient . (x - anchor) of one cost-to-go; a
    plain record, which ``CutPool.append`` checks and stores.

    ``offset`` = q - gradient . anchor is the right-hand side of the cut's
    stage-LP row ``beta - gradient . x >= offset``.
    """

    gradient: np.ndarray
    anchor: np.ndarray
    intercept: float

    @property
    def offset(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.intercept - self.gradient @ self.anchor)


class CutPool:
    """Cuts indexed by (stage t in 1..T-1, opening l in 0..L-1).

    Each (t, l) keeps one ``(k, 2d+2)`` matrix, a row ``[gradient |
    offset | anchor | intercept]`` per kept cut in append order. Its
    first d+1 columns are the stage-LP rows ``[gradient | offset]``,
    which differ from one another by more than ``DEDUP_RTOL`` relative;
    ``slice`` hands them to the stage LP and ``items`` reads the cuts
    back from the same rows, for the policy file. ``duplicates`` counts
    the cuts that ``append`` dropped as equal or near-equal to a kept row.
    """

    def __init__(self, num_stages: int, num_openings: int, state_dim: int):
        self.num_stages = num_stages
        self.num_openings = num_openings
        self.state_dim = state_dim
        self.duplicates = 0
        self._rows = {(t, l): np.empty((0, 2 * state_dim + 2))
                      for t in range(1, num_stages)
                      for l in range(num_openings)}

    def append(self, t: int, l: int, cut: Cut) -> bool:
        """Add ``cut`` unless its row r = [gradient | offset] is a
        duplicate of a row r_i kept at (t, l), meaning
        max|r - r_i| <= DEDUP_RTOL * max(max|r|, max|r_i|); returns
        whether it was added. The first of a set of near-equal rows is
        the one kept, so the pool depends only on the append order.
        Raises ValueError if the gradient or the anchor is not of shape
        (d,), or if an entry of the row, offset included, is not finite."""
        d = self.state_dim
        cut = Cut(np.ascontiguousarray(cut.gradient, dtype=float),
                  np.ascontiguousarray(cut.anchor, dtype=float),
                  float(cut.intercept))
        if cut.gradient.shape != (d,) or cut.anchor.shape != (d,):
            raise ValueError(f"cut gradient and anchor must be ({d},)")
        row = np.concatenate([cut.gradient, [cut.offset], cut.anchor,
                              [cut.intercept]])
        if not np.isfinite(row).all():
            raise ValueError("cut coefficients and offset must be finite")
        kept = self._rows[(t, l)]
        head, row_lp = kept[:, :d + 1], row[:d + 1]
        scale = np.maximum(np.abs(head).max(axis=1), np.abs(row_lp).max())
        if np.any(np.abs(head - row_lp).max(axis=1) <= DEDUP_RTOL * scale):
            self.duplicates += 1
            return False
        self._rows[(t, l)] = np.vstack([kept, row])
        return True

    def stage_size(self, t: int) -> int:
        """Number of cuts feeding the stage-t subproblem (0 at the last
        stage); the pool is append-only, so it identifies the slice."""
        return sum(map(len, self.slice(t) or ()))

    def slice(self, t: int):
        """Per-opening ``(k_l, d+1)`` views of the stage-LP rows feeding
        stage t; None at the last stage, which has no future. A matrix is
        replaced, never grown, so a slice never changes."""
        return (None if t >= self.num_stages else
                [self._rows[(t, l)][:, :self.state_dim + 1]
                 for l in range(self.num_openings)])

    def __len__(self):
        return sum(map(len, self._rows.values()))

    def items(self):
        """((t, l), cuts) pairs, cuts being ``Cut`` views of the rows."""
        d = self.state_dim
        for key, rows in self._rows.items():
            yield key, [Cut(r[:d], r[d + 1:-1], r[-1]) for r in rows]


@dataclass(frozen=True)
class EngineConfig:
    max_iterations: int = 20
    min_iterations: int = 1
    batch_size: int = 1
    seed: int = 0
    sampler_mode: SamplerMode = SamplerMode.RISK_ADJUSTED
    measure: RiskMeasure = field(default_factory=RiskMeasure)
    ub_confidence: float = 1.96

    def __post_init__(self):
        # Each message leads with its setting's case-file name.
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 1 <= self.min_iterations <= self.max_iterations:
            raise ValueError("min_iterations must be in [1, max_iterations]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.ub_confidence < 0:
            raise ValueError("ub_confidence must be nonnegative")


@dataclass(frozen=True)
class BoundsEntry:
    iteration: int
    lower_bound: float
    ub_mean: Optional[float]
    ub_stderr: Optional[float]
    ub_samples: Optional[int]
    sampler: str
    wall_ms: float


@dataclass
class TrainedPolicy:
    cuts: CutPool
    bounds: list             # one BoundsEntry per iteration
    config: EngineConfig
    fingerprint: str = ""
    stage_solves: int = 0    # stage LPs training solved
    reused_solves: int = 0   # stage solves training answered from its memo
    phase1_pivots: int = 0   # simplex iterations of those stage LPs
    phase2_pivots: int = 0
    start_fallbacks: int = 0  # of those stage LPs, the ones that ran phase 1


class StageMemo:
    """Stage solutions keyed on (stage t, incoming-state bytes, opening),
    the opening being None at stage 1.

    An entry stays valid while the stage-t cut rows are unchanged; when
    ``cuts.stage_size(t)`` moves, the stage's whole table is dropped,
    together with the ``StageTemplate`` its solves stamp their LPs from,
    and a template over the grown cut rows takes its place. The case,
    lattice and measure are fixed for the memo's lifetime, so they stay
    out of the key; a pool whose shape does not fit the case and lattice
    raises DimensionMismatch. ``solves`` counts the stage LPs solved,
    ``reuses`` the calls answered from a table, ``phase1_pivots`` /
    ``phase2_pivots`` the simplex iterations of the solved LPs, and
    ``start_fallbacks`` the solved LPs whose crash start was set aside
    for the two-phase path.
    """

    def __init__(self, case: SystemCase, lattice: Lattice, cuts: CutPool,
                 measure: RiskMeasure):
        shape = (lattice.num_stages, lattice.num_openings,
                 case.state_dimension())
        if (cuts.num_stages, cuts.num_openings, cuts.state_dim) != shape:
            raise DimensionMismatch(
                f"cut pool of (stages, openings, state dimension) "
                f"{(cuts.num_stages, cuts.num_openings, cuts.state_dim)} "
                f"does not fit the case's {shape}")
        self.case, self.lattice = case, lattice
        self.cuts, self.measure = cuts, measure
        self.solves = 0
        self.reuses = 0
        self.phase1_pivots = 0
        self.phase2_pivots = 0
        self.start_fallbacks = 0
        # t -> (stage size, {(state bytes, opening): sol}, template)
        self._tables = {}

    def solve(self, t: int, state: np.ndarray, opening: Optional[int]):
        size = self.cuts.stage_size(t)
        lattice = self.lattice
        held, table, template = self._tables.get(t, (None, None, None))
        if held != size:
            table = {}
            template = StageTemplate(self.case, lattice, t,
                                     self.cuts.slice(t), self.measure)
            self._tables[t] = (size, table, template)
        key = (state.tobytes(), opening)
        sol = table.get(key)
        if sol is None:
            sol = solve_stage(template, state, lattice.stage_noise(t, opening))
            table[key] = sol
            self.solves += 1
            self.phase1_pivots += sol.phase1_pivots
            self.phase2_pivots += sol.phase2_pivots
            self.start_fallbacks += sol.start_fallback
        else:
            self.reuses += 1
        return sol


def effective_sampler(mode: SamplerMode, iteration: int) -> SamplerMode:
    """Resolve alternation: even iterations risk-adjusted, odd uniform."""
    if mode is SamplerMode.ALTERNATING:
        return (SamplerMode.RISK_ADJUSTED if iteration % 2 == 0
                else SamplerMode.UNIFORM)
    return mode


def forward_pass(memo: StageMemo, sampler: SamplerMode, iteration: int,
                 batch_size: int, seed: int):
    """Run one batch of forward paths through ``memo``'s case, lattice,
    cut pool and measure.

    Returns (paths, stage1_objective); the stage-1 subproblem is
    deterministic, so it is solved once and shared across the batch.
    """
    T, L = memo.lattice.num_stages, memo.lattice.num_openings
    measure = memo.measure
    risk_adjusted = effective_sampler(sampler, iteration) is SamplerMode.RISK_ADJUSTED
    root = memo.solve(1, initial_state(memo.case), None)

    paths = []
    for s in range(batch_size):
        rng = path_rng(seed, iteration, s)
        steps = []
        sol, opening = root, None
        for t in range(1, T + 1):
            weights = None
            if t < T:
                weights = (sampling_weights(sol.betas, measure)
                           if risk_adjusted else uniform_weights(L))
            steps.append(PathStep(opening, sol.state_out,
                                  sol.immediate_cost, weights))
            if t == T:
                break
            opening = sample_opening(weights, rng)
            sol = memo.solve(t + 1, sol.state_out, opening)
        paths.append(PathRecord(tuple(steps)))
    return paths, root.objective


def backward_pass(memo: StageMemo, paths) -> int:
    """Sweep stages T..2 adding one distinct cut per (path, opening) to
    ``memo``'s pool; returns the number of cuts the pool kept.

    Stage solves go through ``memo``, so repeated (state, opening) pairs
    are solved once while the stage's cuts are unchanged; the pool drops
    their repeated cuts. Each cut is anchored at the path's state, which
    the pool copies into its rows.
    """
    T, L = memo.lattice.num_stages, memo.lattice.num_openings
    cuts = memo.cuts
    added = 0
    for t in range(T, 1, -1):
        for path in paths:
            state = path.steps[t - 2].state_out
            for l in range(L):
                sol = memo.solve(t, state, l)
                added += cuts.append(
                    t - 1, l, Cut(sol.state_dual, state, sol.objective))
    return added


def upper_bound_estimate(paths):
    """Mean and standard error of total path costs."""
    if not paths:
        raise EmptyBatch("no forward paths to estimate from")
    totals = np.array([p.total_cost for p in paths])
    mean = float(totals.mean())
    stderr = (float(totals.std(ddof=1) / np.sqrt(totals.size))
              if totals.size > 1 else 0.0)
    return mean, stderr


def train(case: SystemCase, lattice: Lattice, config: EngineConfig,
          fingerprint: str = "") -> TrainedPolicy:
    """Full training loop; returns the TrainedPolicy, whose ``bounds``
    hold one BoundsEntry per iteration."""
    measure = config.measure
    pool = CutPool(lattice.num_stages, lattice.num_openings,
                   case.state_dimension())
    memo = StageMemo(case, lattice, pool, measure)
    bounds = []

    for k in range(1, config.max_iterations + 1):
        started = time.perf_counter()
        paths, lb = forward_pass(memo, config.sampler_mode, k,
                                 config.batch_size, config.seed)
        eff = effective_sampler(config.sampler_mode, k)
        skip_ub = (config.sampler_mode is SamplerMode.ALTERNATING
                   and eff is SamplerMode.UNIFORM)
        ub_mean = ub_stderr = ub_count = None
        converged = False
        if not skip_ub:
            ub_mean, ub_stderr = upper_bound_estimate(paths)
            ub_count = len(paths)
            eligible = (eff is SamplerMode.RISK_ADJUSTED or measure.lam == 0.0)
            if k >= config.min_iterations and eligible:
                test_ub = ub_mean - config.ub_confidence * ub_stderr
                converged = lb >= test_ub - 1e-12

        if not converged:
            backward_pass(memo, paths)

        wall_ms = (time.perf_counter() - started) * 1e3
        bounds.append(BoundsEntry(k, lb, ub_mean, ub_stderr, ub_count,
                                  eff.value, wall_ms))
        if converged:
            break

    return TrainedPolicy(pool, bounds, config, fingerprint, memo.solves,
                         memo.reuses, memo.phase1_pivots, memo.phase2_pivots,
                         memo.start_fallbacks)


def evaluate_policy_exact(case: SystemCase, lattice: Lattice, cuts: CutPool,
                          measure: RiskMeasure) -> float:
    """Exact nested value of the policy of the pool ``cuts`` over the
    full tree.

    At each node the stage problem is solved under the pool, the node's
    weight vector is derived from its betas, and children are combined
    with those weights; leaves contribute their immediate cost.
    """
    T, L = lattice.num_stages, lattice.num_openings
    if L ** (T - 1) > ENUMERATION_CAP:
        raise TreeTooLarge(f"{L ** (T - 1)} scenario paths exceed the cap "
                           f"of {ENUMERATION_CAP}")
    memo = StageMemo(case, lattice, cuts, measure)

    def value(t: int, state: np.ndarray, opening) -> float:
        sol = memo.solve(t, state, opening)
        if t == T:
            return sol.immediate_cost
        weights = sampling_weights(sol.betas, measure).weights
        total = sol.immediate_cost
        for l in range(L):
            if weights[l] > 0.0:
                total += weights[l] * value(t + 1, sol.state_out, l)
        return total

    return value(1, initial_state(case), None)


def simulate_policy(case: SystemCase, lattice: Lattice, cuts: CutPool,
                    measure: RiskMeasure, sampler: SamplerMode,
                    num_paths: int, seed: int):
    """Monte Carlo rollout of the policy of the pool ``cuts``; no cuts
    are added.

    The paths are those of a forward pass at iteration 0, so alternating
    sampling draws them risk-adjusted. Returns (paths, mean, stderr) of
    total path costs under `sampler`.
    """
    memo = StageMemo(case, lattice, cuts, measure)
    paths, _ = forward_pass(memo, sampler, 0, num_paths, seed)
    mean, stderr = upper_bound_estimate(paths)
    return paths, mean, stderr
