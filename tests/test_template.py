"""Stage templates: a stage LP built once and stamped per (state, noise).

A stamped program must equal what ``build_stage_lp`` builds for the same
inputs, array for array and bit for bit, and the memo's path must still
reject noise and states that do not fit the case.
"""

import dataclasses
import re
import weakref

import numpy as np
import pytest

from casegen import cut_matrices, in_bounds_state, random_case
from hydrosddp import hydro
from hydrosddp.engine import Cut, CutPool, EngineConfig, StageMemo, train
from hydrosddp.hydro import (
    DimensionMismatch,
    StageTemplate,
    build_stage_lp,
    initial_state,
    solve_stage,
)
from hydrosddp.risk import RiskMeasure
from hydrosddp.scenario import Lattice, NoiseRealization

BLEND = RiskMeasure(lam=0.5, alpha=0.5)


def lagged_case(seed):
    """Two buses and a line, a renewable, and at least one inflow lag."""
    rng = np.random.default_rng(seed)
    while True:
        case, lattice = random_case(rng, T=5, L=3, n_hydro=2, n_thermal=3,
                                    max_lag=2, with_renewable=True,
                                    two_bus=True)
        if case.state_dimension() > len(case.hydros):
            return case, lattice, rng


def random_cuts(rng, case, L, counts):
    d = case.state_dimension()
    return cut_matrices(case, [[Cut(rng.uniform(-3.0, 0.0, d),
                                    rng.uniform(0.0, 5.0, d),
                                    float(rng.uniform(0.0, 50.0)))
                                for _ in range(k)] for k in counts[:L]])


def noises(case, lattice, rng):
    """Every opening of the lattice, plus noises that override the
    demand of each bus in turn."""
    found = [lattice.stage1] + [n for stage in lattice.openings for n in stage]
    for bus in case.buses:
        found.append(NoiseRealization(
            inflow_noise={h.name: float(rng.uniform(0.5, 5.0))
                          for h in case.hydros},
            renewable_cap={re.name: float(rng.uniform(0.0, 3.0))
                           for re in case.renewables},
            demand={bus.name: float(rng.uniform(5.0, 20.0))}))
    return found


def assert_same_program(stamped, built):
    for name in ("objective", "lower", "upper", "rows", "rhs"):
        a, b = getattr(stamped, name), getattr(built, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert stamped.senses == built.senses


@pytest.mark.parametrize("seed", [3, 17])
def test_stamped_program_equals_built_program(seed):
    case, lattice, rng = lagged_case(seed)
    T, L = lattice.num_stages, lattice.num_openings
    for t in (1, 3, T):
        for cuts in (None, cut_matrices(case, [[]] * L),
                     random_cuts(rng, case, L, [4, 0, 7])):
            template = StageTemplate(case, lattice, t, cuts, BLEND)
            first = in_bounds_state(rng, case)
            built, _ = build_stage_lp(case, t, first, lattice.stage1, cuts,
                                      BLEND, T, L)
            assert_same_program(template.program(first, lattice.stage1),
                                built)
            for noise in noises(case, lattice, rng):
                state = in_bounds_state(rng, case)
                built, _ = build_stage_lp(case, t, state, noise, cuts, BLEND,
                                          T, L)
                stamped = template.program(state, noise)
                assert_same_program(stamped, built)
                fresh = solve_stage(
                    StageTemplate(case, lattice, t, cuts, BLEND), state, noise)
                kept = solve_stage(template, state, noise)
                assert kept.objective == fresh.objective
                assert kept.immediate_cost == fresh.immediate_cost
                assert kept.state_out.tobytes() == fresh.state_out.tobytes()
                assert kept.state_dual.tobytes() == fresh.state_dual.tobytes()
                assert (kept.betas is None) == (t == T)
                if t < T:
                    assert kept.betas.tobytes() == fresh.betas.tobytes()


def test_template_is_built_at_the_canonical_point():
    case, lattice, rng = lagged_case(7)
    T, L = lattice.num_stages, lattice.num_openings
    for t in (1, 2, T):
        cuts = random_cuts(rng, case, L, [3, 1, 5]) if t < T else None
        # Two templates of one stage, first stamped at different points.
        first = StageTemplate(case, lattice, t, cuts, BLEND)
        first.program(in_bounds_state(rng, case), lattice.stage_noise(t, 1))
        second = StageTemplate(case, lattice, t, cuts, BLEND)
        second.program(in_bounds_state(rng, case),
                       lattice.stage_noise(t, L - 1))
        canonical = first.program(initial_state(case),
                                  lattice.stage_noise(t, 0))
        for lp in (second.lp, canonical):
            for name in ("objective", "lower", "upper", "rhs"):
                assert getattr(lp, name).tobytes() == \
                    getattr(first.lp, name).tobytes(), name
            for got, kept in zip(lp.nonzeros, first.lp.nonzeros):
                assert got.tobytes() == kept.tobytes()
            assert lp.senses == first.lp.senses


def test_memo_path_rejects_noise_and_states_that_do_not_fit():
    case, lattice, rng = lagged_case(5)
    T, L = lattice.num_stages, lattice.num_openings
    good = lattice.noise(2, 0)
    no_cap = NoiseRealization(inflow_noise=dict(good.inflow_noise),
                              demand=dict(good.demand))
    no_inflow = NoiseRealization(
        inflow_noise={case.hydros[0].name: 1.0},
        renewable_cap=dict(good.renewable_cap))
    openings = [list(stage) for stage in lattice.openings]
    openings[0][1:3] = [no_cap, no_inflow]
    broken = Lattice(T, L, lattice.stage1, openings)
    pool = CutPool(T, L, case.state_dimension())
    memo = StageMemo(case, broken, pool, BLEND)
    state = in_bounds_state(rng, case)
    memo.solve(2, state, 0)      # builds the stage-2 template
    with pytest.raises(DimensionMismatch, match=re.escape(
            "renewable_caps: missing renewable(s) ['w1']")):
        memo.solve(2, state, 1)
    with pytest.raises(DimensionMismatch, match=re.escape(
            f"inflows: missing hydro(s) ['{case.hydros[1].name}']")):
        memo.solve(2, state, 2)
    with pytest.raises(DimensionMismatch, match="state of shape"):
        memo.solve(2, state[:-1], 0)
    with pytest.raises(DimensionMismatch, match="state of shape"):
        memo.solve(2, np.append(state, 1.0), 0)
    # The template is built at opening 0, so noise there that does not
    # fit fails the stage's first solve, whichever opening it asks for.
    openings = [list(stage) for stage in lattice.openings]
    openings[0][0] = no_cap
    memo = StageMemo(case, Lattice(T, L, lattice.stage1, openings), pool,
                     BLEND)
    with pytest.raises(DimensionMismatch, match=re.escape(
            "renewable_caps: missing renewable(s) ['w1']")):
        memo.solve(2, state, 1)
    # A case built through the API whose demand stops short of the
    # lattice is refused when a stage past its last value is read.
    bus = case.buses[0]
    short = dataclasses.replace(case, buses=(
        dataclasses.replace(bus, demand=bus.demand[:1]), *case.buses[1:]))
    memo = StageMemo(short, lattice, pool, BLEND)
    memo.solve(1, state, None)
    with pytest.raises(DimensionMismatch, match=re.escape(
            "buses[0].demand: no value for stage 2")):
        memo.solve(2, state, 0)


def test_training_builds_each_stage_lp_once_per_cut_slice(monkeypatch):
    case, lattice, _ = lagged_case(11)
    builds = []
    build = hydro.build_stage_lp

    def logged(case, t, state, noise, cuts, *rest):
        builds.append((t, sum(len(c) for c in cuts) if cuts else 0))
        return build(case, t, state, noise, cuts, *rest)

    monkeypatch.setattr(hydro, "build_stage_lp", logged)
    cfg = EngineConfig(max_iterations=6, min_iterations=6, batch_size=3,
                       seed=2, measure=BLEND)
    policy = train(case, lattice, cfg)
    # Cut lists only grow, so a stage meets each slice size at most once.
    assert len(builds) == len(set(builds))
    assert len(builds) < policy.stage_solves


def test_equality_form_dies_with_its_memo():
    # The form, and on the dense kernels its copy of the matrix, lives on
    # the template's program, so no cache keeps it past the memo.
    case, lattice, _ = lagged_case(5)
    T, L = lattice.num_stages, lattice.num_openings
    memo = StageMemo(case, lattice, CutPool(T, L, case.state_dimension()),
                     BLEND)
    memo.solve(1, initial_state(case), None)
    (_, _, template), = memo._tables.values()
    dense = weakref.ref(template.lp._form.dense)
    del template
    assert dense() is not None
    del memo
    assert dense() is None


def test_stage_lp_cut_rows_are_the_pools_matrices():
    # The pool's [gradient | offset] rows are the one form of a cut: the
    # template's LP carries them as its cut rows, zero entries dropped,
    # and its crash start reads them as they are.
    case, lattice, _ = lagged_case(13)
    T, L = lattice.num_stages, lattice.num_openings
    d = case.state_dimension()
    pool = train(case, lattice, EngineConfig(
        max_iterations=4, min_iterations=4, batch_size=2, seed=1,
        measure=BLEND)).cuts
    zeros = 0
    for t in range(1, T):
        stack = np.vstack(pool.slice(t))
        template = StageTemplate(case, lattice, t, pool.slice(t), BLEND)
        lp = template.lp
        _, cols = build_stage_lp(case, t, initial_state(case),
                                 lattice.stage_noise(t, 0), pool.slice(t),
                                 BLEND, T, L)
        nz = lp.nonzeros
        copy = nz.row < d
        copies = nz.col[copy][np.argsort(nz.row[copy])].tolist()
        out = hydro.outgoing_state(case, cols, copies)
        # A cut row has +1 on its opening's beta, a CVaR row -1.
        on_beta = np.isin(nz.col, template.beta_cols) & (nz.val == 1.0)
        order = np.argsort(nz.row[on_beta])
        rows = nz.row[on_beta][order]
        assert rows.tolist() == template.cut_rows.tolist()
        counts = [len(m) for m in pool.slice(t)]
        assert nz.col[on_beta][order].tolist() == \
            np.repeat(template.beta_cols, counts).tolist()
        rank = {int(r): i for i, r in enumerate(rows)}
        pos = {c: k for k, c in enumerate(out)}
        block = np.zeros(stack.shape)
        block[:, -1] = lp.rhs[rows]
        entries = 0
        for c, r, v in zip(nz.col.tolist(), nz.row.tolist(),
                           nz.val.tolist()):
            if r in rank and c in pos:
                block[rank[r], pos[c]] = -v
                entries += 1
        assert np.array_equal(block, stack)
        assert entries == np.count_nonzero(stack[:, :-1])
        zeros += stack[:, :-1].size - entries
        assert template.cut_block.shape == stack.shape
        assert template.cut_block.tobytes() == stack.tobytes()
    assert zeros > 0
