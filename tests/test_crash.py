"""The crash start of the stage LPs.

``StageTemplate.start`` writes down a primal feasible basis of each
stamp, so ``lp.solve`` runs phase 2 alone. It must be taken on every
stage LP of a case with nonnegative inflows, reach the optimum of a
start-free solve, and fall back to the two-phase path, byte for byte,
where it is out of bounds.
"""

import dataclasses

import numpy as np
import pytest

from casegen import cut_matrices, in_bounds_state, random_case
from hydrosddp.engine import Cut, CutPool, EngineConfig, StageMemo, train
from hydrosddp.hydro import (
    Bus,
    Hydro,
    StageInfeasible,
    StageTemplate,
    SystemCase,
    Thermal,
    initial_state,
    solve_stage,
    split_state,
)
from hydrosddp.lp import (
    _SPARSE_ROWS,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    TOL_FEAS,
    _sparse_inverse,
    solve,
)
from hydrosddp.risk import RiskMeasure
from hydrosddp.scenario import Lattice, NoiseRealization

BLEND = RiskMeasure(lam=0.5, alpha=0.5)


def cascaded(case, rng):
    """``case`` with its hydros rewired into a random cascade: each hydro
    takes a random subset of the hydros before it as upstream."""
    hydros = []
    for j, h in enumerate(case.hydros):
        up = tuple(g.name for g in case.hydros[:j] if rng.random() < 0.5)
        hydros.append(dataclasses.replace(h, upstream=up))
    return dataclasses.replace(case, hydros=tuple(hydros))


def matrix_cascade(case):
    """The crash start's cascade as a level matrix iterated H times, the
    reference walk ``dense_start`` takes: per level past 0, its hydros and
    their rows of the upstream matrix."""
    hydros = case.hydros
    H = len(hydros)
    index = {h.name: j for j, h in enumerate(hydros)}
    upstream = np.zeros((H, H))
    for j, h in enumerate(hydros):
        upstream[j, [index[up] for up in h.upstream]] = 1.0
    level = np.zeros(H, dtype=np.intp)
    for _ in hydros:    # a chain has at most H - 1 links
        level = np.where(upstream.any(axis=1), 1 + np.max(
            np.where(upstream > 0, level, -1), axis=1, initial=-1), 0)
    return [(on, upstream[on]) for on in
            (np.flatnonzero(level == k)
             for k in range(1, level.max(initial=0) + 1))]


def dense_start(case, template, lp):
    """The crash start of ``lp``, a stamp of ``template``, walked densely:
    the inflows are the noise plus an H x d AR matrix times the state, and
    each level of ``matrix_cascade`` takes its upstream rows times the
    spills; the rows then get their basic columns as ``StageTemplate``
    lays them out."""
    H, d = len(case.hydros), case.state_dimension()
    state = lp.rhs[:d]
    ar = np.zeros((H, d))
    for j, at in enumerate(split_state(case, np.arange(d))[1]):
        ar[j, at] = case.hydros[j].ar_coeffs
    caps = np.array([h.max_storage for h in case.hydros])
    a = lp.rhs[template.inflow_rows] + ar @ state
    water = state[:H] + a
    spill = np.maximum(water - caps, 0.0)
    for on, upstream in matrix_cascade(case):
        water[on] += upstream @ spill
        spill[on] = np.maximum(water[on] - caps[on], 0.0)
    over = spill > 0.0
    basis = template.basis.copy()
    basis[template.mass_rows[over]] = template.spill[over]
    beta = np.full(template.beta_cols.size, case.future_lower_bound)
    x_out = np.concatenate([np.minimum(water, caps), a,
                            state])[template.out_pick]
    value = template.cut_block @ np.append(x_out, 1.0)
    for l, cuts in enumerate(template.by_opening):
        cuts = cuts[cuts < value.size]
        if cuts.size and value[cuts].max() > beta[l]:
            top = cuts[value[cuts].argmax()]
            basis[template.cut_rows[top]] = template.beta_cols[l]
            beta[l] = value[top]
    basis[template.cvar_rows] = np.where(beta > 0.0, template.delta,
                                         template.cvar_slacks)
    return basis, template.storage_cols[over]


def sweep_case(rng):
    """A two-bus casegen case with inflow lags and a cascade, a stage t
    and stage-t cut matrices from stage-t+1 solves at random states."""
    case, lattice = random_case(rng, T=3, L=int(rng.integers(2, 5)),
                                n_hydro=int(rng.integers(2, 5)), max_lag=2,
                                with_renewable=bool(rng.random() < 0.5),
                                two_bus=True)
    case = cascaded(case, rng)
    t = int(rng.integers(1, lattice.num_stages))
    cuts = [[] for _ in range(lattice.num_openings)]
    for _ in range(int(rng.integers(2, 8))):
        state = in_bounds_state(rng, case)
        for l, opening in enumerate(cuts):
            sol = solve_stage(
                StageTemplate(case, lattice, t + 1, None, BLEND), state,
                lattice.noise(t + 1, l))
            opening.append(Cut(sol.state_dual, state,
                               sol.objective))
    return case, lattice, t, cut_matrices(case, cuts)


def worst_violation(lp, x):
    """The largest amount by which ``x`` misses a row or bound of ``lp``."""
    ax = np.bincount(lp.nonzeros.row, lp.nonzeros.val * x[lp.nonzeros.col],
                     minlength=lp.num_rows)
    senses = np.array(lp.senses)
    miss = np.where(senses == LESS, ax - lp.rhs,
                    np.where(senses == GREATER, lp.rhs - ax,
                             abs(ax - lp.rhs)))
    return max(miss.max(initial=0.0), (lp.lower - x).max(),
               (x - lp.upper).max())


def test_crash_start_is_taken_and_reaches_the_optimum():
    rng = np.random.default_rng(20261019)
    solved = spilled = deep = 0
    beta_rows = delta_rows = 0
    for _ in range(16):
        case, lattice, t, cuts = sweep_case(rng)
        T, L = lattice.num_stages, lattice.num_openings
        for stage, stage_cuts in ((t, cuts), (T, None)):
            template = StageTemplate(case, lattice, stage, stage_cuts, BLEND)
            again = StageTemplate(case, lattice, stage, stage_cuts, BLEND)
            # Levels past the first: hydros below another one.
            deep += len(matrix_cascade(case)) >= 2
            for _ in range(6):
                state = in_bounds_state(rng, case)
                noise = lattice.stage_noise(
                    stage, int(rng.integers(0, L)) if stage > 1 else None)
                lp = template.program(state, noise)
                basis, at_upper = template.start(lp)
                # The sparse walk of the links gives the dense one's start.
                dense = dense_start(case, template, lp)
                assert basis.tobytes() == dense[0].tobytes()
                assert at_upper.tobytes() == dense[1].tobytes()
                # A function of the template, its stamp and its cuts.
                other = again.start(again.program(state, noise))
                assert basis.tobytes() == other[0].tobytes()
                assert at_upper.tobytes() == other[1].tobytes()
                spilled += at_upper.size
                beta_rows += np.isin(basis, template.beta_cols).sum()
                delta_rows += np.isin(basis, template.delta).sum()
                assert np.unique(basis).size == lp.num_rows

                sol = solve(lp, (basis, at_upper))
                ref = solve(lp)
                assert sol.status == ref.status == OPTIMAL
                assert sol.started and not ref.started
                assert sol.phase1_pivots == 0
                assert abs(sol.objective - ref.objective) <= \
                    1e-9 * max(1.0, abs(ref.objective))
                tol = TOL_FEAS * (1.0 + abs(lp.rhs).max())
                assert worst_violation(lp, sol.primal) <= tol
                solved += 1
    assert solved == 16 * 2 * 6
    assert deep >= 4 and spilled >= 20
    assert beta_rows >= 20 and delta_rows >= 20


def test_crash_basis_factors_by_its_triangular_peel():
    # Enough cut rows to put the stage LP on the sparse kernels; the
    # peel of the triangular crash basis must give LAPACK's inverse.
    rng = np.random.default_rng(20261020)
    case, lattice = random_case(rng, T=3, L=4, n_hydro=3, max_lag=2,
                                two_bus=True)
    case = cascaded(case, rng)
    d = case.state_dimension()
    cuts = cut_matrices(case, [[Cut(rng.uniform(-3.0, 0.0, d),
                                    rng.uniform(0.0, 5.0, d),
                                    float(rng.uniform(0.0, 50.0)))
                                for _ in range(30)] for _ in range(4)])
    template = StageTemplate(case, lattice, 2, cuts, BLEND)
    assert template.lp.num_rows >= _SPARSE_ROWS
    form = template.lp._form
    assert form.dense is None
    for _ in range(5):
        lp = template.program(in_bounds_state(rng, case),
                              lattice.noise(2, int(rng.integers(0, 4))))
        basis, at_upper = template.start(lp)
        B = np.zeros((lp.num_rows, lp.num_rows))
        A = form.columns
        for i, j in enumerate(basis):
            k = slice(A.ptr[j], A.ptr[j + 1])
            B[A.row[k], i] = A.val[k]
        peeled = _sparse_inverse(A, basis)
        assert peeled is not None
        np.testing.assert_allclose(peeled, np.linalg.inv(B), rtol=0,
                                   atol=1e-12)
        sol = solve(lp, (basis, at_upper))
        assert sol.status == OPTIMAL and sol.started
        assert abs(sol.objective - solve(lp).objective) <= \
            1e-9 * max(1.0, abs(sol.objective))


def two_hydro_case(inflow_down):
    """An upstream reservoir with water to spare over a small downstream
    one whose inflow is ``inflow_down``."""
    case = SystemCase(
        buses=(Bus("b1", (5.0,)),),
        thermals=(Thermal("t1", "b1", 2.0, 15.0),),
        hydros=(Hydro("up", "b1", 20.0, 4.0, 1.0, initial_storage=15.0),
                Hydro("down", "b1", 5.0, 4.0, 1.0, upstream=("up",),
                      initial_storage=1.0)),
        deficit_cost=50.0)
    noise = NoiseRealization(inflow_noise={"up": 1.0, "down": inflow_down})
    return case, Lattice(1, 1, noise, [])


def test_negative_inflow_falls_back_to_the_two_phase_path():
    # The crash sends the downstream storage to 1 - 3 = -2, out of its
    # bounds, but upstream releases can cover the loss.
    case, lattice = two_hydro_case(-3.0)
    template = StageTemplate(case, lattice, 1, None, BLEND)
    lp = template.program(initial_state(case), lattice.stage1)
    sol, ref = solve(lp, template.start(lp)), solve(lp)
    assert sol.status == ref.status == OPTIMAL
    assert not sol.started and ref.phase1_pivots > 0
    assert sol.objective == ref.objective
    assert sol.primal.tobytes() == ref.primal.tobytes()
    assert sol.duals.tobytes() == ref.duals.tobytes()
    assert (sol.phase1_pivots, sol.phase2_pivots) == \
        (ref.phase1_pivots, ref.phase2_pivots)
    # The set-aside start's factorization counts among the solve's.
    assert sol.refactorizations == ref.refactorizations + 1

    memo = StageMemo(case, lattice, CutPool(1, 1, case.state_dimension()),
                     BLEND)
    memo.solve(1, initial_state(case), None)
    memo.solve(1, initial_state(case), None)
    assert (memo.solves, memo.reuses, memo.start_fallbacks) == (1, 1, 1)
    policy = train(case, lattice, EngineConfig(max_iterations=1))
    assert policy.start_fallbacks == 1
    assert policy.phase1_pivots == ref.phase1_pivots


def test_infeasible_stage_still_raises_after_the_fallback():
    # Nothing upstream can cover this loss: the stage LP is infeasible.
    case, lattice = two_hydro_case(-30.0)
    template = StageTemplate(case, lattice, 1, None, BLEND)
    lp = template.program(initial_state(case), lattice.stage1)
    sol = solve(lp, template.start(lp))
    assert sol.status == solve(lp).status == INFEASIBLE
    assert not sol.started
    memo = StageMemo(case, lattice, CutPool(1, 1, case.state_dimension()),
                     BLEND)
    with pytest.raises(StageInfeasible):
        memo.solve(1, initial_state(case), None)
