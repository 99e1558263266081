"""The dense-kernel simplex sweep against the path it replaced.

Below ``lp._SPARSE_ROWS`` rows, ``lp.solve`` keeps the basic values,
bounds and costs in basis order, reads entering columns from one dense
copy of the matrix per solve and sets up the slack basis with array
operations. ``oracles.reference_solve`` is the dense path as it stood
before. Each BLAS product, the pricing and each LAPACK inverse are the
same call on the same values in both, so every pivot and every bit of
the result must agree.
"""

import numpy as np

import oracles
from casegen import in_bounds_state, random_case
from hydrosddp import lp as lpmod
from hydrosddp.engine import Cut
from hydrosddp.hydro import StageTemplate, build_stage_lp, solve_stage
from hydrosddp.lp import (
    _SPARSE_ROWS,
    EQUAL,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    solve,
)
from hydrosddp.risk import RiskMeasure
from oracles import reference_solve
from test_lp import beale_program, random_feasible_program, stress_program
from test_phase1 import violated_at_start

BLEND = RiskMeasure(lam=0.5, alpha=0.5)


def assert_same_solve(lp):
    ref, sol = reference_solve(lp), solve(lp)
    # Without a phase-2 pivot, solve takes the inverse phase 2 started
    # from for the duals, where the reference inverts that basis again.
    reused = ref.status == OPTIMAL and ref.phase2_pivots == 0
    assert (sol.status, sol.phase1_pivots, sol.phase2_pivots,
            sol.refactorizations) == (ref.status, ref.phase1_pivots,
                                      ref.phase2_pivots,
                                      ref.refactorizations - reused)
    assert (np.float64(sol.objective).tobytes()
            == np.float64(ref.objective).tobytes())
    assert sol.primal.tobytes() == ref.primal.tobytes()
    assert sol.duals.tobytes() == ref.duals.tobytes()
    return sol


def stage_programs_with_cuts(seed, num_cases, states_per_case):
    """Stage-t LPs of casegen cases with cut rows from stage-t+1 solves,
    at random incoming states."""
    rng = np.random.default_rng(seed)
    programs = []
    for _ in range(num_cases):
        case, lattice = random_case(rng, T=3, L=int(rng.integers(2, 5)),
                                    n_hydro=2, max_lag=1,
                                    with_renewable=bool(rng.random() < 0.5),
                                    two_bus=bool(rng.random() < 0.5))
        T, L = lattice.num_stages, lattice.num_openings
        t = int(rng.integers(1, T))
        cuts = [[] for _ in range(L)]
        for _ in range(int(rng.integers(3, 10))):
            state = in_bounds_state(rng, case)
            for l, opening in enumerate(cuts):
                sol = solve_stage(
                    StageTemplate(case, t + 1, None, BLEND, T, L), state,
                    lattice.noise(t + 1, l))
                opening.append(Cut(sol.state_dual, state.flatten(),
                                   sol.objective))
        noise = [lattice.stage_noise(t, l if t > 1 else None)
                 for l in range(L)]
        for k in range(states_per_case):
            lp, _ = build_stage_lp(case, t, in_bounds_state(rng, case),
                                   noise[k % L], cuts, BLEND, T, L)
            programs.append(lp)
    return programs


def test_stage_lps_with_cut_rows_match_the_reference():
    programs = stage_programs_with_cuts(20261018, 12, 25)
    assert len(programs) == 300
    assert max(lp.num_rows for lp in programs) < _SPARSE_ROWS
    shared = 0
    for lp in programs:
        # Violated inequality rows start phase 1 on the shared artificial.
        ineq = np.array(lp.senses) != EQUAL
        shared += bool((violated_at_start(lp) & ineq).any())
        assert assert_same_solve(lp).status == OPTIMAL
    assert shared >= 150


def small_programs():
    rng = np.random.default_rng(31)
    yield beale_program()
    yield LinearProgram([0.0], [-np.inf], [np.inf], [[1.0], [1.0]],
                        [GREATER, LESS], [1.0, 0.0])
    yield LinearProgram([-1.0], [0.0], [np.inf], np.zeros((0, 1)), [], [])
    yield LinearProgram([-1.0, 0.0], [0.0, 0.0], [np.inf, np.inf],
                        [[1.0, -1.0]], [LESS], [0.0])
    for _ in range(200):
        yield random_feasible_program(rng)
        yield stress_program(rng)


def test_degenerate_and_cycling_programs_match_the_reference():
    statuses = [assert_same_solve(lp).status for lp in small_programs()]
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= set(statuses)


def test_bland_rule_and_refactorization_match_the_reference(monkeypatch):
    # Bland's rule from the first degenerate pivot and a factorization
    # every second iteration, in both sweeps.
    for module in (lpmod, oracles):
        monkeypatch.setattr(module, "_STALL_LIMIT", 0)
        monkeypatch.setattr(module, "_REFACTOR_EVERY", 2)
    for lp in small_programs():
        assert_same_solve(lp)
    for lp in stage_programs_with_cuts(7, 3, 10):
        assert_same_solve(lp)
