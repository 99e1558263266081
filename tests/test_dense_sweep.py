"""The dense-kernel simplex sweep against the path it replaced.

Below ``lp._SPARSE_ROWS`` rows, ``lp.solve`` keeps the basic values,
bounds and costs in basis order, reads entering columns from one dense
copy of the matrix per template (the program a stamp was made from),
and sets up the slack basis with array operations.
``oracles.reference_solve`` is the dense path as it stood before. Each
BLAS product, the pricing and each LAPACK inverse, phase 1's start and
the final basis's among them, are the same call on the same values in
both, so every pivot, every factorization and every bit of the result
must agree, whatever order the stamps of one template are solved in.
"""

import numpy as np
import pytest

import oracles
from casegen import cut_matrices, in_bounds_state, random_case
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
    solve,
)
from hydrosddp.risk import RiskMeasure
from oracles import dense_program, reference_solve
from test_lp import beale_program, random_feasible_program, stress_program
from test_phase1 import highs, violated_at_start

BLEND = RiskMeasure(lam=0.5, alpha=0.5)


def assert_same_solve(lp):
    ref, sol = reference_solve(lp), solve(lp)
    assert (sol.status, sol.phase1_pivots, sol.phase2_pivots,
            sol.refactorizations) == (ref.status, ref.phase1_pivots,
                                      ref.phase2_pivots, ref.refactorizations)
    assert (np.float64(sol.objective).tobytes()
            == np.float64(ref.objective).tobytes())
    assert sol.primal.tobytes() == ref.primal.tobytes()
    assert sol.duals.tobytes() == ref.duals.tobytes()
    return sol


def case_with_cuts(rng):
    """A casegen case, a stage t and stage-t cut matrices from
    stage-t+1 solves at random states."""
    case, lattice = random_case(rng, T=3, L=int(rng.integers(2, 5)),
                                n_hydro=2, max_lag=1,
                                with_renewable=bool(rng.random() < 0.5),
                                two_bus=bool(rng.random() < 0.5))
    t = int(rng.integers(1, lattice.num_stages))
    cuts = [[] for _ in range(lattice.num_openings)]
    for _ in range(int(rng.integers(3, 10))):
        state = in_bounds_state(rng, case)
        for l, opening in enumerate(cuts):
            sol = solve_stage(
                StageTemplate(case, lattice, t + 1, None, BLEND), state,
                lattice.noise(t + 1, l))
            opening.append(Cut(sol.state_dual, state,
                               sol.objective))
    return case, lattice, t, cut_matrices(case, cuts)


def stage_noises(lattice, t):
    return [lattice.stage_noise(t, l if t > 1 else None)
            for l in range(lattice.num_openings)]


def stage_programs_with_cuts(seed, num_cases, states_per_case):
    """Stage-t LPs of casegen cases with cut rows from stage-t+1 solves,
    at random incoming states."""
    rng = np.random.default_rng(seed)
    programs = []
    for _ in range(num_cases):
        case, lattice, t, cuts = case_with_cuts(rng)
        T, L = lattice.num_stages, lattice.num_openings
        noise = stage_noises(lattice, t)
        for k in range(states_per_case):
            lp, _ = build_stage_lp(case, t, in_bounds_state(rng, case),
                                   noise[k % L], cuts, BLEND, T, L)
            programs.append(lp)
    return programs


def test_stage_lps_with_cut_rows_match_the_reference():
    programs = stage_programs_with_cuts(20261018, 12, 25)
    assert len(programs) == 300
    assert max(lp.num_rows for lp in programs) < _SPARSE_ROWS
    violated = 0
    for lp in programs:
        # Without a start, violated inequality rows, the cut rows among
        # them, start phase 1 each on its own artificial.
        ineq = np.array(lp.senses) != EQUAL
        violated += bool((violated_at_start(lp) & ineq).any())
        assert assert_same_solve(lp).status == OPTIMAL
    assert violated >= 150


def small_programs():
    rng = np.random.default_rng(31)
    yield beale_program()
    yield dense_program([0.0], [-np.inf], [np.inf], [[1.0], [1.0]],
                        [GREATER, LESS], [1.0, 0.0])
    yield dense_program([-1.0], [0.0], [np.inf], np.zeros((0, 1)), [], [])
    yield dense_program([-1.0, 0.0], [0.0, 0.0], [np.inf, np.inf],
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


def test_stamps_of_one_template_match_the_reference_in_any_order():
    # Every stamp solves through its template's one equality form, so a
    # solve must leave nothing in the form that another stamp could read.
    rng = np.random.default_rng(20261019)
    stamps = 0
    for _ in range(6):
        case, lattice, t, cuts = case_with_cuts(rng)
        template = StageTemplate(case, lattice, t, cuts, BLEND)
        programs = [template.program(in_bounds_state(rng, case), noise)
                    for _ in range(4) for noise in stage_noises(lattice, t)]
        assert all(lp._form is template.lp._form for lp in programs)
        assert template.lp.num_rows < _SPARSE_ROWS
        for _ in range(2):
            for k in rng.permutation(len(programs)):
                assert assert_same_solve(programs[k]).status == OPTIMAL
        stamps += len(programs)
    assert stamps >= 50


def test_each_violated_row_starts_phase1_on_its_own_artificial(monkeypatch):
    # Columns start at their lower bounds, 1, where rows 0-2 are violated:
    # a <= row from above, a >= row from below, an = row from below. Row
    # 3 holds there.
    lp = dense_program([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [10.0, 10.0, 10.0],
                       [[1.0, -1.0, 0.0],
                        [1.0, 0.0, 1.0],
                        [1.0, 1.0, 1.0],
                        [0.0, 0.0, 1.0]],
                       [LESS, GREATER, EQUAL, LESS], [-1.0, 5.0, 9.0, 8.0])
    assert violated_at_start(lp).tolist() == [True, True, True, False]
    n, ncols = lp.num_vars, lp.num_vars + lp.num_rows
    starts = []
    sweep = lpmod._iterate

    def spy(A, b, cost, lo, hi, x, vstat, basis, dense, b_inv):
        if cost[-1] == 1.0:
            starts.append((A.ptr[ncols:] - A.ptr[ncols - 1],
                           A.row[A.ptr[ncols]:], A.val[A.ptr[ncols]:],
                           x.copy(), vstat.copy(), basis.copy()))
        return sweep(A, b, cost, lo, hi, x, vstat, basis, dense, b_inv)

    monkeypatch.setattr(lpmod, "_iterate", spy)
    sol = assert_same_solve(lp)
    [(ptr, rows, signs, x, vstat, basis)] = starts
    # Three single-entry artificials, basic in their rows at |b - A x|
    # with the sign of b - A x.
    assert ptr.tolist() == [1, 2, 3, 4]
    assert rows.tolist() == [0, 1, 2]
    assert signs.tolist() == [-1.0, 1.0, 1.0]
    assert basis.tolist() == [ncols, ncols + 1, ncols + 2, n + 3]
    assert x[ncols:].tolist() == [1.0, 3.0, 6.0]
    # Each violated row's slack is nonbasic at 0, the bound it missed:
    # the lower one of the <= and = rows, the upper one of the >= row.
    assert x[n:n + 3].tolist() == [0.0, 0.0, 0.0]
    assert vstat[n:n + 3].tolist() == [lpmod._AT_LOWER, lpmod._AT_UPPER,
                                       lpmod._AT_LOWER]
    assert sol.status == OPTIMAL and sol.phase1_pivots > 0
    ref = highs(lp)
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-12)

