"""The simplex on its column store: tree LPs and mixed column kinds.

Both suites check the bundled solver against HiGHS (through
``scipy.optimize.linprog``, skipped when scipy is absent). Duals are not
unique under degeneracy, so they are checked for feasibility and
complementary slackness under the rhs-derivative convention instead of
entry by entry.
"""

import dataclasses

import numpy as np
import pytest

from casegen import random_case
from hydrosddp import lp as lpmod
from hydrosddp.lp import (
    _REFACTOR_EVERY,
    _SPARSE_ROWS,
    EQUAL,
    GREATER,
    LESS,
    OPTIMAL,
    solve,
)
from hydrosddp.risk import RiskMeasure
from hydrosddp.scenario import Lattice
from hydrosddp.treelp import build_tree_lp
from oracles import dense_program, highs_tree_objective
from test_lp import dual_objective, feasible_within
from test_phase1 import highs


def assert_kkt(lp, sol, tol):
    """Primal feasibility, dual sign and complementary slackness."""
    x, y = sol.primal, sol.duals
    assert feasible_within(lp, x, tol)
    senses = np.array(lp.senses)
    assert np.all(y[senses == LESS] <= tol)
    assert np.all(y[senses == GREATER] >= -tol)
    slack = lp.rhs - lp.rows @ x
    assert np.all(np.abs(y * slack) <= tol)
    reduced = lp.objective - y @ lp.rows
    above = reduced > tol            # profitable to lower: must sit at lower
    below = reduced < -tol           # profitable to raise: must sit at upper
    assert np.all(np.isfinite(lp.lower[above]))
    assert np.all(np.isfinite(lp.upper[below]))
    assert np.all(np.abs(x[above] - lp.lower[above]) <= tol)
    assert np.all(np.abs(x[below] - lp.upper[below]) <= tol)
    assert dual_objective(lp, sol) == pytest.approx(sol.objective, rel=tol,
                                                    abs=tol)


def refactorization_tree():
    """A 439-row tree LP whose phase 1 runs 586 pivots, past four drift
    checks."""
    case, lattice = random_case(np.random.default_rng(20261018), T=6, L=2,
                                n_hydro=2, n_thermal=2)
    return build_tree_lp(case, lattice, RiskMeasure(lam=0.5, alpha=0.5))


def test_tree_lp_matches_highs_across_refactorizations(monkeypatch):
    lp = refactorization_tree()
    ref = highs(lp)
    # A negative tolerance, which any drift exceeds, makes every check
    # of the sparse kernels refactor.
    monkeypatch.setattr(lpmod, "_TOL_DRIFT", -1.0)
    sparse = []
    factor = lpmod._sparse_inverse

    def counted(A, basis):
        sparse.append(A.m)
        return factor(A, basis)

    monkeypatch.setattr(lpmod, "_sparse_inverse", counted)
    sol = solve(lp)
    assert sol.status == OPTIMAL and ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9)
    assert_kkt(lp, sol, 1e-7)
    # One factorization at the start of each phase, one for the duals,
    # and one every _REFACTOR_EVERY iterations of a phase. At 439 rows
    # every one of them, phase 1's start included, runs the sparse
    # kernels.
    periodic = (sol.phase1_pivots // _REFACTOR_EVERY
                + sol.phase2_pivots // _REFACTOR_EVERY)
    assert periodic >= 2
    assert sol.refactorizations == 3 + periodic
    assert sparse == [lp.num_rows] * sol.refactorizations


def test_tree_lp_keeps_its_inverse_while_the_sweep_holds():
    # At the default tolerance no check on this tree finds drift, so the
    # solve factors phase 1's start, phase 2's start and the final basis.
    lp = refactorization_tree()
    ref = highs(lp)
    sol = solve(lp)
    assert sol.status == OPTIMAL and ref.status == 0
    assert max(sol.phase1_pivots, sol.phase2_pivots) >= _REFACTOR_EVERY
    assert sol.refactorizations == 3
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9)
    assert_kkt(lp, sol, 1e-7)


def test_a_drifted_sweep_refactors_at_its_next_check(monkeypatch):
    # Perturb one entry of the inverse by 1e-6 relative at phase 1's
    # 50th pivot, in a row that the pivot does not overwrite: the check
    # at pivot 128 finds the drift and refactors once more than the
    # clean solve, and the solve still ends at HiGHS's optimum.
    lp = refactorization_tree()
    ref = highs(lp)
    clean = solve(lp)
    update = lpmod._sparse_update
    calls = []

    def perturbed(b_inv, w, pivot_row):
        update(b_inv, w, pivot_row)
        calls.append(None)
        if len(calls) == 50:
            i = int(abs(w).argmax())      # w[i] != 0, so i is not the pivot row
            j = int(abs(b_inv[i]).argmax())
            b_inv[i, j] *= 1.0 + 1e-6

    monkeypatch.setattr(lpmod, "_sparse_update", perturbed)
    sol = solve(lp)
    assert clean.phase1_pivots >= _REFACTOR_EVERY > 50
    assert sol.status == OPTIMAL
    assert sol.refactorizations == clean.refactorizations + 1
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9)


def negative_inflow_tree():
    """The 439-row tree above with hydro h1's stage-1 inflow at -0.5,
    which its initial storage covers. The starting point violates that
    AR row from above, so its artificial enters with sign -1."""
    case, lattice = random_case(np.random.default_rng(20261018), T=6, L=2,
                                n_hydro=2, n_thermal=2)
    h = case.hydros[0]
    lagged = sum(c * lag for c, lag in zip(h.ar_coeffs, h.initial_lags))
    assert h.initial_storage > 0.5
    stage1 = dataclasses.replace(lattice.stage1, inflow_noise={
        **lattice.stage1.inflow_noise, h.name: -0.5 - lagged})
    return case, Lattice(lattice.num_stages, lattice.num_openings, stage1,
                         lattice.openings)


def test_tree_with_a_negated_start_row_matches_highs(monkeypatch):
    case, lattice = negative_inflow_tree()
    measure = RiskMeasure(lam=0.5, alpha=0.5)
    lp = build_tree_lp(case, lattice, measure)
    assert lp.num_rows >= _SPARSE_ROWS
    negated = []
    appended = lpmod._Columns.appended

    def spy(self, row, val):
        negated.extend(row[val == -1.0])
        return appended(self, row, val)

    monkeypatch.setattr(lpmod._Columns, "appended", spy)
    sol = solve(lp)
    assert negated
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(
        highs_tree_objective(case, lattice, measure), rel=1e-9)
    assert_kkt(lp, sol, 1e-7)


def test_tree_lp_pivot_path_is_pinned():
    # Pivot counts are deterministic. These pin the pivot path (pricing,
    # direction masks, ratio test), so a change meant to leave the path
    # alone is caught; a deliberate change of pivot rules or of the
    # refactorization rule updates them. This 215-row tree runs the
    # sparse kernels.
    case, lattice = random_case(np.random.default_rng(20240807), T=5, L=2,
                                n_hydro=2, n_thermal=2)
    lp = build_tree_lp(case, lattice, RiskMeasure(lam=0.5, alpha=0.5))
    assert lp.num_rows >= _SPARSE_ROWS
    sol = solve(lp)
    assert (sol.phase1_pivots, sol.phase2_pivots, sol.refactorizations) == \
        (300, 18, 3)
    assert sol.objective == pytest.approx(13.589213726109996, rel=1e-12)


def test_presolved_tree_lp_pivot_path_is_pinned():
    # The same tree as the solver sees it from ``tree_objective``: its
    # inflow rows presolved away, 215 rows down to 153.
    case, lattice = random_case(np.random.default_rng(20240807), T=5, L=2,
                                n_hydro=2, n_thermal=2)
    lp = build_tree_lp(case, lattice,
                       RiskMeasure(lam=0.5, alpha=0.5)).presolved()
    assert lp.num_rows == 153 >= _SPARSE_ROWS
    sol = solve(lp)
    assert (sol.phase1_pivots, sol.phase2_pivots, sol.refactorizations) == \
        (181, 18, 3)
    assert sol.objective == pytest.approx(13.589213726109996, rel=1e-12)


def mixed_program(rng, n, m):
    """Feasible bounded program over free, fixed, boxed and one-sided
    columns, plus boxed columns that only a loose row touches.

    Every constraint holds at an anchor point. Free and one-sided
    columns get bounding rows, so the program is bounded. The loose-row
    columns have negative costs and end at their upper bounds, which
    they can only reach by bound flips, because the loose row never
    blocks them.
    """
    kinds = rng.integers(0, 5, n)    # free, fixed, boxed, lower-only, upper-only
    anchor = rng.integers(-5, 6, n).astype(float)
    width = rng.integers(1, 6, n).astype(float)
    lo = np.where(np.isin(kinds, (1, 2, 3)), anchor - width, -np.inf)
    hi = np.where(np.isin(kinds, (2, 4)), anchor + width, np.inf)
    lo[kinds == 1] = hi[kinds == 1] = anchor[kinds == 1]
    rows, senses, rhs = [], [], []
    for _ in range(m):
        row = rng.integers(-4, 5, n).astype(float) * (rng.random(n) < 0.4)
        sense = (LESS, EQUAL, GREATER)[int(rng.integers(0, 3))]
        slack = 0.0 if sense == EQUAL else float(rng.integers(0, 4))
        rows.append(row)
        senses.append(sense)
        rhs.append(row @ anchor + (slack if sense == LESS else -slack))
    for j in np.flatnonzero(~np.isfinite(lo) | ~np.isfinite(hi)):
        unit = np.eye(n)[j]
        if not np.isfinite(lo[j]):
            rows.append(unit)
            senses.append(GREATER)
            rhs.append(anchor[j] - 7.0)
        if not np.isfinite(hi[j]):
            rows.append(unit)
            senses.append(LESS)
            rhs.append(anchor[j] + 7.0)
    k = int(rng.integers(2, 6))
    flips = np.arange(n, n + k)
    rows = [np.concatenate([r, np.zeros(k)]) for r in rows]
    rows.append(np.concatenate([np.zeros(n), rng.uniform(0.01, 0.1, k)]))
    senses.append(LESS)
    rhs.append(1e3)
    cost = np.concatenate([rng.integers(-9, 10, n).astype(float),
                           -rng.uniform(1.0, 5.0, k)])
    lp = dense_program(cost, np.concatenate([lo, np.zeros(k)]),
                       np.concatenate([hi, rng.uniform(0.5, 3.0, k)]),
                       np.array(rows), senses, rhs)
    return lp, flips


def test_mixed_columns_match_highs_and_repeat_exactly(monkeypatch):
    rng = np.random.default_rng(20261019)
    long_phases = 0
    for trial in range(40):
        n, m = (150, 120) if trial < 3 else (int(rng.integers(3, 16)),
                                              int(rng.integers(1, 12)))
        lp, flips = mixed_program(rng, n, m)
        ref = highs(lp)

        def check(sol):
            assert sol.status == OPTIMAL and ref.status == 0
            assert sol.objective == pytest.approx(ref.fun, rel=1e-9,
                                                  abs=1e-9)
            assert_kkt(lp, sol, 1e-7)
            assert sol.primal[flips] == pytest.approx(lp.upper[flips],
                                                      abs=1e-9)

        sol = solve(lp)
        check(sol)
        again = solve(lp)
        assert (again.phase1_pivots, again.phase2_pivots,
                again.refactorizations) == (sol.phase1_pivots,
                                            sol.phase2_pivots,
                                            sol.refactorizations)
        assert again.primal.tobytes() == sol.primal.tobytes()
        if trial < 3:
            # A negative tolerance, which any drift exceeds, makes every
            # check of the sparse kernels refactor mid-phase.
            with monkeypatch.context() as patched:
                patched.setattr(lpmod, "_TOL_DRIFT", -1.0)
                forced = solve(lp)
            check(forced)
            assert forced.refactorizations > 3
        long_phases += max(sol.phase1_pivots,
                           sol.phase2_pivots) >= _REFACTOR_EVERY
    assert long_phases >= 1  # programs with a phase that reaches a check
