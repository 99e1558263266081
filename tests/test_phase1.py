"""Phase-1 start of the bundled simplex: many violated inequality rows.

All violated inequality rows share one phase-1 artificial. These tests
check the optimum against an independent solver (HiGHS through
``scipy.optimize.linprog``, skipped when scipy is absent), infeasibility
detection, and that a stage LP full of violated cut rows costs only a
few phase-1 pivots.
"""

import numpy as np
import pytest

from casegen import in_bounds_state, random_case
from hydrosddp.engine import Cut
from hydrosddp.hydro import (
    StageTemplate,
    build_stage_lp,
    initial_state,
    solve_stage,
)
from hydrosddp.lp import (
    EQUAL,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    solve,
)
from hydrosddp.risk import RiskMeasure
from oracles import dense_program
from test_lp import dual_objective

NEUTRAL = RiskMeasure(lam=0.0, alpha=0.0)
BLEND = RiskMeasure(lam=0.5, alpha=0.5)


def highs(lp):
    """The same program solved by HiGHS; returns the scipy result."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    le = [i for i, s in enumerate(lp.senses) if s == LESS]
    ge = [i for i, s in enumerate(lp.senses) if s == GREATER]
    eq = [i for i, s in enumerate(lp.senses) if s == EQUAL]
    ub_rows = np.vstack([lp.rows[le], -lp.rows[ge]])
    ub_rhs = np.concatenate([lp.rhs[le], -lp.rhs[ge]])
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(lp.lower, lp.upper)]
    return linprog(lp.objective,
                   A_ub=ub_rows if len(ub_rhs) else None,
                   b_ub=ub_rhs if len(ub_rhs) else None,
                   A_eq=lp.rows[eq] if eq else None,
                   b_eq=lp.rhs[eq] if eq else None,
                   bounds=bounds, method="highs")


def start_point(lp):
    """Where the simplex starts: each variable at a finite bound, else 0."""
    return np.where(np.isfinite(lp.lower), lp.lower,
                    np.where(np.isfinite(lp.upper), lp.upper, 0.0))


def violated_at_start(lp):
    lhs = lp.rows @ start_point(lp)
    senses = np.array(lp.senses)
    return (((senses == GREATER) & (lhs < lp.rhs))
            | ((senses == LESS) & (lhs > lp.rhs))
            | ((senses == EQUAL) & (lhs != lp.rhs)))


def violated_program(rng, n, m_ineq, m_eq):
    """Feasible boxed program whose inequality rows all start violated.

    Each row holds at an interior anchor point; its sign is chosen so the
    anchor lies on the far side of the row from the start point.
    """
    lo = rng.integers(-5, 1, n).astype(float)
    hi = lo + rng.integers(1, 10, n).astype(float)
    anchor = lo + rng.uniform(0.1, 0.9, n) * (hi - lo)
    c = rng.integers(-9, 10, n).astype(float)
    rows, senses, rhs = [], [], []
    for _ in range(m_ineq):
        row = rng.integers(-9, 10, n).astype(float)
        d = float(row @ (anchor - lo))
        if d == 0.0:
            row[0] += 1.0
            d = float(row @ (anchor - lo))
        sense = (LESS, GREATER)[int(rng.integers(0, 2))]
        if (sense == GREATER) != (d > 0):
            row = -row
            d = -d
        slack = float(rng.uniform(0.0, 0.5)) * abs(d)
        base = float(row @ anchor)
        rows.append(row)
        senses.append(sense)
        rhs.append(base - slack if sense == GREATER else base + slack)
    for _ in range(m_eq):
        row = rng.integers(-9, 10, n).astype(float)
        rows.append(row)
        senses.append(EQUAL)
        rhs.append(float(row @ anchor))
    return dense_program(c, lo, hi, np.array(rows).reshape(-1, n), senses, rhs)


def test_many_violated_rows_match_highs():
    rng = np.random.default_rng(20261017)
    for _ in range(60):
        n = int(rng.integers(3, 15))
        lp = violated_program(rng, n, int(rng.integers(5, 30)),
                              int(rng.integers(0, min(n, 4))))
        assert violated_at_start(lp)[[s != EQUAL for s in lp.senses]].all()
        ref = highs(lp)
        assert ref.status == 0
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        assert dual_objective(lp, sol) == pytest.approx(sol.objective,
                                                        rel=1e-9, abs=1e-9)


def test_contradictory_rows_among_violated_rows_are_infeasible():
    # x >= 5 and x <= 3, with further violated rows of both senses and a
    # violated equality row.
    lp = dense_program([1.0, 1.0, 1.0], [0.0, -4.0, 0.0], [10.0, 10.0, 10.0],
                       [[1.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0],
                        [1.0, 1.0, 1.0],
                        [0.0, -1.0, 0.0],
                        [0.0, 0.0, 1.0]],
                       [GREATER, LESS, GREATER, GREATER, LESS, EQUAL],
                       [5.0, 3.0, 2.0, 7.0, -1.0, 1.0])
    assert violated_at_start(lp).sum() == 5
    assert solve(lp).status == INFEASIBLE
    assert highs(lp).status == 2

    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        base = violated_program(rng, n, int(rng.integers(3, 20)),
                                int(rng.integers(0, 3)))
        j = int(rng.integers(0, n))
        cap = float(rng.uniform(base.lower[j], base.upper[j]))
        unit = np.eye(n)[j]
        lp = dense_program(base.objective, base.lower, base.upper,
                           np.vstack([base.rows, unit, unit]),
                           base.senses + (GREATER, LESS),
                           np.concatenate([base.rhs, [cap + 1.0, cap]]))
        assert solve(lp).status == INFEASIBLE
        assert highs(lp).status == 2


def sampled_cuts(seed, num_states):
    """A T=2 case plus valid stage-2 cuts at random states, per opening."""
    rng = np.random.default_rng(seed)
    case, lattice = random_case(rng, T=2, L=3, n_hydro=2, n_thermal=2,
                                max_lag=1)
    cuts = [[] for _ in range(lattice.num_openings)]
    for _ in range(num_states):
        state = in_bounds_state(rng, case)
        for l, opening in enumerate(cuts):
            sol = solve_stage(StageTemplate(case, lattice, 2, None, NEUTRAL),
                              state, lattice.noise(2, l))
            opening.append(Cut(sol.state_dual, state.flatten(),
                               sol.objective))
    return case, lattice, cuts


def test_stage_lp_with_cuts_matches_highs():
    case, lattice, cuts = sampled_cuts(5, 15)
    for measure in (NEUTRAL, BLEND):
        lp, _ = build_stage_lp(case, 1, initial_state(case), lattice.stage1,
                               cuts, measure, 2, lattice.num_openings)
        ref = highs(lp)
        sol = solve(lp)
        assert sol.status == OPTIMAL and ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)


def test_doubled_cut_rows_change_nothing():
    case, lattice, cuts = sampled_cuts(6, 12)
    state = initial_state(case)
    for measure in (NEUTRAL, BLEND):
        once = solve_stage(StageTemplate(case, lattice, 1, cuts, measure),
                           state, lattice.stage1)
        twice = solve_stage(StageTemplate(case, lattice, 1,
                                          [c + c for c in cuts], measure),
                            state, lattice.stage1)
        assert twice.objective == pytest.approx(once.objective, rel=1e-9,
                                                abs=1e-9)
        assert twice.state_dual == pytest.approx(once.state_dual, rel=1e-9,
                                                 abs=1e-9)


def test_violated_cut_rows_cost_few_phase1_pivots():
    case, lattice, cuts = sampled_cuts(7, 40)
    lp, cols = build_stage_lp(case, 1, initial_state(case), lattice.stage1,
                              cuts, NEUTRAL, 2, lattice.num_openings)
    # A cut row reads beta_l - g . x >= offset; the CVaR row has -beta_l.
    beta = [cols["beta", l] for l in range(lattice.num_openings)]
    cut_rows = (lp.rows[:, beta] == 1.0).any(axis=1)
    assert cut_rows.sum() == sum(len(c) for c in cuts)
    violated = int((violated_at_start(lp) & cut_rows).sum())
    assert violated >= 100
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert isinstance(sol.phase1_pivots, int)
    assert isinstance(sol.phase2_pivots, int)
    assert 0 < sol.phase1_pivots < cut_rows.sum() / 4
    # Same program, same counts.
    again = solve(lp)
    assert (again.phase1_pivots, again.phase2_pivots) == \
        (sol.phase1_pivots, sol.phase2_pivots)


def test_feasible_start_needs_no_phase1():
    lp = dense_program([-1.0, -2.0], [0.0, 0.0], [np.inf, np.inf],
                       [[1.0, 1.0]], [LESS], [1.0])
    sol = solve(lp)
    assert sol.phase1_pivots == 0
    assert sol.phase2_pivots >= 1
