"""Bundled simplex solver: known-answer cases, duality, brute-force checks.

The brute-force oracle enumerates every candidate vertex of a fully
boxed program (active rows plus variables pinned at bounds), so it is
independent of the simplex path it validates.
"""

from itertools import combinations, product

import numpy as np
import pytest

from hydrosddp.lp import (
    EQUAL,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPBuilder,
    MalformedProgram,
    solve,
)
from oracles import dense_program


def feasible_within(lp, x, tol=1e-7):
    if np.any(x < lp.lower - tol) or np.any(x > lp.upper + tol):
        return False
    for i in range(lp.num_rows):
        lhs = float(lp.rows[i] @ x)
        if lp.senses[i] == LESS and lhs > lp.rhs[i] + tol:
            return False
        if lp.senses[i] == GREATER and lhs < lp.rhs[i] - tol:
            return False
        if lp.senses[i] == EQUAL and abs(lhs - lp.rhs[i]) > tol:
            return False
    return True


def brute_force_min(lp):
    """(found_feasible, best_objective) by candidate-vertex enumeration.

    Requires finite bounds on every variable: then the feasible set is a
    polytope and every vertex pins n active constraints (rows + bounds).
    """
    n, m = lp.num_vars, lp.num_rows
    assert np.all(np.isfinite(lp.lower)) and np.all(np.isfinite(lp.upper))
    feasible, best = False, None
    for k in range(0, min(m, n) + 1):
        for active in combinations(range(m), k):
            for free in combinations(range(n), k):
                pinned = [j for j in range(n) if j not in free]
                for pick in product((0, 1), repeat=len(pinned)):
                    x = np.zeros(n)
                    for j, c in zip(pinned, pick):
                        x[j] = lp.lower[j] if c == 0 else lp.upper[j]
                    if k:
                        sub = lp.rows[np.ix_(active, free)]
                        rhs = lp.rhs[list(active)]
                        if pinned:
                            rhs = rhs - lp.rows[np.ix_(active, pinned)] @ x[pinned]
                        try:
                            x[list(free)] = np.linalg.solve(sub, rhs)
                        except np.linalg.LinAlgError:
                            continue
                    if feasible_within(lp, x, tol=1e-9):
                        feasible = True
                        val = float(lp.objective @ x)
                        if best is None or val < best:
                            best = val
    return feasible, best


def dual_objective(lp, sol):
    """Evaluate the bound-aware dual objective from public solution data."""
    y = sol.duals
    val = float(y @ lp.rhs) if lp.num_rows else 0.0
    reduced = lp.objective - (y @ lp.rows if lp.num_rows else 0.0)
    for j in range(lp.num_vars):
        dj = reduced[j]
        if dj > 1e-9:
            assert np.isfinite(lp.lower[j])
            val += dj * lp.lower[j]
        elif dj < -1e-9:
            assert np.isfinite(lp.upper[j])
            val += dj * lp.upper[j]
    for i, s in enumerate(lp.senses):
        di = -y[i]  # reduced cost of the implicit slack column
        if di > 1e-9:
            assert s in (LESS, EQUAL), "dual sign violates slack bounds"
        elif di < -1e-9:
            assert s in (GREATER, EQUAL), "dual sign violates slack bounds"
    return val


def random_feasible_program(rng, n_max=12, m_max=12):
    """Feasible bounded program with integer data, anchored at a box point."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    c = rng.integers(-9, 10, n).astype(float)
    lo = np.zeros(n)
    hi = rng.integers(1, 10, n).astype(float)
    rows = rng.integers(-9, 10, (m, n)).astype(float)
    anchor = rng.uniform(0.0, 1.0, n) * hi
    senses, rhs = [], []
    for i in range(m):
        s = (LESS, EQUAL, GREATER)[int(rng.integers(0, 3))]
        base = float(rows[i] @ anchor)
        slack = float(rng.uniform(0.0, 5.0))
        rhs.append(base + slack if s == LESS else base - slack if s == GREATER else base)
        senses.append(s)
    return dense_program(c, lo, hi, rows, senses, rhs)


# ---------------------------------------------------------------------------
# Known-answer cases and error surface


def test_bound_active_identity():
    lp = dense_program([1.0], [1.0], [np.inf], np.zeros((0, 1)), [], [])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-9)


def test_triangle_vertex_and_row_dual():
    lp = dense_program([-1.0, -2.0], [0.0, 0.0], [np.inf, np.inf],
                       [[1.0, 1.0]], [LESS], [1.0])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)
    assert sol.primal == pytest.approx([0.0, 1.0], abs=1e-9)
    assert sol.duals[0] == pytest.approx(-2.0, abs=1e-9)


def test_empty_interval_is_infeasible():
    lp = dense_program([0.0], [-np.inf], [np.inf],
                       [[1.0], [1.0]], [GREATER, LESS], [1.0, 0.0])
    assert solve(lp).status == INFEASIBLE


def test_unbounded_ray():
    lp = dense_program([-1.0], [0.0], [np.inf], np.zeros((0, 1)), [], [])
    assert solve(lp).status == UNBOUNDED


def test_unbounded_with_row():
    lp = dense_program([-1.0, 0.0], [0.0, 0.0], [np.inf, np.inf],
                       [[1.0, -1.0]], [LESS], [0.0])
    assert solve(lp).status == UNBOUNDED


def test_malformed_programs():
    with pytest.raises(MalformedProgram):
        dense_program([1.0], [2.0], [1.0], np.zeros((0, 1)), [], [])  # lo > hi
    with pytest.raises(MalformedProgram):
        dense_program([1.0], [0.0], [1.0], [[1.0]], [LESS], [np.inf])  # inf rhs
    with pytest.raises(MalformedProgram):
        dense_program([1.0], [0.0], [1.0], [[1.0]], ["<"], [1.0])  # bad sense
    for rows in (np.ones((1, 1)), [[1.0]]):  # a matrix other than Nonzeros
        with pytest.raises(MalformedProgram, match="Nonzeros"):
            LinearProgram([1.0], [0.0], [1.0], rows, [LESS], [1.0])


def test_equality_row_and_free_variable():
    bld = LPBuilder()
    x = bld.add_var(lower=-np.inf, upper=np.inf, cost=1.0)
    y = bld.add_var(lower=0.0, upper=5.0, cost=1.0)
    row = bld.add_row([(x, 1.0), (y, 1.0)], EQUAL, 2.0)
    sol = solve(bld.build())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.duals[row] == pytest.approx(1.0, abs=1e-9)


def test_negative_lower_bound_via_row():
    lp = dense_program([1.0], [-np.inf], [np.inf], [[1.0]], [GREATER], [-3.0])
    sol = solve(lp)
    assert sol.objective == pytest.approx(-3.0, abs=1e-9)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)


def beale_program():
    """Beale's classic degenerate instance, which cycles under naive
    pivoting."""
    return dense_program(
        [-0.75, 150.0, -0.02, 6.0],
        [0.0] * 4, [np.inf] * 4,
        [[0.25, -60.0, -0.04, 9.0],
         [0.5, -90.0, -0.02, 3.0],
         [0.0, 0.0, 1.0, 0.0]],
        [LESS, LESS, LESS], [0.0, 0.0, 1.0])


def test_beale_cycling_instance_terminates():
    sol = solve(beale_program())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_deterministic_resolve():
    rng = np.random.default_rng(7)
    lp = random_feasible_program(rng)
    a, b = solve(lp), solve(lp)
    assert a.status == b.status == OPTIMAL
    assert np.array_equal(a.primal, b.primal)
    assert np.array_equal(a.duals, b.duals)


# ---------------------------------------------------------------------------
# Property suites (also backing acceptance criterion 7)


def test_strong_duality_and_feasibility_1000():
    rng = np.random.default_rng(20240801)
    checked = 0
    while checked < 1000:
        lp = random_feasible_program(rng)
        sol = solve(lp)
        assert sol.status == OPTIMAL, "feasible boxed program must solve"
        assert feasible_within(lp, sol.primal, tol=1e-7)
        gap = abs(sol.objective - dual_objective(lp, sol))
        assert gap <= 1e-7, f"duality gap {gap}"
        checked += 1


def test_brute_force_vertex_agreement():
    rng = np.random.default_rng(99)
    n_opt = n_inf = 0
    for _ in range(150):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 4))
        lp = dense_program(
            rng.integers(-9, 10, n).astype(float),
            np.zeros(n),
            rng.integers(1, 6, n).astype(float),
            rng.integers(-9, 10, (m, n)).astype(float),
            [(LESS, EQUAL, GREATER)[int(rng.integers(0, 3))] for _ in range(m)],
            rng.integers(-9, 10, m).astype(float))
        feasible, best = brute_force_min(lp)
        sol = solve(lp)
        if feasible:
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(best, abs=1e-7)
            n_opt += 1
        else:
            assert sol.status == INFEASIBLE
            n_inf += 1
    assert n_opt > 20 and n_inf > 5  # both branches genuinely exercised


def stress_program(rng):
    """Harder geometry: negative lower bounds, equality-heavy rows, small
    integer data prone to degeneracy."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, 5))
    lo = rng.integers(-3, 1, n).astype(float)
    hi = lo + rng.integers(1, 6, n).astype(float)
    senses = [(LESS, EQUAL, GREATER, EQUAL)[int(rng.integers(0, 4))]
              for _ in range(m)]
    return dense_program(rng.integers(-9, 10, n).astype(float), lo, hi,
                         rng.integers(-3, 4, (m, n)).astype(float),
                         senses, rng.integers(-6, 7, m).astype(float))


def test_stress_negative_bounds_and_equalities():
    rng = np.random.default_rng(424242)
    n_opt = n_inf = 0
    for _ in range(300):
        lp = stress_program(rng)
        feasible, best = brute_force_min(lp)
        sol = solve(lp)
        if feasible:
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(best, abs=1e-7)
            assert feasible_within(lp, sol.primal, 1e-7)
            assert abs(sol.objective - dual_objective(lp, sol)) <= 1e-7
            n_opt += 1
        else:
            assert sol.status == INFEASIBLE
            n_inf += 1
    assert n_opt > 100 and n_inf > 100


def test_complementary_slackness():
    rng = np.random.default_rng(5150)
    for _ in range(200):
        lp = random_feasible_program(rng, n_max=8, m_max=8)
        sol = solve(lp)
        assert sol.status == OPTIMAL
        for i in range(lp.num_rows):
            slack = lp.rhs[i] - float(lp.rows[i] @ sol.primal)
            if abs(slack) > 1e-6:  # strictly inactive row
                assert abs(sol.duals[i]) <= 1e-7
