"""Independent reference computations the tests check the package against.

The risk oracles evaluate VaR, CVaR and the composite measure by sorting
and scanning, and by the measure's linear program; ``exact_cost_to_go``
solves the subtree LP rooted at one node; ``highs_tree_objective``
solves the whole tree LP with HiGHS from its nonzeros;
``add_at_nonzeros`` gives the nonzeros of a matrix filled row by row
with ``np.add.at``; ``dense_program`` builds a small program from a
dense matrix; ``write_case`` writes a case file with optional risk
and engine blocks; ``reference_solve`` is the simplex's dense-kernel
path as it stood before ``lp`` kept the basic values, bounds and costs
in basis order, a per-iteration copy of each entering column and
per-row set-up loops included; ``path_bytes`` keys forward paths by
their bytes, so two runs' paths compare bit for bit.
"""

import json
from typing import Optional

import numpy as np

from hydrosddp.caseio import case_to_dict
from hydrosddp.hydro import SystemCase
from hydrosddp.lp import (
    _AT_LOWER,
    _AT_UPPER,
    _BASIC,
    _FREE,
    _REFACTOR_EVERY,
    _SPARSE_ROWS,
    _STALL_LIMIT,
    _TOL_PIVOT,
    _TOL_STEP,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    TOL_OPT,
    UNBOUNDED,
    LinearProgram,
    LPSolution,
    Nonzeros,
    NumericalFailure,
    solve,
)
from hydrosddp.risk import RiskMeasure, _atoms, quantile_position
from hydrosddp.scenario import Lattice
from hydrosddp.treelp import NODE_CAP, build_subtree_lp, build_tree_lp

# Trees HiGHS takes from their nonzeros may be larger than the bundled
# simplex's NODE_CAP.
HIGHS_NODE_CAP = 100_000


def dense_program(objective, lower, upper, rows, senses, rhs):
    """A LinearProgram whose matrix is given dense, as an m×n array or a
    list of m rows; its nonzeros are taken column by column."""
    A = np.asarray(rows, dtype=float).reshape(len(senses), len(objective))
    col, row = np.nonzero(A.T)
    return LinearProgram(objective, lower, upper,
                         Nonzeros(col, row, A[row, col]), senses, rhs)


def var_oracle(values, alpha: float) -> float:
    """Smallest atom whose empirical CDF reaches alpha."""
    v = _atoms(values)
    return float(np.sort(v, kind="stable")[quantile_position(alpha, v.size) - 1])


def cvar_oracle(values, alpha: float) -> float:
    """Exact CVaR by scanning the anchor b over the support.

    The minimized objective b + E[(Y-b)^+]/(1-alpha) attains its minimum
    at an atom, so the scan is exact rather than approximate.
    """
    v = _atoms(values)
    excess = np.maximum(v[None, :] - v[:, None], 0.0).mean(axis=1)
    return float((v + excess / (1.0 - alpha)).min())


def rho(values, measure: RiskMeasure) -> float:
    """Composite measure: (1-lam)*mean + lam*CVaR_alpha."""
    v = _atoms(values)
    if measure.lam == 0.0:
        return float(v.mean())
    return float((1.0 - measure.lam) * v.mean()
                 + measure.lam * cvar_oracle(v, measure.alpha))


def rho_lp(values, measure: RiskMeasure):
    """Composite measure via its linear program; returns (value, z, deltas).

    Decision variables are the anchor z and per-atom excesses delta_l;
    the expectation term is constant and added outside the solve.
    """
    v = _atoms(values)
    n = v.size
    lam, alpha = measure.lam, measure.alpha
    cost = np.empty(n + 1)
    cost[0] = lam
    cost[1:] = lam / ((1.0 - alpha) * n)
    lower = np.zeros(n + 1)
    lower[0] = -np.inf
    upper = np.full(n + 1, np.inf)
    rows = np.hstack([np.ones((n, 1)), np.eye(n)])  # z + delta_l >= y_l
    sol = solve(dense_program(cost, lower, upper, rows, [GREATER] * n, v))
    if sol.status != OPTIMAL:  # pragma: no cover - always feasible/bounded
        raise ArithmeticError(f"risk LP ended {sol.status}")
    value = (1.0 - lam) * float(v.mean()) + sol.objective
    return value, float(sol.primal[0]), sol.primal[1:].copy()


def path_bytes(paths):
    """Each step of ``paths`` as (opening, state bytes, immediate cost,
    weight bytes), so equal lists mean bit-identical paths."""
    return [(step.opening, step.state_out.tobytes(), step.immediate_cost,
             None if step.weights is None else step.weights.weights.tobytes())
            for p in paths for step in p.steps]


def exact_cost_to_go(case: SystemCase, lattice: Lattice, measure: RiskMeasure,
                     t: int, state: np.ndarray, opening: Optional[int] = None,
                     cap: int = NODE_CAP) -> float:
    """Exact Q_t(state, opening): optimum of the subtree LP rooted there."""
    sol = solve(build_subtree_lp(case, lattice, measure, t, state,
                                 opening, cap))
    if sol.status != OPTIMAL:
        raise RuntimeError(f"subtree LP ended {sol.status}")
    return sol.objective


def highs_tree_objective(case: SystemCase, lattice: Lattice,
                         measure: RiskMeasure,
                         cap: int = HIGHS_NODE_CAP) -> float:
    """Optimum of ``build_tree_lp`` by HiGHS, fed the LP's nonzeros."""
    import pytest
    pytest.importorskip("scipy")
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    lp = build_tree_lp(case, lattice, measure, cap)
    nz = lp.nonzeros
    A = csr_array((nz.val, (nz.row, nz.col)),
                  shape=(lp.num_rows, lp.num_vars))
    senses = np.array(lp.senses)
    ub = senses != "="
    sign = np.where(senses[ub] == GREATER, -1.0, 1.0)
    res = linprog(lp.objective,
                  A_ub=A[np.flatnonzero(ub)] * sign[:, None],
                  b_ub=lp.rhs[ub] * sign,
                  A_eq=A[np.flatnonzero(~ub)], b_eq=lp.rhs[~ub],
                  bounds=np.column_stack([lp.lower, lp.upper]),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun)


def add_at_nonzeros(rows, n):
    """``(col, row, val)`` of the m×n matrix whose row i is
    ``np.add.at`` of the ``(column, coefficient)`` pairs ``rows[i]``
    into zeros, read column by column."""
    dense = np.zeros((len(rows), n))
    for i, pairs in enumerate(rows):
        ind = np.array([j for j, _ in pairs], dtype=np.intp)
        val = np.array([a for _, a in pairs], dtype=float)
        np.add.at(dense[i], ind, val)
    col, row = np.nonzero(dense.T)
    return col, row, dense[row, col]


def write_case(path, system, lattice, risk=None, engine=None):
    """Write a case file; ``risk`` and ``engine`` add those blocks."""
    doc = case_to_dict(system, lattice)
    if risk is not None:
        doc["risk"] = {"lambda": risk.lam, "alpha": risk.alpha}
    if engine:
        doc["engine"] = dict(engine)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")

class _ReferenceColumns:
    """The equality-form matrix as nonzeros sorted by column, with the
    dense-kernel accessors the reference solve reads."""

    def __init__(self, m, n, col, row, val):
        self.m, self.n = m, n
        self.col, self.row, self.val = col, row, val
        self.ptr = np.searchsorted(col, np.arange(n + 1))

    def price(self, cost, y):
        """Reduced costs ``cost - y A``."""
        return cost - np.bincount(self.col, self.val * y[self.row],
                                  minlength=self.n)

    def column(self, j):
        """Dense ``A[:, j]``."""
        a = np.zeros(self.m)
        k = slice(self.ptr[j], self.ptr[j + 1])
        a[self.row[k]] = self.val[k]
        return a

    def basis_matrix(self, basis):
        """Dense ``A[:, basis]``; nonbasic entries land in a spare column."""
        pos = np.full(self.n, self.m)
        pos[basis] = np.arange(self.m)
        B = np.zeros((self.m, self.m + 1))
        B[self.row, pos[self.col]] = self.val
        return B[:, :-1]


def reference_solve(lp: LinearProgram) -> LPSolution:
    """The dense-kernel solve as it stood before the basis-ordered sweep,
    for programs below ``lp._SPARSE_ROWS`` rows."""
    n, m = lp.num_vars, lp.num_rows
    if m >= _SPARSE_ROWS:
        raise ValueError(f"{m} rows take the sparse kernels")

    # Equality form: [A | I][x; s] = b with slack bounds encoding senses.
    slack_lo = np.zeros(m)
    slack_hi = np.zeros(m)
    for i, s in enumerate(lp.senses):
        if s == LESS:
            slack_hi[i] = np.inf
        elif s == GREATER:
            slack_lo[i] = -np.inf
        # EQUAL keeps [0, 0]
    nz_col, nz_row = np.nonzero(lp.rows.T)
    nz_val = lp.rows[nz_row, nz_col]
    col = [nz_col, np.arange(n, n + m)]
    row = [nz_row, np.arange(m)]
    val = [nz_val, np.ones(m)]
    lo = np.concatenate([lp.lower, slack_lo])
    hi = np.concatenate([lp.upper, slack_hi])
    cost = np.concatenate([lp.objective, np.zeros(m)])
    b = lp.rhs.copy()

    ncols = n + m
    vstat = np.empty(ncols, dtype=np.int8)
    x = np.zeros(ncols)
    # Nonbasic structural variables sit at a finite bound, free ones at 0.
    for j in range(n):
        if np.isfinite(lo[j]):
            vstat[j], x[j] = _AT_LOWER, lo[j]
        elif np.isfinite(hi[j]):
            vstat[j], x[j] = _AT_UPPER, hi[j]
        else:
            vstat[j], x[j] = _FREE, 0.0

    resid = b - lp.rows @ x[:n]

    # Slack basis where the residual fits the slack bounds. Each violated
    # row gets its own artificial column so phase 1 starts feasible; the
    # row's slack sits at the bound it missed.
    basis = np.empty(m, dtype=np.intp)
    art_rows, art_data = [], []
    for i in range(m):
        v = min(max(resid[i], slack_lo[i]), slack_hi[i])
        gap = resid[i] - v
        if abs(gap) <= _TOL_STEP:
            basis[i] = n + i
            vstat[n + i] = _BASIC
            x[n + i] = resid[i]
        else:
            vstat[n + i] = _AT_LOWER if np.isfinite(slack_lo[i]) else _AT_UPPER
            x[n + i] = v
            art_rows.append(i)
            art_data.append(1.0 if gap > 0 else -1.0)

    n_art = len(art_rows)
    p1_pivots = p1_refactors = 0
    if n_art:
        xa = np.empty(n_art)
        for k, i in enumerate(art_rows):
            xa[k] = abs(resid[i] - x[n + i])
            basis[i] = ncols + k
        col.append(np.arange(ncols, ncols + n_art))
        row.append(np.asarray(art_rows, dtype=np.intp))
        val.append(np.asarray(art_data))
        lo = np.concatenate([lo, np.zeros(n_art)])
        hi = np.concatenate([hi, np.full(n_art, np.inf)])
        cost = np.concatenate([cost, np.zeros(n_art)])
        vstat = np.concatenate([vstat, np.full(n_art, _BASIC, dtype=np.int8)])
        x = np.concatenate([x, xa])
    A = _ReferenceColumns(m, ncols + n_art, np.concatenate(col),
                          np.concatenate(row), np.concatenate(val))

    if n_art:
        phase1_cost = np.zeros(ncols + n_art)
        phase1_cost[ncols:] = 1.0
        status, p1_pivots, p1_refactors = _reference_iterate(
            A, b, phase1_cost, lo, hi, x, vstat, basis)
        if status != OPTIMAL:  # pragma: no cover - phase 1 is bounded below
            raise NumericalFailure("phase 1 did not terminate optimal")
        if np.maximum(x[ncols:], 0.0).sum() > 1e-7 * (1.0 + abs(b).max(initial=0.0)):
            return LPSolution(INFEASIBLE, np.nan, np.full(n, np.nan),
                              np.full(m, np.nan), p1_pivots, 0, p1_refactors)
        hi[ncols:] = 0.0  # freeze artificials out of phase 2
        x[ncols:] = np.maximum(x[ncols:], 0.0)

    status, p2_pivots, refactors = _reference_iterate(A, b, cost, lo, hi, x,
                                                      vstat, basis)
    refactors += p1_refactors
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, -np.inf, np.full(n, np.nan),
                          np.full(m, np.nan), p1_pivots, p2_pivots, refactors)

    # Fresh factorization for clean duals.
    b_inv = _reference_invert(A, basis)
    if b_inv is None:
        raise NumericalFailure("singular basis at termination")
    duals = cost[basis] @ b_inv
    primal = x[:n].copy()
    objective = lp.objective @ primal
    return LPSolution(OPTIMAL, float(objective), primal, duals,
                      p1_pivots, p2_pivots, refactors + 1)


def _reference_iterate(A, b, cost, lo, hi, x, vstat, basis):
    """Primal simplex sweep on the equality form; mutates x/vstat/basis.

    Returns (status, iterations, refactorizations), bound flips counted
    as iterations.
    """
    m = A.m
    b_inv = _reference_invert(A, basis)
    if b_inv is None:
        raise NumericalFailure("singular starting basis")
    refactors = 1
    max_iters = 10_000 + 10 * (A.n + m)
    bland = False
    stall = 0
    fixed = lo == hi
    # up[j] / dn[j] are 1 where nonbasic column j may increase / decrease;
    # a column is eligible where its score, |d| times up[j] if d < 0 and
    # dn[j] otherwise, exceeds TOL_OPT.
    free = vstat == _FREE
    up = np.where(((vstat == _AT_LOWER) | free) & ~fixed, 1.0, 0.0)
    dn = np.where(((vstat == _AT_UPPER) | free) & ~fixed, 1.0, 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(max_iters):
            if it and it % _REFACTOR_EVERY == 0:
                b_inv, ok = _reference_refactor(A, b, x, vstat, basis)
                refactors += 1
                if not ok:  # pragma: no cover
                    raise NumericalFailure("singular basis on refactorization")

            y = cost[basis] @ b_inv
            d = A.price(cost, y)
            score = np.abs(d) * np.where(d < 0.0, up, dn)
            q = int(score.argmax())
            if score[q] <= TOL_OPT:
                return OPTIMAL, it, refactors
            if bland:
                q = int(np.flatnonzero(score > TOL_OPT)[0])
            sigma = 1.0 if d[q] < 0 else -1.0

            w = b_inv @ A.column(q)
            xb = x[basis]
            step = sigma * w
            # Blocking ratios for basic variables pushed toward a bound.
            ratios = np.where(step > _TOL_PIVOT, (xb - lo[basis]) / step,
                              np.where(step < -_TOL_PIVOT, (xb - hi[basis]) / step,
                                       np.inf))
            ratios = np.where(np.isnan(ratios), np.inf, ratios)
            min_ratio = float(ratios.min(initial=np.inf))
            flip_cap = hi[q] - lo[q]

            if flip_cap <= min_ratio:
                if not np.isfinite(flip_cap):
                    return UNBOUNDED, it, refactors
                # Bound flip: the entering variable crosses to its other bound.
                x[basis] = xb - step * flip_cap
                x[q] = hi[q] if sigma > 0 else lo[q]
                vstat[q] = _AT_UPPER if sigma > 0 else _AT_LOWER
                up[q], dn[q] = dn[q], up[q]
                stall = 0
                bland = False
                continue

            delta = max(min_ratio, 0.0)
            cand = np.flatnonzero(ratios <= delta + 1e-9)
            if bland:
                r = int(cand[np.argmin(basis[cand])])
            else:
                r = int(cand[np.argmax(np.abs(w[cand]))])

            leaving = basis[r]
            x[basis] = xb - step * delta
            x[q] = x[q] + sigma * delta
            to_lower = bool(step[r] > 0)
            x[leaving] = lo[leaving] if to_lower else hi[leaving]
            vstat[leaving] = _AT_LOWER if to_lower else _AT_UPPER
            vstat[q] = _BASIC
            basis[r] = q
            up[q] = dn[q] = 0.0
            movable = not fixed[leaving]
            up[leaving] = float(movable and to_lower)
            dn[leaving] = float(movable and not to_lower)

            # Product-form update of the explicit inverse, on the rows
            # where w is nonzero: the others change by exactly zero.
            piv = w[r]
            if abs(piv) < _TOL_PIVOT:  # pragma: no cover - guarded by ratio test
                b_inv, ok = _reference_refactor(A, b, x, vstat, basis)
                refactors += 1
                if not ok:
                    raise NumericalFailure("degenerate pivot produced singular basis")
            else:
                row = b_inv[r] / piv
                w[r] = 0.0
                nz = w.nonzero()[0]
                b_inv[nz] -= np.outer(w[nz], row)
                b_inv[r] = row

            if delta <= _TOL_STEP:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False

    raise NumericalFailure(f"simplex exceeded {max_iters} iterations")


def _reference_refactor(A, b, x, vstat, basis):
    """Recompute the basis inverse and basic values from scratch."""
    b_inv = _reference_invert(A, basis)
    if b_inv is None:
        return None, False
    x_n = np.where(vstat != _BASIC, x, 0.0)  # nonbasic values only
    rhs = b - np.bincount(A.row, A.val * x_n[A.col], minlength=A.m)
    x[basis] = b_inv @ rhs
    return b_inv, True


def _reference_invert(A, basis):
    """Explicit ``B^-1`` for ``B = A[:, basis]``, or None if B is singular."""
    try:
        return np.linalg.inv(A.basis_matrix(basis))
    except np.linalg.LinAlgError:
        return None
