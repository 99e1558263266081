"""Linear programs and a bundled revised simplex solver.

Everything downstream (stage subproblems, the full-tree oracle, the CVaR
linear form) is expressed as a :class:`LinearProgram` and solved here.
A program is given its constraint matrix only as :class:`Nonzeros`,
sorted by column, then by row, which ``LPBuilder.build`` emits and a
stage template's stamps share; no solve, stamp or tree build makes a
dense m×n copy of a large program. ``LinearProgram.rows`` densifies the
matrix on request, for tests and benchmark reports on small programs.

The solver is a two-phase primal simplex on the bounded-variable
equality form ``A x + I s = b``, held (phase-1 artificials included)
only as nonzeros sorted by column, so pricing costs O(nonzeros), with a
dense explicit basis inverse updated on the rows each pivot changes,
periodic refactorization that drops the old inverse before it forms the
new one, and a Bland's-rule fallback that engages after a stall of
degenerate pivots. The sweep keeps the basic values, bounds and costs
in basis order, so an iteration gathers nothing by the basis.

Each program picks one of two kernel sets by its row count, and the
choice travels as one value: the dense copy of the matrix that a solve
below ``_SPARSE_ROWS`` rows makes, or None. With the copy, the basis is
inverted by LAPACK from its rows, and the duals and the entering column
are dense products with the inverse, the column read from the copy; the
starting residual is a BLAS product with the matrix, laid out m×n for
that one product. From ``_SPARSE_ROWS`` rows on, the basis is factored
by its sparsity: column and row singletons are peeled into a block
triangular form, level by level, and only the remaining bump is solved
densely (Maros 2003, *Computational Techniques of the Simplex Method*,
ch. 8; Suhl & Suhl 1990). The entering column is then formed from its
nonzeros alone, and the duals are updated in O(m) per pivot and
recomputed at every factorization. Apart from the bump, which LAPACK
solves, every product on this path runs in numpy's own loops in a fixed
order, so the BLAS thread count cannot move a pivot or the last bits of
a result.

Phase 1 starts from the slack basis. Each equality row that the
starting point violates gets its own artificial column; all violated
inequality rows share a single artificial (Chvatal 1983, ch. 3), basic
in the most violated of them, so a program with many violated cut rows
pays for one artificial instead of one per row. Each solution reports
its simplex iterations per phase (bound flips included) and its basis
factorizations. The duals come from a fresh factorization of the final
basis; when phase 2 makes no pivot, that is the one phase 2 started
from, and it is not formed again.

Dual convention: the reported dual ``y_i`` of row ``i`` is the
derivative of the optimal objective with respect to that row's
right-hand side (Lagrangian ``objective + sum_i y_i * (rhs_i - row_i)``).
Cut gradients can therefore be read off constraint duals directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LESS = "<="
EQUAL = "="
GREATER = ">="
_SENSES = (LESS, EQUAL, GREATER)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Feasibility / optimality tolerances; desk-scale data is well conditioned.
# Phase 1 declares a program infeasible when its artificials sum to more
# than TOL_FEAS * (1 + max|b|).
TOL_FEAS = 1e-7
TOL_OPT = 1e-9
_TOL_PIVOT = 1e-10
_TOL_STEP = 1e-12
_STALL_LIMIT = 200
_REFACTOR_EVERY = 128
# Programs with at least this many rows run the sparse kernels. Timed on
# 28 casegen tree LPs of 13 to 887 rows, the dense kernels won every tree
# up to 89 rows, the sparse ones every tree from 115 rows, and the two
# split at 103 rows (BENCH_pr6.json, "crossover").
_SPARSE_ROWS = 100


class LPError(Exception):
    """Base class for solver errors."""


class MalformedProgram(LPError):
    """Program data violates the LinearProgram invariants."""


class NumericalFailure(LPError):
    """Iteration guard exceeded; should not happen with anti-cycling."""


class Nonzeros(NamedTuple):
    """A constraint matrix as its nonzeros sorted by column, then by row:
    entry ``k`` is ``A[row[k], col[k]] = val[k]``, each ``(row, col)``
    at most once and every ``val`` nonzero and finite."""

    col: np.ndarray
    row: np.ndarray
    val: np.ndarray


class LinearProgram:
    """Immutable minimization LP with per-variable bounds.

    Row ``i`` reads ``A[i] x  sense[i]  rhs[i]`` with sense in {<=, =, >=}.
    ``A`` is given and held only as its :class:`Nonzeros`, from
    ``LPBuilder.build`` or a stage template's stamp; any other matrix
    argument raises MalformedProgram. Columns and rows are addressed by
    index: a solution's ``primal[j]`` is column j and its ``duals[i]`` is
    row i, in the order given here.
    """

    __slots__ = ("num_vars", "num_rows", "objective", "lower", "upper",
                 "nonzeros", "senses", "rhs")

    def __init__(self, objective, lower, upper, nonzeros, senses, rhs):
        self.objective = np.ascontiguousarray(objective, dtype=float)
        if self.objective.ndim != 1:
            raise MalformedProgram("objective must be a vector")
        self.num_vars = n = self.objective.shape[0]
        self.lower = np.ascontiguousarray(lower, dtype=float)
        self.upper = np.ascontiguousarray(upper, dtype=float)
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise MalformedProgram("bound vectors must match num_vars")
        if np.any(self.lower > self.upper):
            raise MalformedProgram("some variable has lower > upper")
        self.senses = tuple(senses)
        self.num_rows = m = len(self.senses)
        for s in self.senses:
            if s not in _SENSES:
                raise MalformedProgram(f"unknown sense {s!r}")
        self.rhs = np.ascontiguousarray(rhs, dtype=float)
        if self.rhs.shape != (m,):
            raise MalformedProgram("rhs length must match row count")
        if not np.all(np.isfinite(self.rhs)):
            raise MalformedProgram("rhs entries must be finite")
        if not isinstance(nonzeros, Nonzeros):
            raise MalformedProgram(
                f"the matrix must be given as Nonzeros, not "
                f"{type(nonzeros).__name__}")
        self.nonzeros = _checked(nonzeros, m, n)

    @property
    def rows(self) -> np.ndarray:
        """The constraint matrix as a new dense m×n array. The solver
        never reads it; it is for tests and benchmark reports on small
        programs."""
        return _dense(self.nonzeros, self.num_rows, self.num_vars)


def _dense(nz: Nonzeros, m, n) -> np.ndarray:
    A = np.zeros((m, n))
    A[nz.row, nz.col] = nz.val
    return A


def _checked(nz: Nonzeros, m, n) -> Nonzeros:
    """``nz`` with index and value dtypes fixed, arrays that have them
    shared, once its entries are found in range, sorted, distinct,
    nonzero and finite."""
    col = np.asarray(nz.col, dtype=np.intp)
    row = np.asarray(nz.row, dtype=np.intp)
    val = np.asarray(nz.val, dtype=float)
    if not (col.ndim == row.ndim == val.ndim == 1
            and col.size == row.size == val.size):
        raise MalformedProgram("nonzeros must be three vectors of one length")
    if col.size:
        if (col.min() < 0 or col.max() >= n or row.min() < 0
                or row.max() >= m):
            raise MalformedProgram("nonzero index out of range")
        key = col * m + row
        if np.any(key[1:] <= key[:-1]):
            raise MalformedProgram(
                "nonzeros must be sorted by column, then row, once each")
        if not np.all(val):
            raise MalformedProgram("nonzeros hold an exact zero")
        if not np.all(np.isfinite(val)):
            raise MalformedProgram("row coefficients must be finite")
    return Nonzeros(col, row, val)


@dataclass
class LPSolution:
    """Primal/dual result of one solve, indexed like the program's columns
    and rows. Duals valid only when optimal."""

    status: str
    objective: float
    primal: np.ndarray
    duals: np.ndarray
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    # Basis factorizations of either kind: dense inverses below
    # _SPARSE_ROWS rows, triangular-plus-bump factorizations from there.
    refactorizations: int = 0


class LPBuilder:
    """Incremental construction helper for LinearProgram instances.

    ``add_var`` and ``add_row`` return the new column's or row's index,
    which is how the built program and its solution address it.
    """

    def __init__(self):
        self._cost = []
        self._lo = []
        self._hi = []
        self._col = []           # every row's entries, row after row
        self._val = []
        self._count = []         # entries per row
        self._senses = []
        self._rhs = []

    def add_var(self, lower=0.0, upper=np.inf, cost=0.0) -> int:
        idx = len(self._cost)
        self._cost.append(cost)
        self._lo.append(lower)
        self._hi.append(upper)
        return idx

    def add_row(self, coeffs, sense, rhs) -> int:
        """coeffs: iterable of (var index, coefficient) pairs."""
        idx = len(self._rhs)
        k = len(self._col)
        for j, a in coeffs:
            self._col.append(j)
            self._val.append(a)
        self._count.append(len(self._col) - k)
        self._senses.append(sense)
        self._rhs.append(rhs)
        return idx

    def set_cost(self, var: int, cost: float) -> None:
        self._cost[var] = cost

    def build(self) -> LinearProgram:
        """The program, its matrix as nonzeros. Entries repeated within a
        row are summed in the order they were added, starting from 0.0,
        and entries that are or sum to an exact zero are dropped, as
        ``np.add.at`` into a zero matrix and ``np.nonzero`` would do."""
        n, m = len(self._cost), len(self._rhs)
        col = np.array(self._col, dtype=np.intp)
        val = np.array(self._val, dtype=float)
        if col.size and (col.min() < 0 or col.max() >= n):
            raise MalformedProgram("row entry names a missing column")
        key = col * m + np.repeat(np.arange(m), self._count)
        order = np.argsort(key, kind="stable")
        key, val = key[order], val[order]
        first = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        if not first.all():
            group = np.cumsum(first) - 1
            total = np.zeros(group[-1] + 1)
            np.add.at(total, group, val)  # in index order, within a group
            key, val = key[first], total
        keep = val != 0.0
        col, row = np.divmod(key[keep], max(m, 1))
        return LinearProgram(self._cost, self._lo, self._hi,
                             Nonzeros(col, row, val[keep]), self._senses,
                             self._rhs)


# vstat codes
_AT_LOWER, _AT_UPPER, _FREE, _BASIC = 0, 1, 2, 3


class _Columns:
    """Constraint matrix of the equality form as nonzeros sorted by
    column, ``(col, row, val)``, with column ``j`` at ``ptr[j]:ptr[j+1]``."""

    def __init__(self, m, n, col, row, val):
        self.m, self.n = m, n
        self.col, self.row, self.val = col, row, val
        self.ptr = np.searchsorted(col, np.arange(n + 1))

    def price(self, cost, y):
        """Reduced costs ``cost - y A``."""
        return cost - np.bincount(self.col, self.val * y[self.row],
                                  minlength=self.n)

    def ftran(self, b_inv, j):
        """``B^-1 A[:, j]`` from the nonzeros of column j alone."""
        k = slice(self.ptr[j], self.ptr[j + 1])
        return np.einsum("ij,j->i", b_inv[:, self.row[k]], self.val[k])


def solve(lp: LinearProgram) -> LPSolution:
    """Solve a LinearProgram; deterministic for a fixed input.

    Returns an LPSolution whose duals follow the rhs-derivative
    convention documented at module level.
    """
    n, m = lp.num_vars, lp.num_rows

    # Equality form: [A | I][x; s] = b with slack bounds encoding senses
    # (EQUAL keeps [0, 0]).
    slack_lo = np.array([-np.inf if s == GREATER else 0.0 for s in lp.senses])
    slack_hi = np.array([np.inf if s == LESS else 0.0 for s in lp.senses])
    nz_col, nz_row, nz_val = lp.nonzeros
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
    has_lo = np.isfinite(lp.lower)
    has_hi = np.isfinite(lp.upper)
    vstat[:n] = np.where(has_lo, _AT_LOWER, np.where(has_hi, _AT_UPPER, _FREE))
    x[:n] = np.where(has_lo, lp.lower, np.where(has_hi, lp.upper, 0.0))

    if m >= _SPARSE_ROWS:
        resid = b - np.bincount(nz_row, nz_val * x[nz_col], minlength=m)
    else:
        # The dense kernels start from a BLAS product with the matrix,
        # laid out as a C-ordered m×n block for this product alone.
        resid = b - _dense(lp.nonzeros, m, n) @ x[:n]

    # Slack basis where the residual fits the slack bounds. The violated
    # rows get artificial columns so phase 1 starts feasible: one per
    # equality row, and one shared by all inequality rows.
    basis = np.arange(n, ncols)
    vstat[n:] = _BASIC
    x[n:] = resid
    gap = resid - np.minimum(np.maximum(resid, slack_lo), slack_hi)
    fits = np.abs(gap) <= _TOL_STEP
    equality = slack_lo == slack_hi
    art_rows = np.flatnonzero(~fits & equality)
    ineq_rows = np.flatnonzero(~fits & ~equality)
    # A violated equality row's slack is fixed at 0.
    vstat[n + art_rows] = _AT_LOWER
    x[n + art_rows] = 0.0
    art_data = np.where(gap[art_rows] > 0, 1.0, -1.0)

    n_art = art_rows.size + bool(ineq_rows.size)
    p1_pivots = p1_refactors = 0
    if n_art:
        xa = np.empty(n_art)
        xa[:art_rows.size] = np.abs(resid[art_rows])
        basis[art_rows] = ncols + np.arange(art_rows.size)
        col.append(np.arange(ncols, ncols + art_rows.size))
        row.append(art_rows)
        val.append(art_data)
        if ineq_rows.size:
            # With the shared artificial at value a, row i reads
            # A_i x + s_i + sign_i a = b_i, so s_i = resid_i - sign_i a,
            # where sign_i resid_i = |resid_i|. Take a = max |resid_i|.
            # A violated <= row has sign -1 and slack bounds [0, inf):
            # s_i = a - |resid_i| >= 0. A violated >= row has sign +1
            # and bounds (-inf, 0]: s_i = |resid_i| - a <= 0. So every
            # slack lies within its bounds. The most violated row's
            # slack lands exactly on 0 and leaves the basis to the
            # artificial; the basis is the identity with that column
            # replaced by one whose diagonal entry is +-1, so it is
            # nonsingular.
            rows = ineq_rows
            sign = np.sign(resid[rows])
            mag = np.abs(resid[rows])
            k = n_art - 1
            col.append(np.full(len(rows), ncols + k))
            row.append(rows)
            val.append(sign)
            xa[k] = mag.max()
            vstat[n + rows] = _BASIC
            x[n + rows] = resid[rows] - sign * xa[k]
            basis[rows] = n + rows
            r = int(rows[np.argmax(mag)])
            vstat[n + r] = _AT_LOWER if np.isfinite(slack_lo[r]) else _AT_UPPER
            x[n + r] = 0.0
            basis[r] = ncols + k
        lo = np.concatenate([lo, np.zeros(n_art)])
        hi = np.concatenate([hi, np.full(n_art, np.inf)])
        cost = np.concatenate([cost, np.zeros(n_art)])
        vstat = np.concatenate([vstat, np.full(n_art, _BASIC, dtype=np.int8)])
        x = np.concatenate([x, xa])
    A = _Columns(m, ncols + n_art, np.concatenate(col), np.concatenate(row),
                 np.concatenate(val))
    # The kernel choice: below _SPARSE_ROWS rows, a dense copy whose row j
    # holds column j of A, so each entering column is one contiguous read.
    dense = None
    if m < _SPARSE_ROWS:
        dense = np.zeros((A.n, m))
        dense[A.col, A.row] = A.val

    if n_art:
        phase1_cost = np.zeros(ncols + n_art)
        phase1_cost[ncols:] = 1.0
        status, p1_pivots, p1_refactors = _iterate(
            A, b, phase1_cost, lo, hi, x, vstat, basis, dense)[:3]
        if status != OPTIMAL:  # pragma: no cover - phase 1 is bounded below
            raise NumericalFailure("phase 1 did not terminate optimal")
        infeasibility = np.maximum(x[ncols:], 0.0).sum()
        if infeasibility > TOL_FEAS * (1.0 + abs(b).max(initial=0.0)):
            return LPSolution(INFEASIBLE, np.nan, np.full(n, np.nan),
                              np.full(m, np.nan), p1_pivots, 0, p1_refactors)
        hi[ncols:] = 0.0  # freeze artificials out of phase 2
        x[ncols:] = np.maximum(x[ncols:], 0.0)

    status, p2_pivots, refactors, b_inv = _iterate(A, b, cost, lo, hi, x,
                                                   vstat, basis, dense)
    refactors += p1_refactors
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, -np.inf, np.full(n, np.nan),
                          np.full(m, np.nan), p1_pivots, p2_pivots, refactors)

    # Fresh factorization for clean duals, formed after the swept inverse
    # is dropped. Without a phase-2 pivot, the inverse phase 2 started
    # from is that factorization already.
    if p2_pivots:
        b_inv = None
        b_inv = _invert(A, basis, dense)
        refactors += 1
        if b_inv is None:
            raise NumericalFailure("singular basis at termination")
    duals = _btran(cost[basis], b_inv, dense)
    primal = x[:n].copy()
    objective = (np.einsum("i,i->", lp.objective, primal) if dense is None
                 else lp.objective @ primal)
    return LPSolution(OPTIMAL, float(objective), primal, duals,
                      p1_pivots, p2_pivots, refactors)


def _iterate(A, b, cost, lo, hi, x, vstat, basis, dense):
    """Primal simplex sweep on the equality form; mutates x/vstat/basis.

    Returns (status, iterations, refactorizations, basis inverse), bound
    flips counted as iterations. The basic values, bounds and costs are
    kept in basis order, so an iteration gathers nothing by the basis;
    ``x`` holds the nonbasic values and receives the basic ones on
    return.

    Below ``_SPARSE_ROWS`` rows, ``dense`` holds the matrix with column
    j of A as row j, the entering column is a BLAS product with the
    inverse, and so are the duals at every iteration. On the sparse path
    ``dense`` is None: the entering column is formed from its nonzeros,
    and the duals are carried across pivots and recomputed only at a
    factorization.
    """
    m = A.m
    b_inv = _invert(A, basis, dense)
    if b_inv is None:
        raise NumericalFailure("singular starting basis")
    refactors = 1
    y = None
    max_iters = 10_000 + 10 * (A.n + m)
    bland = False
    stall = 0
    fixed = lo == hi
    # rise[j] is -1.0 and dn[j] 1.0 where nonbasic column j may increase
    # and decrease, else 0.0, so d * rise = |d| for d < 0: a column may
    # enter where its score, d * rise if d < 0 and d * dn otherwise,
    # exceeds TOL_OPT.
    free = vstat == _FREE
    rise = np.where(((vstat == _AT_LOWER) | free) & ~fixed, -1.0, 0.0)
    dn = np.where(((vstat == _AT_UPPER) | free) & ~fixed, 1.0, 0.0)
    xb, lb, ub, cb = x[basis], lo[basis], hi[basis], cost[basis]

    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(max_iters):
            if it and it % _REFACTOR_EVERY == 0:
                x[basis] = xb
                b_inv = None    # one m×m inverse live at a time
                b_inv, ok = _refactor(A, b, x, vstat, basis, dense)
                refactors += 1
                if not ok:  # pragma: no cover
                    raise NumericalFailure("singular basis on refactorization")
                xb = x[basis]
                y = None

            if y is None or dense is not None:
                y = _btran(cb, b_inv, dense)
            d = A.price(cost, y)
            score = d * np.where(d < 0.0, rise, dn)
            q = int(score.argmax())
            if score[q] <= TOL_OPT:
                x[basis] = xb
                return OPTIMAL, it, refactors, b_inv
            if bland:
                q = int(np.flatnonzero(score > TOL_OPT)[0])
            sigma = 1.0 if d[q] < 0 else -1.0

            w = A.ftran(b_inv, q) if dense is None else b_inv @ dense[q]
            step = w if sigma > 0 else -w
            # Blocking ratios for basic variables pushed toward a bound.
            mag = np.abs(w)
            ratios = (xb - np.where(step > _TOL_PIVOT, lb, ub)) / step
            ratios[mag <= _TOL_PIVOT] = np.inf
            min_ratio = float(ratios.min()) if m else np.inf
            flip_cap = hi[q] - lo[q]

            if flip_cap <= min_ratio:
                if not np.isfinite(flip_cap):
                    x[basis] = xb
                    return UNBOUNDED, it, refactors, b_inv
                # Bound flip: the entering variable crosses to its other bound.
                xb -= step * flip_cap
                x[q] = hi[q] if sigma > 0 else lo[q]
                vstat[q] = _AT_UPPER if sigma > 0 else _AT_LOWER
                rise[q], dn[q] = -dn[q], -rise[q]
                stall = 0
                bland = False
                continue

            delta = max(min_ratio, 0.0)
            near = ratios <= delta + 1e-9
            if bland:
                cand = np.flatnonzero(near)
                r = int(cand[np.argmin(basis[cand])])
            else:
                # The first of the largest |w| among the near-tied rows;
                # every one of them has |w| > _TOL_PIVOT.
                r = int(np.where(near, mag, -1.0).argmax())

            leaving = basis[r]
            xb -= step * delta
            to_lower = bool(step[r] > 0)
            x[leaving] = lb[r] if to_lower else ub[r]
            vstat[leaving] = _AT_LOWER if to_lower else _AT_UPPER
            xb[r] = x[q] + sigma * delta
            lb[r], ub[r], cb[r] = lo[q], hi[q], cost[q]
            vstat[q] = _BASIC
            basis[r] = q
            rise[q] = dn[q] = 0.0
            movable = not fixed[leaving]
            rise[leaving] = -float(movable and to_lower)
            dn[leaving] = float(movable and not to_lower)

            # Product-form update of the explicit inverse, on the rows
            # where w is nonzero: the others change by exactly zero.
            piv = w[r]
            if abs(piv) < _TOL_PIVOT:  # pragma: no cover - guarded by ratio test
                x[basis] = xb
                b_inv = None
                b_inv, ok = _refactor(A, b, x, vstat, basis, dense)
                refactors += 1
                if not ok:
                    raise NumericalFailure("degenerate pivot produced singular basis")
                xb = x[basis]
                y = None
            else:
                row = b_inv[r] / piv
                w[r] = 0.0
                nz = w.nonzero()[0]
                b_inv[nz] -= np.outer(w[nz], row)
                b_inv[r] = row
                if dense is None:
                    # The new basis prices column q at zero: y A_q = cost_q.
                    y += d[q] * row

            if delta <= _TOL_STEP:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False

    raise NumericalFailure(f"simplex exceeded {max_iters} iterations")


def _refactor(A, b, x, vstat, basis, dense):
    """Recompute the basis inverse and basic values from scratch."""
    b_inv = _invert(A, basis, dense)
    if b_inv is None:
        return None, False
    x_n = np.where(vstat != _BASIC, x, 0.0)  # nonbasic values only
    rhs = b - np.bincount(A.row, A.val * x_n[A.col], minlength=A.m)
    x[basis] = (np.einsum("ij,j->i", b_inv, rhs) if dense is None
                else b_inv @ rhs)
    return b_inv, True


def _btran(cost_b, b_inv, dense):
    """Duals ``cost_B B^-1``; numpy's einsum loop, not BLAS, on the sparse
    kernels (``dense`` None)."""
    return (np.einsum("i,ij->j", cost_b, b_inv) if dense is None
            else cost_b @ b_inv)


def _invert(A, basis, dense):
    """Explicit ``B^-1`` for ``B = A[:, basis]``, or None if B is singular.

    On the dense kernels LAPACK inverts ``dense[basis].T``, the basis
    columns gathered from the solve's dense copy; on the sparse kernels
    (``dense`` None) ``_sparse_inverse`` factors B by its sparsity.
    """
    if dense is None:
        return _sparse_inverse(A, basis)
    try:
        return np.linalg.inv(dense[basis].T)
    except np.linalg.LinAlgError:
        return None


def _ranges(start, count):
    """The ranges ``start[i]:start[i] + count[i]`` concatenated, and the
    ``i`` each position comes from."""
    owner = np.repeat(np.arange(count.size), count)
    first = np.cumsum(count) - count
    return np.arange(owner.size) - first[owner] + start[owner], owner


def _sparse_inverse(A, basis):
    """``B^-1`` through the block triangular form of ``B = A[:, basis]``,
    or None if B is structurally or numerically singular.

    Column singletons are peeled first. A column with one nonzero among
    the rows still active gives its variable from that row once the
    row's other variables are known, so these levels are solved last,
    in reverse. Row singletons of the rest are peeled next. A row with
    one active nonzero gives its variable from variables already known,
    so these levels are solved first, in order. The rows and columns
    left over form the bump, which LAPACK solves densely in between.
    Substituting ``B X = I`` along this schedule, one vectorised step
    per level, gives ``X = B^-1`` a row at a time. Each row is formed
    from the nonzeros of the rows it reads, summed by numpy in a fixed
    order, so the sums do not depend on the BLAS thread count.
    """
    m = A.m
    k, pos = _ranges(A.ptr[basis], A.ptr[basis + 1] - A.ptr[basis])
    row, val = A.row[k], A.val[k]           # entries of B, by column

    def peel(live, major, minor):
        # Levels of singletons along `major` among the live entries, and
        # the entries left live: those of neither a singleton's major
        # line nor its minor line.
        levels = []
        while True:
            line = major[live]
            single = np.bincount(line, minlength=m)[line] == 1
            if not single.any():
                return levels, live
            e = live[single]
            levels.append(e)
            gone = np.zeros(m, dtype=bool)
            gone[minor[e]] = True
            live = live[~(single | gone[minor[live]])]

    col_levels, live = peel(np.arange(row.size), pos, row)
    row_levels, live = peel(live, row, pos)
    # Two singletons in one line make B singular; so does an empty line
    # left in the bump, where LAPACK meets a zero pivot.
    pivots = np.concatenate([np.empty(0, dtype=np.intp), *col_levels,
                             *row_levels])
    if (np.unique(row[pivots]).size < pivots.size
            or np.unique(pos[pivots]).size < pivots.size):
        return None
    row_on = np.ones(m, dtype=bool)
    pos_on = np.ones(m, dtype=bool)
    row_on[row[pivots]] = False
    pos_on[pos[pivots]] = False
    bump = np.flatnonzero(row_on)
    levels = [(row[e], pos[e]) for e in row_levels]
    if bump.size:
        levels.append((bump, np.flatnonzero(pos_on)))
    levels += [(row[e], pos[e]) for e in reversed(col_levels)]
    bump_level = len(row_levels) if bump.size else -1

    # Number the rows in solve order, so that each level's rows are a run
    # of ranks. Sorted by rank (by column within a row), the entries of
    # B then split into runs per level: own entries, in columns that the
    # level solves, and known entries, in columns solved before it.
    size = [r.size for r, _ in levels]
    bounds = np.concatenate([[0], np.cumsum(size)])
    rows = np.concatenate([r for r, _ in levels])
    rank = np.empty(m, dtype=np.intp)
    rank[rows] = np.arange(m)
    col_level = np.empty(m, dtype=np.intp)
    for i, (_, p) in enumerate(levels):
        col_level[p] = i
    by_rank = np.argsort(rank[row], kind="stable")
    e_rank, e_pos, e_val = rank[row[by_rank]], pos[by_rank], val[by_rank]
    own = col_level[e_pos] == np.repeat(np.arange(len(levels)), size)[e_rank]
    diag = np.zeros(m)              # by rank, for the singleton levels
    diag[e_rank[own]] = e_val[own]
    known = ~own
    k_rank, k_pos, k_neg = e_rank[known], e_pos[known], -e_val[known]
    k_bounds = np.searchsorted(k_rank, bounds).tolist()
    bounds = bounds.tolist()
    k_key = k_rank * m
    unit = np.arange(m) * m + rows  # key of each row's unit entry, by rank
    ones = np.ones(m)

    X = np.zeros((m, m))
    # Solved row p of X also as its nonzeros: columns xcol[xptr[p]:
    # xptr[p] + xlen[p]] and values likewise. The buffers have room for
    # a dense inverse, but only the pages written are ever touched.
    xcol = np.empty(m * m, dtype=np.intp)
    xval = np.empty(m * m)
    xptr = np.zeros(m, dtype=np.intp)
    xlen = np.zeros(m, dtype=np.intp)
    used = 0
    for i, (r, p) in enumerate(levels):
        lo, hi = bounds[i], bounds[i + 1]
        a, b = k_bounds[i], k_bounds[i + 1]
        # Row r reads e_r - sum of B[r, c] X[c] over its known
        # columns c: each known row's nonzeros, then a unit entry in
        # column r, which no known row touches. The key rank * m + column
        # gathers the terms of each entry of the result.
        c = k_pos[a:b]
        src, owner = _ranges(xptr[c], xlen[c])
        key = np.concatenate([k_key[a:b][owner] + xcol[src], unit[lo:hi]])
        term = np.concatenate([k_neg[a:b][owner] * xval[src], ones[lo:hi]])
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.empty(key.size, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        start = np.flatnonzero(new)
        rhs = np.add.reduceat(term[order], start)
        at, col = np.divmod(key[start], m)
        tgt = at - lo               # the row's place in the level
        if i != bump_level:         # B[r, p] is diagonal
            rhs /= diag[at]
        else:
            cols, col = np.unique(col, return_inverse=True)
            dense = np.zeros((r.size, cols.size))
            dense[tgt, col] = rhs
            local = np.empty(m, dtype=np.intp)
            local[p] = np.arange(p.size)
            block = np.zeros((r.size, p.size))
            mine = own & (e_rank >= lo) & (e_rank < hi)
            block[e_rank[mine] - lo, local[e_pos[mine]]] = e_val[mine]
            try:
                dense = np.linalg.solve(block, dense)
            except np.linalg.LinAlgError:
                return None
            tgt, col = np.nonzero(dense)
            rhs = dense[tgt, col]
            col = cols[col]
        X[p[tgt], col] = rhs
        n = np.bincount(tgt, minlength=r.size)
        xptr[p] = used + np.cumsum(n) - n
        xlen[p] = n
        xcol[used:used + rhs.size] = col
        xval[used:used + rhs.size] = rhs
        used += rhs.size
    return X
