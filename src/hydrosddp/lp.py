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
refactorization that drops the old inverse before it forms the new one,
and a Bland's-rule fallback that engages after a stall of degenerate
pivots. Every 128 iterations of a phase the dense kernels refactor; the
sparse ones refactor only if the sweep has drifted, that is, if its
basic values miss a row, or its carried duals price a basic column off
zero, by more than 1e-12 relative (Maros 2003 reinverts on lost
accuracy, not on a count). The sweep keeps the basic values, bounds and
costs in basis order, so an iteration gathers nothing by the basis.

A program builds the part of its equality form that its right-hand
sides and upper bounds do not touch once, when it is made, and keeps
it until it dies. ``stamp(rhs, upper)`` makes a program that
differs only in those two vectors, checks just them, and shares all
else, the form included, so a stamped solve sets up only its start:
the point, statuses, bounds and costs over the columns it has.

``presolved()`` is the one presolve step (Andersen & Andersen 1995,
*Presolving in linear programming*): an equality row whose only entry
outside fixed columns lies in a free column fixes that column and is
dropped, in passes until no row qualifies. It keeps every column and
the objective, so a presolved solution's primal is the full program's
and its objective needs no constant; its duals index the kept rows.
``solve`` never presolves: the tree oracle asks for it, while a stage
LP's rows of that kind are its copy rows, whose duals are the cut
gradients.

Each program picks one of two kernel sets by its row count, and the
choice is one value in the form: a dense copy of ``[A | I]`` below
``_SPARSE_ROWS`` rows, or None. Both sum the starting residual from the
nonzeros and factor every basis with one function, ``_invert``; they
differ only where their bits would. With the copy, the basis is
inverted by LAPACK from its rows, and the duals and the entering column
are dense products with the inverse, the column read from the copy. From ``_SPARSE_ROWS`` rows
on, the basis is factored by its sparsity: column and row singletons
are peeled into a block triangular form, level by level, and only the
remaining bump is solved densely (Maros
2003, *Computational Techniques of the Simplex Method*, ch. 8; Suhl &
Suhl 1990). The entering column is then formed from its nonzeros alone,
the duals are updated in O(m) per pivot and recomputed at every
factorization, and a pivot updates the inverse only in the rows where
the entering column, and the columns where the pivot row, exceed
``_TOL_DROP`` (1e-14) times their vector's largest magnitude. Entries
below that are residue of earlier cancellations, which the swept
inverse accumulates; skipping them lets a pivot row with fewer than m/4
live columns update only the entries in them, where its residue would
have made it rewrite full rows. Apart from
the bump, which LAPACK solves, every product on this path runs in
numpy's own loops in a fixed order, so the BLAS thread count cannot
move a pivot or the last bits of a result.

A solve may be given a start: a basis, one column per row, and the
nonbasic columns at their upper bounds. If it is nonsingular and its
basic values lie within their bounds to phase 1's tolerance, only phase
2 runs, from it. Phase 1 runs only without a start or after such a
fallback; both paths share phase 2, the final check and the duals. The
stage LPs get their start from ``hydro.StageTemplate.start``.

Phase 1 starts from the slack basis. Each row that the starting point
violates, whatever its sense, gets its own artificial column, basic in
that row, with the row's slack at the bound it missed (stage LPs take
their crash start, and a tree LP's start violates only equality rows,
so an artificial shared by violated inequality rows would save no
pivot). Either start is set up by one routine and factored by
``_refactor``, which fills in its basic values. Each solution reports
its simplex iterations per phase (bound flips included), its basis
factorizations, that start among them, and whether phase 2 ran from the
given start. The duals always come from a fresh factorization of the
final basis, formed once the sweep has dropped its inverse, so every
factorization here is made by ``_invert``.

A point reported optimal keeps every row and bound within phase 1's
tolerance, checked by the residual that sets phase 1 up; basic values
that drifted in the sweep raise NumericalFailure instead.

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
# than TOL_FEAS * (1 + max|b|), and no optimal point misses a row or bound
# by more.
TOL_FEAS = 1e-7
TOL_OPT = 1e-9
_TOL_PIVOT = 1e-10
# Relative zero tolerance of the sparse kernels' inverse update (Maros
# 2003); see ``_sparse_update``.
_TOL_DROP = 1e-14
# The sparse kernels keep their swept inverse at a check while the basic
# values solve every row within _TOL_DRIFT * (1 + max|b|) and the carried
# duals price every basic column within _TOL_DRIFT * (1 + max|cost|).
_TOL_DRIFT = 1e-12
_TOL_STEP = 1e-12
_STALL_LIMIT = 200
# Iterations of a phase between checks: the dense kernels refactor at
# each, the sparse ones only if the sweep has drifted past _TOL_DRIFT.
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
    """The simplex cannot certify its result: an iteration guard, a
    singular basis, or an optimal point off a row or bound."""


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
                 "nonzeros", "senses", "rhs", "_form")

    def __init__(self, objective, lower, upper, nonzeros, senses, rhs):
        self.objective = np.ascontiguousarray(objective, dtype=float)
        if self.objective.ndim != 1:
            raise MalformedProgram("objective must be a vector")
        if not np.isfinite(self.objective).all():
            raise MalformedProgram("objective entries must be finite")
        self.num_vars = n = self.objective.shape[0]
        self.lower = np.ascontiguousarray(lower, dtype=float)
        if self.lower.shape != (n,):
            raise MalformedProgram("bound vectors must match num_vars")
        self.upper = _checked_upper(self.lower, upper)
        self.senses = tuple(senses)
        self.num_rows = m = len(self.senses)
        for s in self.senses:
            if s not in _SENSES:
                raise MalformedProgram(f"unknown sense {s!r}")
        self.rhs = _checked_rhs(rhs, m)
        if not isinstance(nonzeros, Nonzeros):
            raise MalformedProgram(
                f"the matrix must be given as Nonzeros, not "
                f"{type(nonzeros).__name__}")
        self.nonzeros = _checked(nonzeros, m, n)
        self._form = _EqualityForm(self)

    def stamp(self, rhs, upper) -> LinearProgram:
        """This program with ``rhs`` and ``upper`` in place of its
        right-hand sides and upper bounds, checked as ``__init__`` checks
        them; it shares every other array and the equality form."""
        lp = object.__new__(LinearProgram)
        lp.num_vars, lp.num_rows = self.num_vars, self.num_rows
        lp.objective, lp.lower = self.objective, self.lower
        lp.upper = _checked_upper(self.lower, upper)
        lp.nonzeros, lp.senses = self.nonzeros, self.senses
        lp.rhs = _checked_rhs(rhs, self.num_rows)
        lp._form = self._form
        return lp

    def presolved(self) -> LinearProgram:
        """This program less the equality rows that pin a free column
        alone, that column fixed at the value its row gives it.

        In passes, until none qualifies: an equality row whose only
        entry outside fixed columns (``lower == upper``) lies in a free
        column fixes that column at ``(rhs - the row's fixed terms) /
        coefficient``, and is dropped. Of the rows that would fix one
        column in one pass the first wins; the others stay, for the
        solver to check. Columns and the objective are kept, so a
        solution's primal is the full program's, while its duals index
        the kept rows, in their order. Without a qualifying row, this
        program itself is returned."""
        col, row, val = self.nonzeros
        m = self.num_rows
        lower, upper = self.lower.copy(), self.upper.copy()
        free = np.isinf(lower) & np.isinf(upper)
        fixed = lower == upper
        equal = np.array(self.senses) == EQUAL
        kept = np.ones(m, dtype=bool)
        while True:
            # A dropped row has no entry left outside fixed columns, so
            # it never qualifies again.
            at = fixed[col]
            count = np.bincount(row[~at], minlength=m)
            pins = np.flatnonzero(~at & free[col] & (count[row] == 1)
                                  & equal[row])
            if not pins.size:
                break
            # Sorted by column, so the first entry of a column is its
            # first row.
            first = np.ones(pins.size, dtype=bool)
            np.not_equal(col[pins[1:]], col[pins[:-1]], out=first[1:])
            pins = pins[first]
            terms = np.bincount(row[at], val[at] * lower[col[at]],
                                minlength=m)
            c, r = col[pins], row[pins]
            lower[c] = upper[c] = (self.rhs[r] - terms[r]) / val[pins]
            fixed[c] = True
            kept[r] = False
        if kept.all():
            return self
        on = kept[row]
        renumber = np.cumsum(kept) - 1
        return LinearProgram(
            self.objective, lower, upper,
            Nonzeros(col[on], renumber[row[on]], val[on]),
            [s for s, k in zip(self.senses, kept) if k], self.rhs[kept])

    @property
    def rows(self) -> np.ndarray:
        """The constraint matrix as a new dense m×n array. The solver
        never reads it; it is for tests and benchmark reports on small
        programs."""
        A = np.zeros((self.num_rows, self.num_vars))
        A[self.nonzeros.row, self.nonzeros.col] = self.nonzeros.val
        return A


def _checked_upper(lower, upper) -> np.ndarray:
    upper = np.ascontiguousarray(upper, dtype=float)
    if upper.shape != lower.shape:
        raise MalformedProgram("bound vectors must match num_vars")
    # One pass: NaN fails every comparison, so it fails this in either
    # vector, as do lower > upper, lower = +inf and upper = -inf.
    if not ((lower <= upper) & (lower < np.inf) & (upper > -np.inf)).all():
        raise MalformedProgram(
            "some variable has lower > upper, a NaN bound, lower = +inf "
            "or upper = -inf")
    return upper


def _checked_rhs(rhs, m) -> np.ndarray:
    rhs = np.ascontiguousarray(rhs, dtype=float)
    if rhs.shape != (m,):
        raise MalformedProgram("rhs length must match row count")
    if not np.isfinite(rhs).all():
        raise MalformedProgram("rhs entries must be finite")
    return rhs


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
    # A start that the solve factored but did not take counts among them.
    refactorizations: int = 0
    started: bool = False         # phase 2 ran from the given start


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

    def add_rows(self, cols, block, sense, rhs) -> None:
        """Row i: ``block[i, c]`` in column ``cols[c]``, and ``rhs[i]``."""
        self._col += list(cols) * len(block)
        self._val += block.ravel().tolist()
        self._count += [len(cols)] * len(block)
        self._senses += [sense] * len(block)
        self._rhs += rhs.tolist()

    def set_cost(self, var: int, cost: float) -> None:
        self._cost[var] = cost

    def build(self) -> LinearProgram:
        """The program, its matrix as nonzeros. Entries repeated within a
        row are summed in the order they were added, starting from 0.0,
        and entries that are or sum to an exact zero are dropped, as
        ``np.add.at`` into a zero matrix and ``np.nonzero`` would do."""
        m = len(self._rhs)
        col = np.array(self._col, dtype=np.intp)
        val = np.array(self._val, dtype=float)
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

    def __init__(self, m, n, col, row, val, ptr=None):
        self.m, self.n = m, n
        self.col, self.row, self.val = col, row, val
        self.ptr = (np.searchsorted(col, np.arange(n + 1)) if ptr is None
                    else ptr)

    def appended(self, row, val) -> _Columns:
        """These columns followed by ``row.size`` more, column ``k`` of
        them holding the single entry ``val[k]`` in row ``row[k]``."""
        n, end = self.n + row.size, self.ptr[-1] + row.size
        return _Columns(
            self.m, n, np.concatenate([self.col, np.arange(self.n, n)]),
            np.concatenate([self.row, row]), np.concatenate([self.val, val]),
            np.concatenate([self.ptr, np.arange(self.ptr[-1] + 1, end + 1)]))

    def ftran(self, b_inv, j):
        """``B^-1 A[:, j]`` from the nonzeros of column j alone."""
        k = slice(self.ptr[j], self.ptr[j + 1])
        return np.einsum("ij,j->i", b_inv[:, self.row[k]], self.val[k])


class _EqualityForm:
    """The equality form ``[A | I][x; s] = b`` of a program and its
    stamps, but for the right-hand sides, upper bounds and artificials.

    The slack bounds encode the senses (EQUAL keeps [0, 0]). A solve
    sets up the bounds and costs over the columns it has, artificials
    included, from these and the program's own vectors. The kernel
    choice ``dense`` is, below ``_SPARSE_ROWS`` rows, the matrix with
    column j of ``[A | I]`` as row j, else None.
    """

    __slots__ = ("slack_lo", "slack_hi", "has_lo", "columns", "dense")

    def __init__(self, lp: LinearProgram):
        n, m = lp.num_vars, lp.num_rows
        ncols = n + m
        self.slack_lo = np.array([-np.inf if s == GREATER else 0.0
                                  for s in lp.senses])
        self.slack_hi = np.array([np.inf if s == LESS else 0.0
                                  for s in lp.senses])
        self.has_lo = np.isfinite(lp.lower)
        nz_col, nz_row, nz_val = lp.nonzeros
        self.columns = A = _Columns(
            m, ncols, np.concatenate([nz_col, np.arange(n, ncols)]),
            np.concatenate([nz_row, np.arange(m)]),
            np.concatenate([nz_val, np.ones(m)]))
        self.dense = None
        if m < _SPARSE_ROWS:
            self.dense = np.zeros((ncols, m))
            self.dense[A.col, A.row] = A.val


def solve(lp: LinearProgram, start=None) -> LPSolution:
    """Solve a LinearProgram; deterministic for a fixed input.

    ``start``, if given, is a pair ``(basis, at_upper)``: ``basis[i]``
    is the equality-form column basic in row i (``n + i`` is row i's
    slack), and ``at_upper`` lists the nonbasic structural columns that
    sit at their upper bound. Phase 2 runs from that basis when it is
    nonsingular and its basic values lie within their bounds; otherwise
    the solve runs the two-phase path, as without a start. Either start
    is set up and factored the same way, and the duals always come from
    a fresh factorization of the final basis.

    Returns an LPSolution whose duals follow the rhs-derivative
    convention documented at module level.
    """
    n, m = lp.num_vars, lp.num_rows
    form = lp._form
    A, dense = form.columns, form.dense
    b = lp.rhs
    ncols = n + m
    tol_feas = TOL_FEAS * (1.0 + abs(b).max(initial=0.0))

    # Nonbasic structural variables sit at a finite bound, free ones at 0,
    # and nonbasic slacks at the finite end of their bounds, 0.
    has_lo, has_hi = form.has_lo, np.isfinite(lp.upper)
    point = np.where(has_lo, lp.lower, np.where(has_hi, lp.upper, 0.0))
    at = np.concatenate([
        np.where(has_lo, _AT_LOWER, np.where(has_hi, _AT_UPPER, _FREE)),
        np.where(np.isfinite(form.slack_lo), _AT_LOWER, _AT_UPPER)])

    def set_up(basis, at_upper, size):
        # The point, statuses and bounds over ``size`` columns, the
        # artificials past ``ncols`` in [0, inf); the factorization fills
        # in the basic values.
        x = np.zeros(size)
        x[:n] = point
        x[at_upper] = lp.upper[at_upper]
        vstat = np.zeros(size, dtype=np.int8)
        vstat[:ncols] = at
        vstat[at_upper] = _AT_UPPER
        vstat[basis] = _BASIC
        lo = np.zeros(size)
        lo[:n], lo[n:ncols] = lp.lower, form.slack_lo
        hi = np.full(size, np.inf)
        hi[:n], hi[n:ncols] = lp.upper, form.slack_hi
        return x, vstat, lo, hi

    p1_pivots = p1_refactors = 0
    # The inverse a phase starts from, handed to the sweep without a name
    # held here, so that its first refactorization can free it.
    inverse = []
    started = False
    if start is not None:
        basis, at_upper = start
        basis = np.array(basis, dtype=np.intp)
        x, vstat, lo, hi = set_up(basis, at_upper, ncols)
        inverse.append(_refactor(A, b, x, vstat, basis, dense))
        xb = x[basis]
        started = (inverse[0] is not None
                   and bool((lo[basis] - tol_feas <= xb).all())
                   and bool((xb <= hi[basis] + tol_feas).all()))
        if not started:
            inverse.pop()
            p1_refactors = 1    # the start was factored, then set aside

    if not started:
        # Slack basis where the residual fits the slack bounds. Each
        # violated row's slack sits at the bound it missed, 0, and its
        # own artificial, signed like the residual, is basic at |resid|,
        # so phase 1 starts feasible.
        gap = _row_gap(lp, form, point)
        art_rows = (~(np.abs(gap) <= _TOL_STEP)).nonzero()[0]
        n_art = art_rows.size
        basis = np.arange(n, ncols)
        basis[art_rows] = ncols + np.arange(n_art)
        if n_art:
            art_sign = np.where(gap[art_rows] > 0, 1.0, -1.0)
            A = A.appended(art_rows, art_sign)
            if dense is not None:
                dense = np.concatenate([dense, np.zeros((n_art, m))])
                dense[ncols + np.arange(n_art), art_rows] = art_sign
        x, vstat, lo, hi = set_up(basis, [], A.n)
        inverse.append(_refactor(A, b, x, vstat, basis, dense))
        if n_art:
            phase1 = np.zeros(A.n)
            phase1[ncols:] = 1.0
            status, p1_pivots, refactors = _iterate(
                A, b, phase1, lo, hi, x, vstat, basis, dense, inverse.pop())
            p1_refactors += refactors
            if status != OPTIMAL:  # pragma: no cover - bounded below
                raise NumericalFailure("phase 1 did not terminate optimal")
            infeasibility = np.maximum(x[ncols:], 0.0).sum()
            if infeasibility > tol_feas:
                return LPSolution(INFEASIBLE, np.nan, np.full(n, np.nan),
                                  np.full(m, np.nan), p1_pivots, 0,
                                  p1_refactors)
            hi[ncols:] = 0.0  # freeze artificials out of phase 2
            x[ncols:] = np.maximum(x[ncols:], 0.0)
            inverse.append(_invert(A, basis, dense))

    cost = np.zeros(A.n)
    cost[:n] = lp.objective
    status, p2_pivots, refactors = _iterate(
        A, b, cost, lo, hi, x, vstat, basis, dense, inverse.pop())
    refactors += p1_refactors
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, -np.inf, np.full(n, np.nan),
                          np.full(m, np.nan), p1_pivots, p2_pivots, refactors,
                          started)

    # Fresh factorization for clean duals; the sweep has dropped its
    # inverse.
    b_inv = _invert(A, basis, dense)
    refactors += 1
    if b_inv is None:
        raise NumericalFailure("singular basis at termination")
    primal = x[:n].copy()
    worst = np.concatenate([abs(_row_gap(lp, form, primal)),
                            lp.lower - primal, primal - lp.upper])
    if not worst.max(initial=0.0) <= tol_feas:
        raise NumericalFailure(f"the optimal point misses a row or bound "
                               f"by {worst.max():.3g}")
    if dense is None:
        duals = np.einsum("i,ij->j", cost[basis], b_inv)
        objective = np.einsum("i,i->", lp.objective, primal)
    else:
        duals = cost[basis] @ b_inv
        objective = lp.objective @ primal
    return LPSolution(OPTIMAL, float(objective), primal, duals,
                      p1_pivots, p2_pivots, refactors, started)


def _row_gap(lp: LinearProgram, form: _EqualityForm, point):
    """How far the residual ``b - A point`` lies outside the slack
    bounds, row by row."""
    nz_col, nz_row, nz_val = lp.nonzeros
    resid = lp.rhs - np.bincount(nz_row, nz_val * point[nz_col],
                                 minlength=lp.num_rows)
    return resid - np.minimum(np.maximum(resid, form.slack_lo),
                              form.slack_hi)


def _iterate(A, b, cost, lo, hi, x, vstat, basis, dense, b_inv):
    """Primal simplex sweep on the equality form; mutates x/vstat/basis.

    Starts from ``b_inv``, the caller's inverse of the starting basis
    (None if that basis is singular), which counts as the first
    factorization and is updated in place; the caller holds no name for
    it, so a refactorization frees it before forming the next, and it
    dies with the sweep. Returns (status, iterations, refactorizations),
    bound flips counted as iterations. The basic values, bounds and
    costs are kept in basis order, so an iteration gathers nothing by the
    basis; ``x`` holds the nonbasic values and receives the basic ones on
    return.

    With finite data the pivot ``w[r]`` exceeds ``_TOL_PIVOT`` in
    magnitude, so it needs no fallback: the ratio test gives every row
    with |w| <= ``_TOL_PIVOT`` an infinite ratio, a pivot happens only
    at a finite smallest ratio, and r is one of the rows within 1e-9 of
    it.

    Below ``_SPARSE_ROWS`` rows, ``dense`` holds the matrix with column
    j of A as row j, the entering column is a BLAS product with the
    inverse, and so are the duals at every iteration; each pivot updates
    the rows of the inverse where the entering column is nonzero, and
    the basis is refactored every ``_REFACTOR_EVERY`` iterations. On
    the sparse path ``dense`` is None: the entering column is formed from
    its nonzeros, and the duals are carried across pivots and recomputed
    only at a factorization; ``_sparse_update`` updates the inverse and
    skips rounding residue. Every ``_REFACTOR_EVERY`` iterations it
    prices with the carried duals and refactors only if ``max |b - A
    x|`` exceeds ``_TOL_DRIFT * (1 + max|b|)`` or a basic column's
    reduced cost exceeds ``_TOL_DRIFT * (1 + max|cost|)`` in magnitude;
    otherwise it keeps its inverse, duals and basic values, and that
    pricing serves the iteration.
    """
    m = A.m
    if b_inv is None:
        raise NumericalFailure("singular starting basis")
    refactors = 1
    y = None
    col, row, val, ncols = A.col, A.row, A.val, A.n
    max_iters = 10_000 + 10 * (ncols + m)
    bland = False
    stall = 0
    fixed = lo == hi
    # rise[j] is -1.0 and dn[j] 1.0 where nonbasic column j may increase
    # and decrease, else 0.0, so d * rise = |d| for d < 0: a column may
    # enter where its score, d * rise if d < 0 and d * dn otherwise,
    # exceeds TOL_OPT. As rise <= 0 <= dn, the score is the larger of
    # the two products.
    free = vstat == _FREE
    rise = np.where(((vstat == _AT_LOWER) | free) & ~fixed, -1.0, 0.0)
    dn = np.where(((vstat == _AT_UPPER) | free) & ~fixed, 1.0, 0.0)
    xb, lb, ub, cb = x[basis], lo[basis], hi[basis], cost[basis]
    minimum = np.minimum.reduce

    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(max_iters):
            d = None
            if it and it % _REFACTOR_EVERY == 0:
                x[basis] = xb
                drifted = True      # the dense kernels refactor every time
                if dense is None:
                    # In exact arithmetic the carried duals price every
                    # basic column at zero and the swept basic values
                    # solve every row. Priced here, d serves this
                    # iteration if the inverse is kept.
                    d = cost - np.bincount(col, val * y[row], minlength=ncols)
                    dual = abs(d[basis]).max()
                    primal = abs(_residual(A, b, x)).max()
                    drifted = not (
                        dual <= _TOL_DRIFT * (1.0 + abs(cost).max())
                        and primal <= _TOL_DRIFT * (1.0 + abs(b).max()))
                if drifted:
                    b_inv = None    # one m×m inverse live at a time
                    b_inv = _refactor(A, b, x, vstat, basis, dense)
                    refactors += 1
                    if b_inv is None:
                        raise NumericalFailure(
                            "singular basis on refactorization")
                    xb = x[basis]
                    y = d = None

            # Duals cost_B B^-1 (numpy's einsum loop, not BLAS, on the
            # sparse kernels), then reduced costs cost - y A.
            if dense is not None:
                y = cb @ b_inv
            elif y is None:
                y = np.einsum("i,ij->j", cb, b_inv)
            if d is None:
                d = cost - np.bincount(col, val * y[row], minlength=ncols)
            score = np.maximum(d * rise, d * dn)
            q = int(score.argmax())
            if score[q] <= TOL_OPT:
                x[basis] = xb
                return OPTIMAL, it, refactors
            if bland:
                q = int(np.flatnonzero(score > TOL_OPT)[0])
            sigma = 1.0 if d[q] < 0 else -1.0

            w = A.ftran(b_inv, q) if dense is None else b_inv @ dense[q]
            step = w if sigma > 0 else -w
            # Blocking ratios for basic variables pushed toward a bound.
            mag = np.abs(w)
            ratios = (xb - np.where(step > _TOL_PIVOT, lb, ub)) / step
            ratios[mag <= _TOL_PIVOT] = np.inf
            min_ratio = float(minimum(ratios)) if m else np.inf
            flip_cap = hi[q] - lo[q]

            if flip_cap <= min_ratio:
                if not np.isfinite(flip_cap):
                    x[basis] = xb
                    return UNBOUNDED, it, refactors
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
                r = int((mag * near).argmax())

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
            # where w is nonzero, as the others change by exactly zero;
            # the sparse kernels also skip rows of residue.
            pivot_row = b_inv[r] / w[r]
            w[r] = 0.0
            if dense is None:
                _sparse_update(b_inv, w, pivot_row)
                # The new basis prices column q at zero: y A_q = cost_q.
                y += d[q] * pivot_row
            else:
                np.subtract(b_inv, w[:, None] * pivot_row, out=b_inv,
                            where=(w != 0.0)[:, None])
            b_inv[r] = pivot_row

            if delta <= _TOL_STEP:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False

    raise NumericalFailure(f"simplex exceeded {max_iters} iterations")


def _sparse_update(b_inv, w, pivot_row):
    """Subtract ``w_i * pivot_row_j`` from ``b_inv[i, j]``, the sparse
    kernels' product-form update off the pivot row, whose own entry of
    ``w`` the caller has zeroed.

    Only rows ``i`` where ``|w_i|``, and columns ``j`` where
    ``|pivot_row_j|``, exceed ``_TOL_DROP`` times the largest magnitude
    in the same vector are rewritten; smaller entries are residue of
    earlier cancellations. If fewer than m/4 columns qualify, only those
    entries of the qualifying rows change; otherwise those rows change
    in full.
    """
    aw = np.abs(w)
    nz = (aw > _TOL_DROP * aw.max()).nonzero()[0]
    ap = np.abs(pivot_row)
    on = (ap > _TOL_DROP * ap.max()).nonzero()[0]
    if 4 * on.size < w.size:
        b_inv[nz[:, None], on] -= w[nz, None] * pivot_row[on]
    else:
        b_inv[nz] -= np.outer(w[nz], pivot_row)


def _refactor(A, b, x, vstat, basis, dense):
    """The basis inverse, formed anew, with the basic values recomputed
    from it into ``x``; None, with ``x`` untouched, if the basis is
    singular."""
    b_inv = _invert(A, basis, dense)
    if b_inv is None:
        return None
    rhs = _residual(A, b, np.where(vstat != _BASIC, x, 0.0))  # nonbasic only
    x[basis] = (np.einsum("ij,j->i", b_inv, rhs) if dense is None
                else b_inv @ rhs)
    return b_inv


def _residual(A, b, x):
    """``b - A x`` on the equality form, summed from its nonzeros."""
    return b - np.bincount(A.row, A.val * x[A.col], minlength=A.m)


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
    if (np.bincount(row[pivots], minlength=m).max() > 1
            or np.bincount(pos[pivots], minlength=m).max() > 1):
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
            # The columns the level's rows reach, in order, and each
            # entry's place among them.
            seen = np.zeros(m, dtype=bool)
            seen[col] = True
            cols = np.flatnonzero(seen)
            col = (np.cumsum(seen) - 1)[col]
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
