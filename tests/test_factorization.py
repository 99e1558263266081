"""Sparse basis factorization of the bundled simplex.

From ``_SPARSE_ROWS`` rows on, ``lp.solve`` inverts each basis through
its block triangular form: column singletons, row singletons, and a bump
that LAPACK solves densely. These tests plant that structure in random
sparse bases and check the inverse against ``np.linalg.inv``; check that
singular bases still fail the way a dense inversion fails; and check
that a tree LP on the sparse path gives the same bytes under one and
two BLAS threads.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from casegen import random_case
from hydrosddp import lp as lpmod
from hydrosddp.lp import NumericalFailure, _Columns, _refactor, solve
from hydrosddp.risk import RiskMeasure
from hydrosddp.treelp import build_tree_lp

ROOT = Path(__file__).resolve().parent.parent


def column_store(B, rng):
    """A column store holding B's columns in shuffled order, and the
    basis that picks them back out, so that ``A[:, basis] == B``."""
    m = B.shape[0]
    basis = rng.permutation(m)
    A = np.zeros_like(B)
    A[:, basis] = B
    col, row = np.nonzero(A.T)
    return _Columns(m, m, col, row, A[row, col]), basis


def planted_basis(rng, n_lower, n_bump, n_upper):
    """Random sparse B that permutes to ``[[L, 0, 0], [X, D, 0],
    [Y, Z, U]]`` with L lower and U upper triangular and D dense.

    With a bump, every column of L also has an entry in X, so no column
    of L is ever a column singleton: the peeling finds U's columns, then
    L's rows, and leaves exactly D as the bump.
    """
    m = n_lower + n_bump + n_upper
    lo, hi = n_lower, n_lower + n_bump

    def sparse(shape, density):
        return rng.uniform(-2.0, 2.0, shape) * (rng.random(shape) < density)

    B = np.zeros((m, m))
    B[:lo, :lo] = np.tril(sparse((lo, lo), 0.3), -1)
    B[lo:hi, :lo] = sparse((n_bump, lo), 0.2)
    if n_bump:
        B[lo + rng.integers(0, n_bump, lo), np.arange(lo)] = 1.5
    B[lo:hi, lo:hi] = rng.uniform(0.5, 1.5, (n_bump, n_bump))
    B[lo:hi, lo:hi] += n_bump * np.eye(n_bump)
    B[hi:, :hi] = sparse((n_upper, hi), 0.2)
    B[hi:, hi:] = np.triu(sparse((n_upper, n_upper), 0.3), 1)
    diag = rng.uniform(0.5, 2.0, m) * rng.choice((-1.0, 1.0), m)
    B[np.arange(lo), np.arange(lo)] = diag[:lo]
    B[np.arange(hi, m), np.arange(hi, m)] = diag[hi:]
    return B[rng.permutation(m)][:, rng.permutation(m)]


@pytest.mark.parametrize("n_lower,n_bump,n_upper", [
    (20, 0, 25),     # triangular: no bump
    (0, 0, 40),      # column singletons only
    (30, 0, 0),      # row singletons only
    (15, 6, 20),     # a small bump between the two
    (0, 12, 0),      # all bump
])
def test_planted_bases_invert_like_lapack(monkeypatch, n_lower, n_bump,
                                          n_upper):
    rng = np.random.default_rng(
        20261018 + 1000 * n_lower + 100 * n_bump + n_upper)
    bumps = []
    lapack_solve = np.linalg.solve

    def spy(block, rhs):
        bumps.append(block.shape)
        return lapack_solve(block, rhs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    for _ in range(5):
        B = planted_basis(rng, n_lower, n_bump, n_upper)
        A, basis = column_store(B, rng)
        X = lpmod._sparse_inverse(A, basis)
        m = B.shape[0]
        assert np.abs(X @ B - np.eye(m)).max() <= 1e-10
        assert np.abs(X - np.linalg.inv(B)).max() <= 1e-10 * max(
            1.0, np.abs(X).max())
    assert bumps == ([(n_bump, n_bump)] * 5 if n_bump else [])


def singular_bases():
    upper = np.triu(np.ones((6, 6))) + np.eye(6)
    empty = upper.copy()
    empty[:, 2] = 0.0
    # Columns 0 and 3 each hold one entry, both in row 0.
    shared = upper.copy()
    shared[:, 3] = 0.0
    shared[0, 3] = 2.0
    # Columns 0 and 4 are singletons; rows and columns 1-3 form a bump
    # whose first row is twice its second, so elimination there is exact
    # and ends on a zero pivot.
    deficient = np.diag([1.0, 0.0, 0.0, 0.0, 0.5])
    deficient[1:4, 1:4] = [[2.0, 4.0, 6.0], [1.0, 2.0, 3.0], [1.0, 1.0, 5.0]]
    deficient[4, 1] = 3.0
    return {"empty column": empty, "two column singletons in one row": shared,
            "rank-deficient bump": deficient}


@pytest.mark.parametrize("name", list(singular_bases()))
def test_singular_basis_fails_refactorization(name):
    B = singular_bases()[name]
    m = B.shape[0]
    A, basis = column_store(B, np.random.default_rng(1))
    x = np.zeros(m)
    vstat = np.zeros(m, dtype=np.int8)
    # The sparse kernels (no dense copy), then the dense ones.
    dense = np.zeros((A.n, m))
    dense[A.col, A.row] = A.val
    for kernels in (None, dense):
        assert _refactor(A, np.ones(m), x, vstat, basis, kernels) == (None,
                                                                     False)


def tree_lp():
    case, lattice = random_case(np.random.default_rng(20261018), T=6, L=2,
                                n_hydro=2, n_thermal=2)
    return build_tree_lp(case, lattice, RiskMeasure(lam=0.5, alpha=0.5))


def test_singular_refactorization_fails_the_solve(monkeypatch):
    lp = tree_lp()
    assert lp.num_rows >= lpmod._SPARSE_ROWS
    factor = lpmod._sparse_inverse
    calls = []

    def corrupt(A, basis):
        # At the first periodic refactorization, put row 0's slack into
        # the first two basis positions: two column singletons in row 0.
        calls.append(basis.size)
        if len(calls) == 2:
            basis = basis.copy()
            basis[:2] = lp.num_vars
        return factor(A, basis)

    monkeypatch.setattr(lpmod, "_sparse_inverse", corrupt)
    with pytest.raises(NumericalFailure, match="refactorization"):
        solve(lp)
    assert len(calls) == 2


SOLVE_AND_HASH = """
import hashlib
import numpy as np
from casegen import random_case
from hydrosddp.lp import solve
from hydrosddp.risk import RiskMeasure
from hydrosddp.treelp import build_tree_lp

case, lattice = random_case(np.random.default_rng(7), T=6, L=2, n_hydro=3,
                            n_thermal=2)
lp = build_tree_lp(case, lattice, RiskMeasure(lam=0.5, alpha=0.5))
sol = solve(lp)
digest = hashlib.sha256(np.float64(sol.objective).tobytes()
                        + sol.primal.tobytes() + sol.duals.tobytes())
print(lp.num_rows, sol.phase1_pivots, sol.phase2_pivots,
      sol.refactorizations, digest.hexdigest())
"""


def test_tree_lp_bytes_do_not_depend_on_blas_threads():
    # A 565-row tree LP: pivots, objective, primal and duals must come
    # out the same under one and under two BLAS threads.
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                               str(ROOT / "tests")]))
        run = subprocess.run([sys.executable, "-c", SOLVE_AND_HASH], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0].split()[0] == "565"
    assert outputs[0] == outputs[1]
