"""Programs held as column nonzeros.

``LPBuilder.build`` must give the matrix that a dense ``np.add.at`` of
each row's entries gives, entry for entry and bit for bit; stage LPs
stamped from one template must share one nonzero set; and no path that
trains, evaluates, simulates or solves the tree may densify a program.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from casegen import random_case  # noqa: E402
from hydrosddp.engine import (  # noqa: E402
    EngineConfig,
    evaluate_policy_exact,
    simulate_policy,
    train,
)
from hydrosddp.hydro import StageTemplate, initial_state  # noqa: E402
from hydrosddp.lp import (  # noqa: E402
    LESS,
    LinearProgram,
    LPBuilder,
    MalformedProgram,
)
from hydrosddp.risk import RiskMeasure  # noqa: E402
from hydrosddp.scenario import SamplerMode  # noqa: E402
from hydrosddp.treelp import tree_objective  # noqa: E402
from oracles import add_at_nonzeros, dense_program  # noqa: E402

BLEND = RiskMeasure(lam=0.5, alpha=0.5)

# Values whose sums cancel to +-0.0 or depend on the order they are
# added in, beside arbitrary finite ones.
COEFFS = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.2, -0.3, 1e-300,
                           -1e-300, 1e308, -1e308])
          | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def builder_rows(draw):
    n = draw(st.integers(1, 5))
    pair = st.tuples(st.integers(0, n - 1), COEFFS)
    return n, draw(st.lists(st.lists(pair, max_size=8), max_size=5))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(shape=builder_rows())
@example(shape=(4, [[], [(2, 1.0), (2, -1.0)], [(0, 0.1), (0, 0.2), (0, -0.3)],
                    [(1, -0.0), (3, 0.0)], []]))
@example(shape=(3, []))
@example(shape=(2, [[(1, 1e308), (1, 1e308), (1, -1e308)]]))
def test_builder_nonzeros_match_a_dense_add_at(shape):
    n, rows = shape
    bld = LPBuilder()
    for _ in range(n):
        bld.add_var()
    for pairs in rows:
        bld.add_row(pairs, LESS, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        want = add_at_nonzeros(rows, n)
    if not np.all(np.isfinite(want[2])):
        with pytest.raises(MalformedProgram), \
                np.errstate(over="ignore", invalid="ignore"):
            bld.build()
        return
    got = bld.build().nonzeros
    assert got.col.tolist() == want[0].tolist()
    assert got.row.tolist() == want[1].tolist()
    assert got.val.tobytes() == want[2].tobytes()


def test_template_stamps_share_the_template_nonzeros():
    case, lattice = random_case(np.random.default_rng(5), T=3, L=2,
                                with_renewable=True)
    template = StageTemplate(case, lattice, 2, None, BLEND)
    state = initial_state(case)
    stamps = [template.program(state, lattice.noise(2, l)) for l in (0, 1, 1)]
    for lp in stamps:
        assert lp is not template.lp
        for got, kept in zip(lp.nonzeros, template.lp.nonzeros):
            assert got is kept


def test_no_solve_path_densifies_a_program(monkeypatch):
    def densify(lp):
        raise AssertionError("LinearProgram.rows read on a solve path")

    monkeypatch.setattr(LinearProgram, "rows", property(densify))
    case, lattice = random_case(np.random.default_rng(11), T=3, L=2,
                                n_hydro=2, with_renewable=True, two_bus=True)
    policy = train(case, lattice, EngineConfig(
        max_iterations=3, min_iterations=3, batch_size=2, measure=BLEND))
    exact = evaluate_policy_exact(case, lattice, policy.cuts, BLEND)
    _, mean, _ = simulate_policy(case, lattice, policy.cuts, BLEND,
                                 SamplerMode.RISK_ADJUSTED, 4, 1)
    optimum = tree_objective(case, lattice, BLEND)
    assert policy.bounds[-1].lower_bound <= optimum + 1e-9 * abs(optimum)
    assert exact >= optimum - 1e-9 * abs(optimum)
    assert np.isfinite(mean)
    with pytest.raises(AssertionError):
        dense_program([1.0], [0.0], [1.0], [[1.0]], [LESS], [1.0]).rows
