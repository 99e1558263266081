"""Stage subproblem: dispatch examples, physics invariants, dual checks."""

import numpy as np
import pytest

from casegen import in_bounds_state, random_case, thermal_only_case
from hydrosddp.engine import Cut
from hydrosddp.hydro import (
    Bus,
    DimensionMismatch,
    Hydro,
    Line,
    Renewable,
    StageInfeasible,
    StageTemplate,
    StateVector,
    SystemCase,
    Thermal,
    build_stage_lp,
    initial_state,
    solve_stage,
)
from hydrosddp.lp import EQUAL, solve
from hydrosddp.risk import RiskMeasure
from hydrosddp.scenario import Lattice, NoiseRealization

NEUTRAL = RiskMeasure(lam=0.0, alpha=0.0)
QUIET = NoiseRealization()


def hydro_case(demand=10.0, storage=10.0, turbine=10.0, production=1.0,
               thermal_cost=2.0, T=1):
    case = SystemCase(
        buses=(Bus("b1", tuple([demand] * T)),),
        thermals=(Thermal("t1", "b1", thermal_cost, 15.0),),
        hydros=(Hydro("h1", "b1", storage, turbine, production,
                      initial_storage=storage),),
        deficit_cost=50.0)
    noise = NoiseRealization(inflow_noise={"h1": 0.0})
    lattice = Lattice(T, 1, noise, [[noise] for _ in range(T - 1)])
    return case, lattice


def test_thermal_dispatch_terminal_stage():
    case, lattice = thermal_only_case(demand=10, cost=2, cap=15)
    sol = solve_stage(StageTemplate(case, lattice, 1, None, NEUTRAL),
                      initial_state(case), lattice.stage1)
    assert sol.objective == pytest.approx(20.0, abs=1e-8)
    assert sol.immediate_cost == pytest.approx(20.0, abs=1e-8)
    assert sol.betas is None


def test_zero_demand_zero_cost():
    case, lattice = thermal_only_case(demand=0, cost=3, cap=5)
    sol = solve_stage(StageTemplate(case, lattice, 1, None, NEUTRAL),
                      initial_state(case), lattice.stage1)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_hydro_covers_demand_for_free():
    case, lattice = hydro_case()
    sol = solve_stage(StageTemplate(case, lattice, 1, None, NEUTRAL),
                      initial_state(case), lattice.stage1)
    assert sol.objective == pytest.approx(0.0, abs=1e-8)
    assert sol.state_out.storages[0] == pytest.approx(0.0, abs=1e-8)


def test_deficit_penalty_when_capacity_short():
    case, lattice = thermal_only_case(demand=100, cost=1, cap=10,
                                      deficit_cost=50)
    sol = solve_stage(StageTemplate(case, lattice, 1, None, NEUTRAL),
                      initial_state(case), lattice.stage1)
    assert sol.immediate_cost == pytest.approx(4510.0, abs=1e-7)


def test_single_cut_epigraph():
    case, lattice = thermal_only_case(demand=10, cost=2, cap=15, T=2)
    cut = Cut(np.zeros(0), np.zeros(0), 7.0)
    sol = solve_stage(StageTemplate(case, lattice, 1, [[cut]], NEUTRAL),
                      initial_state(case), lattice.stage1)
    assert sol.betas == pytest.approx([7.0], abs=1e-9)
    assert sol.objective == pytest.approx(20.0 + 7.0, abs=1e-8)
    assert sol.immediate_cost == pytest.approx(20.0, abs=1e-8)


def test_cut_with_storage_gradient():
    # beta >= 5 - 1.0*(v_out - 2): stored water is worth 1/unit up to the cap.
    case, lattice = hydro_case(demand=0.0, storage=4.0, T=2)
    cut = Cut(np.array([-1.0]), np.array([2.0]), 5.0)
    sol = solve_stage(StageTemplate(case, lattice, 1, [[cut]], NEUTRAL),
                      initial_state(case), lattice.stage1)
    # Filling the reservoir to its 4-unit cap leaves beta = 5 - (4-2) = 3.
    assert sol.state_out.storages[0] == pytest.approx(4.0, abs=1e-8)
    assert sol.objective == pytest.approx(3.0, abs=1e-8)


def test_line_transfer_hits_capacity():
    # Only bus b1 generates; the line cap strands 3 units of b2's demand.
    case = SystemCase(
        buses=(Bus("b1", (0.0,)), Bus("b2", (8.0,))),
        lines=(Line("b1", "b2", 5.0),),
        thermals=(Thermal("t1", "b1", 1.0, 20.0),),
        deficit_cost=50.0)
    lattice = Lattice(1, 1, QUIET, [])
    sol = solve_stage(StageTemplate(case, lattice, 1, None, NEUTRAL),
                      initial_state(case), QUIET)
    assert sol.immediate_cost == pytest.approx(5.0 * 1.0 + 3.0 * 50.0, abs=1e-7)


def test_renewable_displaces_thermal():
    case = SystemCase(
        buses=(Bus("b1", (10.0,)),),
        thermals=(Thermal("t1", "b1", 2.0, 15.0),),
        renewables=(Renewable("w1", "b1"),),
        deficit_cost=20.0)
    noise = NoiseRealization(renewable_cap={"w1": 4.0})
    lattice = Lattice(1, 1, noise, [])
    sol = solve_stage(StageTemplate(case, lattice, 1, None, NEUTRAL),
                      initial_state(case), noise)
    assert sol.objective == pytest.approx(2.0 * 6.0, abs=1e-8)
    # cap of zero forces all-thermal dispatch
    dark = NoiseRealization(renewable_cap={"w1": 0.0})
    sol = solve_stage(StageTemplate(case, lattice, 1, None, NEUTRAL),
                      initial_state(case), dark)
    assert sol.objective == pytest.approx(20.0, abs=1e-8)


def test_state_dimension_validation():
    case, lattice = hydro_case()
    with pytest.raises(DimensionMismatch):
        solve_stage(StageTemplate(case, lattice, 1, None, NEUTRAL),
                    StateVector([1.0, 2.0], [(), ()]), QUIET)


def test_infeasible_stage_is_internal_error():
    # Physically nonsensical negative inflow drains below empty.
    case, lattice = hydro_case(demand=0.0, storage=5.0)
    bad = NoiseRealization(inflow_noise={"h1": -50.0})
    with pytest.raises(StageInfeasible):
        solve_stage(StageTemplate(case, lattice, 1, None, NEUTRAL),
                    initial_state(case), bad)


def test_case_validation_errors():
    with pytest.raises(ValueError):  # deficit cost must dominate
        SystemCase(buses=(Bus("b1", (1.0,)),),
                   thermals=(Thermal("t1", "b1", 5.0, 1.0),),
                   deficit_cost=5.0)
    with pytest.raises(ValueError):  # cycle
        SystemCase(buses=(Bus("b1", (1.0,)),),
                   thermals=(Thermal("t1", "b1", 1.0, 1.0),),
                   hydros=(Hydro("h1", "b1", 1, 1, 1, upstream=("h2",)),
                           Hydro("h2", "b1", 1, 1, 1, upstream=("h1",))),
                   deficit_cost=10.0)
    with pytest.raises(ValueError):  # initial storage out of bounds
        Hydro("h1", "b1", 1.0, 1.0, 1.0, initial_storage=2.0)
        SystemCase(buses=(Bus("b1", (1.0,)),),
                   hydros=(Hydro("h1", "b1", 1.0, 1.0, 1.0,
                                 initial_storage=2.0),),
                   deficit_cost=1.0)


# ---------------------------------------------------------------------------
# Physics properties on random cases


def test_relatively_complete_recourse():
    rng = np.random.default_rng(61)
    for _ in range(25):
        case, lattice = random_case(rng)
        T, L = lattice.num_stages, lattice.num_openings
        for _ in range(4):
            t = int(rng.integers(1, T + 1))
            l = int(rng.integers(0, L))
            noise = lattice.stage_noise(t, l)
            state = in_bounds_state(rng, case)
            cuts = [[] for _ in range(L)] if t < T else None
            sol = solve_stage(
                StageTemplate(case, lattice, t, cuts,
                              RiskMeasure(lam=0.5, alpha=0.5)), state, noise)
            assert np.isfinite(sol.objective)


def test_mass_conservation():
    rng = np.random.default_rng(62)
    for _ in range(15):
        case, lattice = random_case(rng, n_hydro=2)
        T, L = lattice.num_stages, lattice.num_openings
        state = in_bounds_state(rng, case)
        t = int(rng.integers(1, T + 1))
        noise = lattice.stage_noise(t, 0 if t > 1 else None)
        cuts = [[] for _ in range(L)] if t < T else None
        lp, cols = build_stage_lp(case, t, state, noise, cuts, NEUTRAL, T, L)
        x = solve(lp).primal
        sol = solve_stage(StageTemplate(case, lattice, t, cuts, NEUTRAL),
                          state, noise)
        for j, h in enumerate(case.hydros):
            assert sol.state_out.storages[j] == x[cols["vout", h.name]]
            released = sum(x[cols["u", up]] + x[cols["spill", up]]
                           for up in h.upstream)
            balance = (sol.state_out.storages[j] - state.storages[j]
                       + x[cols["u", h.name]] + x[cols["spill", h.name]]
                       - released - x[cols["a", h.name]])
            assert abs(balance) <= 1e-7


def test_copy_rows_come_first_in_state_order():
    # The index contract solve_stage relies on: the first
    # state_dimension() rows pin one free copy column each to
    # state_in.flatten(), so their duals are the state duals.
    rng = np.random.default_rng(66)
    for _ in range(10):
        case, lattice = random_case(rng, n_hydro=2, max_lag=2)
        T, L = lattice.num_stages, lattice.num_openings
        t = int(rng.integers(1, T + 1))
        noise = lattice.stage_noise(t, 0 if t > 1 else None)
        cuts = [[] for _ in range(L)] if t < T else None
        state = in_bounds_state(rng, case)
        lp, cols = build_stage_lp(case, t, state, noise, cuts, NEUTRAL, T, L)
        k = case.state_dimension()
        assert lp.senses[:k] == (EQUAL,) * k
        assert np.array_equal(lp.rhs[:k], state.flatten())
        copies = []
        for row in lp.rows[:k]:
            (col,) = np.flatnonzero(row)
            assert row[col] == 1.0
            copies.append(col)
        assert len(set(copies)) == k
        assert not set(copies) & set(cols.values())
        assert np.all(lp.lower[copies] == -np.inf)
        assert np.all(lp.upper[copies] == np.inf)
        duals = solve(lp).duals[:k]
        sol = solve_stage(StageTemplate(case, lattice, t, cuts, NEUTRAL),
                          state, noise)
        assert np.array_equal(sol.state_dual, duals)


def test_state_duals_match_finite_differences():
    rng = np.random.default_rng(63)
    h_step = 1e-4
    checked = 0
    for _ in range(12):
        case, lattice = random_case(rng, n_hydro=1, max_lag=1)
        T, L = lattice.num_stages, lattice.num_openings
        t = int(rng.integers(1, T + 1))
        noise = lattice.stage_noise(t, 0 if t > 1 else None)
        cuts = [[] for _ in range(L)] if t < T else None
        # interior storage so +/- h stays in bounds
        state = in_bounds_state(rng, case)
        state.storages[:] = np.clip(state.storages, 0.01,
                                    [h.max_storage - 0.01 for h in case.hydros])

        def objective_at(s):
            return solve_stage(StageTemplate(case, lattice, t, cuts, NEUTRAL),
                               s, noise).objective

        sol = solve_stage(StageTemplate(case, lattice, t, cuts, NEUTRAL),
                          state, noise)
        flat = state.flatten()
        for c in range(case.state_dimension()):
            def shifted(delta):
                v = flat.copy()
                v[c] += delta
                nh = len(case.hydros)
                return StateVector(v[:nh], [v[nh:]] if case.hydros[0].ar_coeffs else [np.zeros(0)])
            up, down = objective_at(shifted(h_step)), objective_at(shifted(-h_step))
            base = sol.objective
            fd_plus = (up - base) / h_step
            fd_minus = (base - down) / h_step
            if abs(fd_plus - fd_minus) > 1e-6 * (1.0 + abs(fd_plus)):
                continue  # kink: degenerate point, dual is a subgradient
            pi_h = sol.state_dual[c] * h_step
            assert abs((up - base) - pi_h) <= 1e-3 * abs(pi_h) + 1e-8
            checked += 1
    assert checked >= 10  # enough non-degenerate coordinates exercised


def test_immediate_cost_never_exceeds_objective():
    # With nonnegative epigraph floors the future term is >= 0, so the
    # immediate cost can never exceed the total stage objective.
    rng = np.random.default_rng(65)
    for _ in range(12):
        case, lattice = random_case(rng)
        T, L = lattice.num_stages, lattice.num_openings
        t = int(rng.integers(1, T + 1))
        noise = lattice.stage_noise(t, 0 if t > 1 else None)
        cuts = [[] for _ in range(L)] if t < T else None
        sol = solve_stage(StageTemplate(case, lattice, t, cuts,
                                        RiskMeasure(lam=0.5, alpha=0.5)),
                          in_bounds_state(rng, case), noise)
        assert sol.immediate_cost <= sol.objective + 1e-7


def test_storage_monotonicity():
    rng = np.random.default_rng(64)
    for _ in range(10):
        case, lattice = random_case(rng, n_hydro=1)
        T, L = lattice.num_stages, lattice.num_openings
        t = int(rng.integers(1, T + 1))
        noise = lattice.stage_noise(t, 0 if t > 1 else None)
        cuts = [[] for _ in range(L)] if t < T else None
        state = in_bounds_state(rng, case)
        values = []
        for frac in (0.0, 0.3, 0.6, 1.0):
            state.storages[0] = frac * case.hydros[0].max_storage
            values.append(solve_stage(
                StageTemplate(case, lattice, t, cuts, NEUTRAL), state,
                noise).objective)
        assert all(values[i + 1] <= values[i] + 1e-8 for i in range(3))
