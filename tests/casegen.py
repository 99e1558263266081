"""Seeded random hydrothermal cases for property and acceptance tests.

Cases are kept well posed by construction: nonnegative inflows (so the
deficit/spill recourse argument holds), deficit cost strictly above
every thermal cost, and hydro capacity sized to matter relative to
demand so the future cost function is not flat.
"""

import numpy as np

from hydrosddp.hydro import Bus, Hydro, Line, Renewable, SystemCase, Thermal
from hydrosddp.scenario import Lattice, NoiseRealization


def random_case(rng, T=None, L=None, n_hydro=None, n_thermal=None,
                max_lag=1, with_renewable=False, two_bus=False):
    """Returns (SystemCase, Lattice) drawn from `rng`."""
    T = int(T if T is not None else rng.integers(2, 5))
    L = int(L if L is not None else rng.integers(2, 4))
    n_h = int(n_hydro if n_hydro is not None else rng.integers(1, 3))
    n_t = int(n_thermal if n_thermal is not None else rng.integers(1, 4))

    bus_names = ["b1", "b2"] if two_bus else ["b1"]
    base = float(rng.uniform(8.0, 16.0))
    buses = tuple(
        Bus(name, tuple(np.round(base * rng.uniform(0.8, 1.2, T), 3)))
        for name in bus_names)
    lines = (Line("b1", "b2", float(rng.uniform(3.0, 12.0))),) if two_bus else ()

    thermals = []
    total_cap = 0.0
    for i in range(n_t):
        cap = float(rng.uniform(4.0, 12.0))
        total_cap += cap
        thermals.append(Thermal(
            f"t{i + 1}", bus_names[i % len(bus_names)],
            cost=float(np.round(rng.uniform(1.0, 9.0), 2)), cap=cap))
    # Honor the "enough thermal" modeling assumption across all buses.
    need = base * 1.6 * len(bus_names)
    if total_cap < need:
        thermals[0] = Thermal(thermals[0].name, thermals[0].bus,
                              thermals[0].cost,
                              thermals[0].cap + (need - total_cap))
    thermals = tuple(thermals)

    hydros = []
    for j in range(n_h):
        lag_order = int(rng.integers(0, max_lag + 1))
        coeffs = tuple(np.round(rng.uniform(0.1, 0.45, lag_order), 3))
        big_v = float(rng.uniform(6.0, 20.0))
        hydros.append(Hydro(
            name=f"h{j + 1}",
            bus=bus_names[j % len(bus_names)],
            max_storage=big_v,
            max_turbine=float(rng.uniform(2.0, 8.0)),
            production=float(rng.uniform(0.6, 1.4)),
            upstream=("h1",) if j == 1 and rng.random() < 0.4 else (),
            ar_coeffs=coeffs,
            initial_storage=float(rng.uniform(0.2, 0.8) * big_v),
            initial_lags=tuple(np.round(rng.uniform(1.0, 4.0, lag_order), 3)),
        ))
    hydros = tuple(hydros)

    renewables = (Renewable("w1", bus_names[0]),) if with_renewable else ()

    def one_noise():
        return NoiseRealization(
            inflow_noise={h.name: float(np.round(rng.uniform(0.5, 5.0), 3))
                          for h in hydros},
            renewable_cap={re.name: float(np.round(rng.uniform(0.0, 3.0), 3))
                           for re in renewables},
            demand=({bus_names[0]: float(np.round(base * rng.uniform(0.9, 1.3), 3))}
                    if rng.random() < 0.25 else {}),
        )

    case = SystemCase(
        buses=buses, lines=lines, thermals=thermals, hydros=hydros,
        renewables=renewables,
        deficit_cost=float(10.0 * max(th.cost for th in thermals)))
    lattice = Lattice(T, L, one_noise(),
                      [[one_noise() for _ in range(L)] for _ in range(T - 1)])
    return case, lattice


def thermal_only_case(demand, cost, cap, deficit_cost=None, T=1):
    """Minimal single-bus case with one thermal plant."""
    case = SystemCase(
        buses=(Bus("b1", tuple([float(demand)] * T)),),
        thermals=(Thermal("t1", "b1", float(cost), float(cap)),),
        deficit_cost=float(deficit_cost if deficit_cost is not None
                           else 10 * cost))
    quiet = NoiseRealization()
    lattice = Lattice(T, 1, quiet, [[quiet] for _ in range(T - 1)])
    return case, lattice


def in_bounds_state(rng, case):
    """Random state with storages inside bounds and nonnegative lags."""
    storages = [float(rng.uniform(0.0, h.max_storage)) for h in case.hydros]
    lags = [rng.uniform(0.0, 5.0, len(h.ar_coeffs)) for h in case.hydros]
    return np.concatenate([storages, *lags])


def cut_matrices(case, cuts):
    """Per-opening ``Cut`` lists as the ``(k, d+1)`` matrices
    ``[gradient | offset]`` that ``CutPool.slice`` gives, the form
    ``build_stage_lp`` and ``StageTemplate`` take; None stays None."""
    if cuts is None:
        return None
    empty = np.empty((0, case.state_dimension() + 1))
    return [np.array([np.append(c.gradient, c.offset) for c in opening])
            if len(opening) else empty for opening in cuts]
