"""Hydrothermal system model and single-stage subproblem construction.

A stage subproblem minimizes thermal plus deficit cost subject to bus
energy balance, reservoir mass balance, the autoregressive inflow
equation, and physical bounds. That dispatch block is defined once, by
``dispatch_columns``, ``dispatch_cost`` and ``dispatch_rows``; the stage
LP and the tree oracle (``treelp``) both stamp it. In the stage LP the
incoming state (storages and inflow lags) enters through dedicated copy
variables pinned by equality rows; the duals of those rows are exactly
the state sensitivities used to build cuts. For non-terminal stages the
future is represented by one epigraph variable per opening bounded below
by its cut pool, aggregated through the CVaR linear form. A
``StageTemplate`` builds that LP once, when it is made, at the case's
initial state and the stage's opening 0, and restamps it for each
incoming state and noise.

Feasibility is guaranteed by a deficit slack per bus and free spill as
long as inflows remain nonnegative, which is the physical regime all
case generators and fixtures stick to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lp import EQUAL, GREATER, OPTIMAL, LinearProgram, LPBuilder, solve
from .risk import RiskMeasure
from .scenario import Lattice, NoiseRealization


class DimensionMismatch(ValueError):
    """State or noise data does not line up with the system case."""


class StageInfeasible(RuntimeError):
    """A stage subproblem, or the tree LP that stacks them, failed to
    solve; internal error by design."""


class UnknownReference(ValueError):
    """A case entry names a bus or an upstream hydro the case lacks."""


class CascadeCycle(ValueError):
    """The hydro upstream relation contains a cycle."""


@dataclass(frozen=True)
class Bus:
    name: str
    demand: tuple  # per-stage base demand


@dataclass(frozen=True)
class Line:
    from_bus: str
    to_bus: str
    capacity: float


@dataclass(frozen=True)
class Thermal:
    name: str
    bus: str
    cost: float
    cap: float


@dataclass(frozen=True)
class Hydro:
    name: str
    bus: str
    max_storage: float
    max_turbine: float
    production: float            # power per unit of turbined volume
    upstream: tuple = ()         # names of hydros spilling/releasing into this one
    ar_coeffs: tuple = ()        # lag coefficients, newest lag first
    initial_storage: float = 0.0
    initial_lags: tuple = ()     # newest first, length == len(ar_coeffs)


@dataclass(frozen=True)
class Renewable:
    name: str
    bus: str


@dataclass(frozen=True)
class SystemCase:
    buses: tuple
    lines: tuple = ()
    thermals: tuple = ()
    hydros: tuple = ()
    renewables: tuple = ()
    deficit_cost: float = 0.0
    future_lower_bound: float = 0.0  # floor for the epigraph variables

    def __post_init__(self):
        # Errors lead with their field path, for example
        # "thermals[0]: unknown bus 'nowhere'".
        # Names key the dispatch columns, so a repeated one would merge
        # two entries into one column.
        for attr in ("buses", "thermals", "hydros", "renewables"):
            names = [item.name for item in getattr(self, attr)]
            if len(set(names)) != len(names):
                raise ValueError(f"{attr}: duplicate names")
        bus_names = {b.name for b in self.buses}
        for i, b in enumerate(self.buses):
            if min(b.demand, default=0.0) < 0:
                raise ValueError(f"buses[{i}]: negative demand")
        for attr in ("lines", "thermals", "hydros", "renewables"):
            for i, item in enumerate(getattr(self, attr)):
                ends = ((item.from_bus, item.to_bus) if attr == "lines"
                        else (item.bus,))
                for bus in ends:
                    if bus not in bus_names:
                        raise UnknownReference(
                            f"{attr}[{i}]: unknown bus {bus!r}")
        for i, line in enumerate(self.lines):
            if line.capacity < 0:
                raise ValueError(f"lines[{i}]: negative capacity")
        names = {h.name for h in self.hydros}
        for i, h in enumerate(self.hydros):
            if min(h.max_storage, h.max_turbine, h.production) < 0:
                raise ValueError(f"hydros[{i}]: negative capacity")
            if not 0.0 <= h.initial_storage <= h.max_storage:
                raise ValueError(f"hydros[{i}]: initial storage out of bounds")
            if len(h.initial_lags) != len(h.ar_coeffs):
                raise ValueError(
                    f"hydros[{i}]: needs {len(h.ar_coeffs)} initial lags")
            for k, up in enumerate(h.upstream):
                if up not in names:
                    raise UnknownReference(
                        f"hydros[{i}].upstream: unknown hydro {up!r}")
                # A repeat would route the upstream water in twice.
                if up in h.upstream[:k]:
                    raise ValueError(
                        f"hydros[{i}].upstream: repeated hydro {up!r}")
        check_acyclic(self.hydros)
        for i, th in enumerate(self.thermals):
            if th.cost < 0 or th.cap < 0:
                raise ValueError(f"thermals[{i}]: negative data")
            if self.deficit_cost <= th.cost:
                raise ValueError(
                    f"deficit_cost: must exceed thermals[{i}].cost")

    @property
    def num_stages(self) -> int:
        return len(self.buses[0].demand) if self.buses else 0

    def state_dimension(self) -> int:
        return len(self.hydros) + sum(len(h.ar_coeffs) for h in self.hydros)


def check_acyclic(hydros) -> None:
    """Raise CascadeCycle naming the path of any upstream cycle."""
    index = {h.name: i for i, h in enumerate(hydros)}
    upstream = {h.name: tuple(h.upstream) for h in hydros}
    seen, active = set(), []

    def visit(name):
        if name in active:
            raise CascadeCycle(
                f"hydros[{index[name]}].upstream: cascade cycle "
                + " -> ".join(active + [name]))
        if name in seen:
            return
        active.append(name)
        for up in upstream[name]:
            visit(up)
        active.pop()
        seen.add(name)

    for h in hydros:
        visit(h.name)


class StateVector:
    """Reservoir storages plus per-hydro inflow lags (newest first)."""

    __slots__ = ("storages", "lags")

    def __init__(self, storages, lags):
        self.storages = np.ascontiguousarray(storages, dtype=float)
        self.lags = tuple(np.ascontiguousarray(l, dtype=float) for l in lags)

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.storages, *self.lags]) if self.lags \
            else self.storages.copy()

    def __eq__(self, other):
        return (isinstance(other, StateVector)
                and np.array_equal(self.storages, other.storages)
                and len(self.lags) == len(other.lags)
                and all(np.array_equal(a, b)
                        for a, b in zip(self.lags, other.lags)))

    def __repr__(self):
        return f"StateVector({self.storages.tolist()}, {[l.tolist() for l in self.lags]})"


def initial_state(case: SystemCase) -> StateVector:
    return StateVector([h.initial_storage for h in case.hydros],
                       [np.asarray(h.initial_lags, dtype=float)
                        for h in case.hydros])


def check_state(case: SystemCase, state: StateVector) -> None:
    if state.storages.shape != (len(case.hydros),):
        raise DimensionMismatch("storage vector does not match hydro count")
    if len(state.lags) != len(case.hydros):
        raise DimensionMismatch("lag list does not match hydro count")
    for h, lag in zip(case.hydros, state.lags):
        if lag.shape != (len(h.ar_coeffs),):
            raise DimensionMismatch(
                f"hydro {h.name!r} expects {len(h.ar_coeffs)} lags, "
                f"got {lag.shape[0]}")


@dataclass
class StageSolution:
    objective: float
    immediate_cost: float
    state_out: StateVector
    state_dual: np.ndarray
    betas: Optional[np.ndarray]   # None at the terminal stage
    phase1_pivots: int = 0        # the stage LP's simplex iterations
    phase2_pivots: int = 0


def _renewable_cap(noise: NoiseRealization, re: Renewable) -> float:
    try:
        return noise.renewable_cap[re.name]
    except KeyError:
        raise DimensionMismatch(
            f"noise lacks a cap for renewable {re.name!r}") from None


def _inflow(noise: NoiseRealization, h: Hydro) -> float:
    try:
        return float(noise.inflow_noise[h.name])
    except KeyError:
        raise DimensionMismatch(
            f"noise lacks inflow for hydro {h.name!r}") from None


def dispatch_columns(bld: LPBuilder, case: SystemCase,
                     noise: NoiseRealization) -> dict:
    """Add one stage's dispatch columns, all at zero cost; returns
    ``{key: column index}``.

    Keys are ("g", thermal), ("r", renewable), ("f", line index, sending
    bus), ("deficit", bus), and ("u" | "spill" | "vout" | "a", hydro)
    with each hydro's four columns adjacent in that order.
    """
    cols = {}

    def add(key, lower, upper):
        cols[key] = bld.add_var(lower, upper)

    for th in case.thermals:
        add(("g", th.name), 0.0, th.cap)
    for re in case.renewables:
        add(("r", re.name), 0.0, _renewable_cap(noise, re))
    for i, line in enumerate(case.lines):
        add(("f", i, line.from_bus), 0.0, line.capacity)
        add(("f", i, line.to_bus), 0.0, line.capacity)
    for b in case.buses:
        add(("deficit", b.name), 0.0, np.inf)
    for h in case.hydros:
        add(("u", h.name), 0.0, h.max_turbine)
        add(("spill", h.name), 0.0, np.inf)
        add(("vout", h.name), 0.0, h.max_storage)
        add(("a", h.name), -np.inf, np.inf)
    return cols


def dispatch_cost(case: SystemCase, cols: dict) -> list:
    """(column, cost) terms of the stage's immediate cost."""
    return ([(cols["g", th.name], th.cost) for th in case.thermals]
            + [(cols["deficit", b.name], case.deficit_cost)
               for b in case.buses])


def dispatch_rows(bld: LPBuilder, case: SystemCase, cols: dict, t: int,
                  noise: NoiseRealization, storage_in, lags_in) -> None:
    """Add the stage-t bus balance, reservoir mass and AR inflow rows:
    one balance row per bus, then each hydro's mass row and AR row.

    ``storage_in[j]`` is hydro j's incoming storage and ``lags_in[j][k]``
    its inflow k+1 stages back. Each is a column index (an ``int``) or a
    fixed value (a ``float``), which moves to the right-hand side.
    """
    # Bus energy balance: generation + net imports + deficit = demand.
    for b in case.buses:
        demand = noise.demand.get(b.name, b.demand[t - 1])
        terms = [(cols["deficit", b.name], 1.0)]
        terms += [(cols["g", th.name], 1.0) for th in case.thermals
                  if th.bus == b.name]
        terms += [(cols["u", h.name], h.production) for h in case.hydros
                  if h.bus == b.name]
        terms += [(cols["r", re.name], 1.0) for re in case.renewables
                  if re.bus == b.name]
        for i, line in enumerate(case.lines):
            if line.to_bus == b.name:
                terms.append((cols["f", i, line.from_bus], 1.0))
                terms.append((cols["f", i, line.to_bus], -1.0))
            elif line.from_bus == b.name:
                terms.append((cols["f", i, line.to_bus], 1.0))
                terms.append((cols["f", i, line.from_bus], -1.0))
        bld.add_row(terms, EQUAL, float(demand))

    # Reservoir mass balance and the AR inflow equation.
    for j, h in enumerate(case.hydros):
        terms = [(cols["vout", h.name], 1.0), (cols["u", h.name], 1.0),
                 (cols["spill", h.name], 1.0), (cols["a", h.name], -1.0)]
        terms += [(cols["u", up], -1.0) for up in h.upstream]
        terms += [(cols["spill", up], -1.0) for up in h.upstream]
        rhs = 0.0
        if isinstance(storage_in[j], int):
            terms.append((storage_in[j], -1.0))
        else:
            rhs = float(storage_in[j])
        bld.add_row(terms, EQUAL, rhs)

        rhs = _inflow(noise, h)
        terms = [(cols["a", h.name], 1.0)]
        for coef, lag in zip(h.ar_coeffs, lags_in[j]):
            if isinstance(lag, int):
                terms.append((lag, -coef))
            else:
                rhs += coef * float(lag)
        bld.add_row(terms, EQUAL, rhs)


def build_stage_lp(case: SystemCase, t: int, state_in: StateVector,
                   noise: NoiseRealization, cuts, measure: RiskMeasure,
                   num_stages: int, num_openings: int):
    """Stage-t subproblem as ``(LinearProgram, columns)``.

    ``columns`` is ``dispatch_columns``' ``{key: column index}`` plus
    ``("beta", l)``, the epigraph column of opening l, below the terminal
    stage. The first ``case.state_dimension()`` rows are the copy rows
    ``x_in = state_in``, in ``state_in.flatten()`` order, so the state
    duals are ``duals[:case.state_dimension()]``; ``dispatch_rows``'
    rows follow them.

    ``cuts`` holds one cut list per opening of stage t+1 (ignored at the
    terminal stage); a cut contributes the row
    ``beta_l - cut.gradient . x_out >= cut.offset``.
    """
    if not 1 <= t <= num_stages:
        raise DimensionMismatch(f"stage {t} outside 1..{num_stages}")
    check_state(case, state_in)
    bld = LPBuilder()
    terminal = t == num_stages

    cols = dispatch_columns(bld, case, noise)
    for col, cost in dispatch_cost(case, cols):
        bld.set_cost(col, cost)

    # Copy variables pinned to the incoming state, one per coordinate of
    # state_in.flatten(); their rows carry the state duals.
    flat = state_in.flatten()
    copies = [bld.add_var(-np.inf, np.inf) for _ in flat]
    for col, value in zip(copies, flat):
        bld.add_row([(col, 1.0)], EQUAL, float(value))
    ends = np.cumsum([len(case.hydros)] + [lag.size for lag in state_in.lags])
    vin = copies[:ends[0]]
    lagvar = [copies[a:b] for a, b in zip(ends[:-1], ends[1:])]

    dispatch_rows(bld, case, cols, t, noise, vin, lagvar)

    if not terminal:
        # Column index of every outgoing-state coordinate, in the same
        # flattened order cuts use: storages first, then lags per hydro
        # (newest outgoing lag is this stage's inflow variable).
        state_cols = [cols["vout", h.name] for h in case.hydros]
        for j, h in enumerate(case.hydros):
            state_cols += ([cols["a", h.name]] + lagvar[j])[:len(h.ar_coeffs)]

        lam, alpha = measure.lam, measure.alpha
        L = num_openings
        beta = [bld.add_var(case.future_lower_bound, np.inf, (1.0 - lam) / L)
                for _ in range(L)]
        z = bld.add_var(-np.inf, np.inf, lam)
        delta = [bld.add_var(0.0, np.inf, lam / ((1.0 - alpha) * L))
                 for _ in range(L)]
        for l in range(L):
            cols["beta", l] = beta[l]
            bld.add_row([(delta[l], 1.0), (beta[l], -1.0), (z, 1.0)],
                        GREATER, 0.0)
            for cut in cuts[l] if cuts is not None else ():
                grad = np.asarray(cut.gradient, dtype=float)
                if grad.shape != (len(state_cols),):
                    raise DimensionMismatch(
                        f"cut gradient dimension {grad.shape} != state "
                        f"dimension {len(state_cols)}")
                terms = [(beta[l], 1.0)]
                terms += [(col, -grad[c]) for c, col in enumerate(state_cols)
                          if grad[c] != 0.0]
                bld.add_row(terms, GREATER, cut.offset)

    return bld.build(), cols


class StageTemplate:
    """The stage-t LP of one (case, lattice, cut lists, measure), built
    once by ``build_stage_lp`` when the template is made and stamped for
    each (incoming state, noise).

    The template is built at the canonical point, ``initial_state(case)``
    and ``lattice.stage_noise(t, 0)``, so ``lp`` depends on the inputs
    alone, not on the order of the solves that stamp it; opening-0 noise
    that does not fit the case raises DimensionMismatch here. A holder
    whose pool grows needs a new template, as each stage table of
    ``engine.StageMemo`` takes one when a distinct cut lands at its
    stage. The LPs of one template differ only in the right-hand sides
    of the copy rows (the state), the bus balance rows (demand) and the
    AR rows (inflow noise), and in the renewable columns' upper bounds
    (caps). ``program`` copies those two vectors and shares every other
    array, since nothing writes a ``LinearProgram``. The template also
    keeps the column indices that ``solve_stage`` reads.
    """

    def __init__(self, case: SystemCase, lattice: Lattice, t: int, cuts,
                 measure: RiskMeasure):
        self.case, self.t = case, t
        self.num_stages = lattice.num_stages
        self.lp, cols = build_stage_lp(case, t, initial_state(case),
                                       lattice.stage_noise(t, 0), cuts,
                                       measure, lattice.num_stages,
                                       lattice.num_openings)
        # Row layout: the copy rows, then dispatch_rows' bus balance rows
        # and each hydro's mass and AR rows.
        d, buses = case.state_dimension(), len(case.buses)
        self.copy_rows = d
        self.demand_rows = np.arange(d, d + buses)
        self.base_demand = [b.demand[t - 1] for b in case.buses]
        self.inflow_rows = d + buses + 1 + 2 * np.arange(len(case.hydros))
        self.renewable_cols = [cols["r", re.name] for re in case.renewables]
        self.cost_terms = dispatch_cost(case, cols)
        self.storage_cols = [cols["vout", h.name] for h in case.hydros]
        self.inflow_cols = [cols["a", h.name] for h in case.hydros]
        self.beta_cols = ([cols["beta", l]
                           for l in range(lattice.num_openings)]
                          if t < lattice.num_stages else [])

    def program(self, state_in: StateVector,
                noise: NoiseRealization) -> LinearProgram:
        """The stage LP at ``state_in`` and ``noise``."""
        case, lp = self.case, self.lp
        check_state(case, state_in)
        rhs = lp.rhs.copy()
        rhs[:self.copy_rows] = state_in.flatten()
        rhs[self.demand_rows] = [
            float(noise.demand.get(b.name, demand))
            for b, demand in zip(case.buses, self.base_demand)]
        rhs[self.inflow_rows] = [_inflow(noise, h) for h in case.hydros]
        upper = lp.upper
        if case.renewables:
            upper = upper.copy()
            upper[self.renewable_cols] = [_renewable_cap(noise, re)
                                          for re in case.renewables]
        return LinearProgram(lp.objective, lp.lower, upper, lp.nonzeros,
                             lp.senses, rhs)


def solve_stage(template: StageTemplate, state_in: StateVector,
                noise: NoiseRealization) -> StageSolution:
    """Solve the template's stage LP at ``state_in`` and ``noise`` and
    unpack state, duals, and betas."""
    t, case = template.t, template.case
    sol = solve(template.program(state_in, noise))
    if sol.status != OPTIMAL:
        raise StageInfeasible(
            f"stage {t} subproblem ended {sol.status}; deficit slack and "
            f"free spill should keep every stage feasible")

    x = sol.primal
    immediate = sum((cost * float(x[col])
                     for col, cost in template.cost_terms), 0.0)

    storages = x[template.storage_cols]
    lags = [np.concatenate([[x[col]], lag])[:len(h.ar_coeffs)]
            for h, col, lag in zip(case.hydros, template.inflow_cols,
                                   state_in.lags)]
    state_out = StateVector(storages, lags)
    dual = sol.duals[:case.state_dimension()].copy()

    betas = None
    if t < template.num_stages:
        betas = x[template.beta_cols]
    return StageSolution(sol.objective, immediate, state_out, dual, betas,
                         sol.phase1_pivots, sol.phase2_pivots)
