"""Hydrothermal system model and single-stage subproblem construction.

A stage subproblem minimizes thermal plus deficit cost subject to bus
energy balance, reservoir mass balance, the autoregressive inflow equation,
and physical bounds. The stage LP and the tree oracle (``treelp``) share
one definition of it: the dispatch block by ``dispatch_columns``,
``dispatch_cost`` and ``dispatch_rows``, and the one state transition,
incoming to outgoing, by ``outgoing_state``. Each fact of a case is read
one way: a noise by ``read_noise``, for stage LPs, tree LPs and case files
alike; the cascade by ``cascade_levels``, which validates it and orders the
crash start; and a state, a flat float vector of ``case.state_dimension()``
entries, by ``split_state``: the storages, then each hydro's inflow lags,
newest first, the order of the cut gradients (``initial_state`` gives the
case's). The stage LP pins the incoming state with copy rows, whose duals
are the cuts' state sensitivities. Below the last stage, each opening's
future is an epigraph variable bounded below by its cut matrix's rows, and
the CVaR linear form aggregates them. A ``StageTemplate`` builds that LP
once, at the case's initial state and the stage's opening 0, restamps it
for each incoming state and noise, and gives each stamp a feasible starting
basis in closed form, so that its solve skips phase 1.

Feasibility is guaranteed by a deficit slack per bus and free spill as
long as inflows remain nonnegative, which is the physical regime all
case generators and fixtures stick to.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
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
            # Both flow columns of such a line would key on one bus.
            if line.from_bus == line.to_bus:
                raise ValueError(f"lines[{i}]: from and to bus are the same")
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
        cascade_levels(self.hydros)
        # A negative stage cost would put the optimum below the epigraph
        # floor of future_lower_bound.
        if self.deficit_cost < 0:
            raise ValueError("deficit_cost: must be nonnegative")
        for i, th in enumerate(self.thermals):
            if th.cost < 0 or th.cap < 0:
                raise ValueError(f"thermals[{i}]: negative data")
            if self.deficit_cost <= th.cost:
                raise ValueError(
                    f"deficit_cost: must exceed thermals[{i}].cost")

    def state_dimension(self) -> int:
        return len(self.hydros) + sum(len(h.ar_coeffs) for h in self.hydros)


def cascade_levels(hydros) -> list:
    """The hydro indices by cascade level, ascending within a level: level
    0 holds the hydros with no upstream, and a hydro sits one level past
    its highest upstream one. Kahn's algorithm, in O(H + E). On a cycle,
    CascadeCycle names the path from the first hydro left without a level
    through each one's first upstream hydro without a level."""
    index = {h.name: j for j, h in enumerate(hydros)}
    below = [[] for _ in hydros]
    for j, h in enumerate(hydros):
        for up in h.upstream:
            below[index[up]].append(j)
    waiting = [len(h.upstream) for h in hydros]
    levels, level = [], [j for j, count in enumerate(waiting) if not count]
    while level:
        levels.append(level)
        for k in (k for j in level for k in below[j]):
            waiting[k] -= 1
        level = sorted({k for j in level for k in below[j] if not waiting[k]})
    path = [j for j, count in enumerate(waiting) if count][:1]
    while path:
        k = next(index[up] for up in hydros[path[-1]].upstream
                 if waiting[index[up]])
        if k in path:
            raise CascadeCycle(
                f"hydros[{k}].upstream: cascade cycle "
                + " -> ".join(hydros[j].name for j in path + [k]))
        path.append(k)
    return levels


def initial_state(case: SystemCase) -> np.ndarray:
    """The case's initial state as a flat vector: the storages, then each
    hydro's inflow lags, newest first, the order of the cut gradients."""
    return np.array([h.initial_storage for h in case.hydros]
                    + [lag for h in case.hydros for lag in h.initial_lags],
                    dtype=float)


def split_state(case: SystemCase, state) -> tuple:
    """``(storages, [lags of each hydro])`` of a state, or of any sequence
    in state order, as slices of it."""
    ends = list(accumulate([len(case.hydros)]
                           + [len(h.ar_coeffs) for h in case.hydros]))
    return state[:ends[0]], [state[a:b] for a, b in zip(ends, ends[1:])]


def check_state(case: SystemCase, state) -> np.ndarray:
    """``state`` as a float vector, which the entry points use in its
    place: ``dispatch_rows`` would read an ``int`` entry as a column.
    DimensionMismatch unless it holds the case's storages and lags."""
    d = case.state_dimension()
    if np.shape(state) != (d,):
        raise DimensionMismatch(
            f"state of shape {np.shape(state)} != ({d},), the case's "
            f"storages and inflow lags")
    return np.asarray(state, dtype=float)


@dataclass
class StageSolution:
    objective: float
    immediate_cost: float
    state_out: np.ndarray
    state_dual: np.ndarray
    betas: Optional[np.ndarray]   # None at the terminal stage
    phase1_pivots: int = 0        # the stage LP's simplex iterations
    phase2_pivots: int = 0
    start_fallback: bool = False  # the crash start was set aside


def read_noise(case: SystemCase, t: int, noise: NoiseRealization) -> tuple:
    """``(demand, inflow, caps)`` of ``noise`` at stage t in case order:
    each bus's override or stage-t demand, each hydro's inflow noise, each
    renewable's cap. DimensionMismatch names the first kind missing."""
    demand, inflow, caps = [], [], []
    try:    # plain loops: a comprehension costs a function call here
        for h in case.hydros:
            inflow.append(float(noise.inflow_noise[h.name]))
        for re in case.renewables:
            caps.append(noise.renewable_cap[re.name])
        for b in case.buses:
            demand.append(float(noise.demand.get(b.name, b.demand[t - 1])))
        return demand, inflow, caps
    except (KeyError, IndexError):
        pass
    for key, kind, items, given in (
            ("inflows", "hydro", case.hydros, noise.inflow_noise),
            ("renewable_caps", "renewable", case.renewables,
             noise.renewable_cap)):
        missing = sorted(x.name for x in items if x.name not in given)
        if missing:
            raise DimensionMismatch(f"{key}: missing {kind}(s) {missing}")
    raise DimensionMismatch(
        f"buses[{len(demand)}].demand: no value for stage {t}")


def dispatch_columns(bld: LPBuilder, case: SystemCase, caps) -> dict:
    """Add one stage's dispatch columns, all at zero cost, with the
    renewables' ``caps`` of ``read_noise``; returns ``{key: column index}``.

    Keys are ("g", thermal), ("r", renewable), ("f", line index, sending
    bus), ("deficit", bus), and ("u" | "spill" | "vout" | "a", hydro)
    with each hydro's four columns adjacent in that order.
    """
    cols = {}

    def add(key, lower, upper):
        cols[key] = bld.add_var(lower, upper)

    for th in case.thermals:
        add(("g", th.name), 0.0, th.cap)
    for re, cap in zip(case.renewables, caps):
        add(("r", re.name), 0.0, cap)
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


def dispatch_rows(bld: LPBuilder, case: SystemCase, cols: dict, demand,
                  inflow, storage_in, lags_in) -> None:
    """Add one stage's bus balance, reservoir mass and AR inflow rows:
    one balance row per bus, then each hydro's mass row and AR row, at
    the ``demand`` and ``inflow`` vectors of ``read_noise``.

    ``storage_in[j]`` is hydro j's incoming storage and ``lags_in[j][k]``
    its inflow k+1 stages back. Each is a column index (an ``int``) or a
    fixed value (a ``float``), which moves to the right-hand side.
    """
    # Bus energy balance: generation + net imports + deficit = demand.
    for b, load in zip(case.buses, demand):
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
        bld.add_row(terms, EQUAL, load)

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

        rhs = inflow[j]
        terms = [(cols["a", h.name], 1.0)]
        for coef, lag in zip(h.ar_coeffs, lags_in[j]):
            if isinstance(lag, int):
                terms.append((lag, -coef))
            else:
                rhs += coef * float(lag)
        bld.add_row(terms, EQUAL, rhs)


def build_stage_lp(case: SystemCase, t: int, state_in: np.ndarray,
                   noise: NoiseRealization, cuts, measure: RiskMeasure,
                   num_stages: int, num_openings: int):
    """Stage-t subproblem as ``(LinearProgram, columns)``.

    ``columns`` is ``dispatch_columns``' ``{key: column index}`` plus,
    below the terminal stage, ``("beta", l)`` and ``("delta", l)``, the
    epigraph and CVaR excess columns of opening l. The first
    ``case.state_dimension()`` rows are the copy rows ``x_in =
    state_in``, in state order, so the state duals are
    ``duals[:case.state_dimension()]``; ``dispatch_rows``' rows follow
    them, then per opening its CVaR row and its cut rows.

    ``cuts`` holds one ``(k, d+1)`` matrix per opening l of stage t+1,
    as ``CutPool.slice`` gives (ignored at the terminal stage); its row
    ``[gradient | offset]`` is ``beta_l - gradient . x_out >= offset``.
    """
    if not 1 <= t <= num_stages:
        raise DimensionMismatch(f"stage {t} outside 1..{num_stages}")
    state_in = check_state(case, state_in)
    demand, inflow, caps = read_noise(case, t, noise)
    bld = LPBuilder()

    cols = dispatch_columns(bld, case, caps)
    for col, cost in dispatch_cost(case, cols):
        bld.set_cost(col, cost)

    # Copy variables pinned to the incoming state, one per coordinate;
    # their rows carry the state duals.
    copies = [bld.add_var(-np.inf, np.inf) for _ in state_in]
    for col, value in zip(copies, state_in):
        bld.add_row([(col, 1.0)], EQUAL, float(value))
    vin, lagvar = split_state(case, copies)

    dispatch_rows(bld, case, cols, demand, inflow, vin, lagvar)

    if t < num_stages:
        state_cols = outgoing_state(case, cols, copies)
        L = num_openings
        mean, tail = measure.atom_weights(L)
        beta = [bld.add_var(case.future_lower_bound, np.inf, mean)
                for _ in range(L)]
        z = bld.add_var(-np.inf, np.inf, measure.lam)
        delta = [bld.add_var(0.0, np.inf, tail) for _ in range(L)]
        for l in range(L):
            cols["beta", l], cols["delta", l] = beta[l], delta[l]
            bld.add_row([(delta[l], 1.0), (beta[l], -1.0), (z, 1.0)],
                        GREATER, 0.0)
            if cuts is None:
                continue
            rows = np.asarray(cuts[l], dtype=float)
            if rows.shape[1:] != (len(state_cols) + 1,):
                raise DimensionMismatch(f"cut gradient dimension: rows of "
                                        f"shape {rows.shape} != (k, d + 1)")
            bld.add_rows([beta[l], *state_cols],
                         np.hstack([np.ones((len(rows), 1)), -rows[:, :-1]]),
                         GREATER, rows[:, -1])

    return bld.build(), cols


def outgoing_state(case: SystemCase, cols: dict, state_in) -> list:
    """The one state transition: a stage's outgoing state from its
    incoming ``state_in``, in state order. Each storage is ``cols["vout",
    name]``; each hydro's newest lag is ``cols["a", name]``, its others
    its incoming lags one stage older. Columns and values pass alike."""
    out = [cols["vout", h.name] for h in case.hydros]
    for h, lags in zip(case.hydros, split_state(case, state_in)[1]):
        out += ([cols["a", h.name]] + list(lags))[:len(lags)]
    return out


class StageTemplate:
    """The stage-t LP of one (case, lattice, cut matrices, measure), built
    once by ``build_stage_lp`` when the template is made and stamped for
    each (incoming state, noise).

    The template is built at the canonical point, ``initial_state(case)``
    and ``lattice.stage_noise(t, 0)``, so ``lp`` depends on the inputs
    alone, not on the order of the solves that stamp it; opening-0 noise
    that does not fit the case raises DimensionMismatch here. A holder
    whose pool grows needs a new template, as each stage table of
    ``engine.StageMemo`` takes one when a distinct cut lands at its stage.
    The LPs of one template differ only in the right-hand sides of the copy
    rows (the state), the bus balance rows (demand) and the AR rows (inflow
    noise), and in the renewable columns' upper bounds (caps). ``program``
    reads the noise by ``read_noise``, copies those two vectors and stamps
    ``lp`` with them (``LinearProgram.stamp``), which shares every other
    array, since nothing writes a ``LinearProgram``, and ``lp``'s equality
    form, so a solve sets up only what the stamp changes. The form is built
    with ``lp`` and freed with the template. The template also keeps the
    column indices that ``solve_stage`` reads; ``beta_cols`` is empty
    exactly at the last stage. ``out_pick``, ``outgoing_state`` over the
    positions of ``[storages | inflows | incoming state]``, picks the
    outgoing state from that vector for ``solve_stage`` and ``start``.

    ``start`` gives a stamp its crash start, a basis that is primal
    feasible under nonnegative inflows, so that ``lp.solve`` skips phase
    1. Every dispatch column but those named here sits at its lower
    bound, and ``z`` at 0. Row by row, the basic column is:

    - in each copy row, its copy column;
    - in each AR row, the inflow column ``a``;
    - in each mass row, taken level by level (``cascade_levels``),
      ``vout``, or ``spill`` with ``vout`` at its cap when the incoming
      storage, the inflow and the upstream spills overflow it;
    - in each bus row, the bus's deficit column;
    - in the cut rows of opening l, ``beta_l`` in the row most violated
      at that point (the first of equal maxima) when its cut lies above
      ``future_lower_bound``, and the slacks elsewhere;
    - in the CVaR row of opening l, ``delta_l`` when ``beta_l > 0``, else
      the row's slack.

    The basis is triangular in that order. The links stay sparse, as the
    case gives them: the AR terms as (hydro, state position, coefficient)
    runs, summed by ``np.bincount``, and each cascade level's upstream
    hydros as one run, summed by ``np.add.reduceat``, so the walk costs
    O(H + E + lags) for E upstream links. The cut values come from one
    product with ``cut_block``, the matrices of ``cuts`` stacked, and
    their per-opening maxima from one reduction.
    """

    def __init__(self, case: SystemCase, lattice: Lattice, t: int, cuts,
                 measure: RiskMeasure):
        self.case, self.t = case, t
        lp, cols = build_stage_lp(case, t, initial_state(case),
                                  lattice.stage_noise(t, 0), cuts, measure,
                                  lattice.num_stages, lattice.num_openings)
        self.lp = lp
        # Row layout: the copy rows, then dispatch_rows' bus balance rows
        # and each hydro's mass and AR rows, then each opening's CVaR row
        # and cut rows.
        hydros = case.hydros
        n, m, H = lp.num_vars, lp.num_rows, len(hydros)
        d, buses = case.state_dimension(), len(case.buses)
        self.copy_rows = d
        self.demand_rows = np.arange(d, d + buses)
        self.mass_rows = d + buses + 2 * np.arange(H)
        self.inflow_rows = self.mass_rows + 1
        self.renewable_cols = [cols["r", re.name] for re in case.renewables]
        self.cost_terms = dispatch_cost(case, cols)
        self.storage_cols = np.array([cols["vout", h.name] for h in hydros],
                                     dtype=np.intp)
        self.inflow_cols = np.array([cols["a", h.name] for h in hydros],
                                    dtype=np.intp)
        self.beta_cols = np.array(
            [c for key, c in cols.items() if key[0] == "beta"], dtype=np.intp)

        # The crash start, but for the mass, cut and CVaR rows. Copy row
        # k holds one entry, in the copy column of coordinate k; those
        # columns are made in row order, as the nonzeros list them.
        copies = lp.nonzeros.col[lp.nonzeros.row < d]
        self.basis = np.arange(n, n + m)
        self.basis[:d] = copies
        self.basis[self.demand_rows] = [cols["deficit", b.name]
                                        for b in case.buses]
        self.basis[self.mass_rows] = self.storage_cols
        self.basis[self.inflow_rows] = self.inflow_cols
        self.spill = np.array([cols["spill", h.name] for h in hydros],
                              dtype=np.intp)
        self.caps = np.array([h.max_storage for h in hydros])
        # The AR runs, one entry per lag, and per cascade level past 0 its
        # hydros, their upstream hydros and where each one's run starts.
        lag_at = split_state(case, range(d))[1]
        self.ar_hydro = np.repeat(np.arange(H), [len(at) for at in lag_at])
        self.ar_at = np.array([k for at in lag_at for k in at], dtype=np.intp)
        self.ar_coef = np.array([c for h in hydros for c in h.ar_coeffs])
        index = {h.name: j for j, h in enumerate(hydros)}
        self.cascade = []
        for on in cascade_levels(hydros)[1:]:
            size = [len(hydros[j].upstream) for j in on]
            ups = [index[up] for j in on for up in hydros[j].upstream]
            self.cascade.append(tuple(np.array(v, dtype=np.intp) for v in (
                on, ups, np.cumsum(size) - size)))

        # Per opening: its CVaR row, then its cut rows.
        L = self.beta_cols.size
        self.delta = np.array([cols["delta", l] for l in range(L)],
                              dtype=np.intp)
        blocks = [np.empty((0, d + 1))] * L if cuts is None else cuts[:L]
        count = np.array([len(b) for b in blocks], dtype=np.intp)
        first = np.cumsum(count) - count          # of each opening's cuts
        self.cvar_rows = d + buses + 2 * H + np.arange(L) + first
        self.cvar_slacks = n + self.cvar_rows
        K = count.sum()
        self.cut_rows = np.repeat(self.cvar_rows + 1 - first, count) \
            + np.arange(K)
        # by_opening[l, i]: opening l's i-th cut, K past its last.
        slot = np.arange(count.max(initial=0))
        self.by_opening = np.where(slot < count[:, None],
                                   first[:, None] + slot, K)
        # Where each outgoing coordinate sits in ``[vout | a | incoming
        # state]``, and the cut rows ``[gradient | offset]`` over it.
        at = {(key, h.name): k * H + j for k, key in enumerate(("vout", "a"))
              for j, h in enumerate(hydros)}
        self.out_pick = np.array(
            outgoing_state(case, at, range(2 * H, 2 * H + d)), dtype=np.intp)
        self.cut_block = np.vstack([np.empty((0, d + 1)), *blocks])
        self.floor = case.future_lower_bound

    def program(self, state_in: np.ndarray,
                noise: NoiseRealization) -> LinearProgram:
        """The stage LP at ``state_in`` and ``noise``."""
        case, lp = self.case, self.lp
        state_in = check_state(case, state_in)
        demand, inflow, caps = read_noise(case, self.t, noise)
        rhs = lp.rhs.copy()
        rhs[:self.copy_rows] = state_in
        rhs[self.demand_rows] = demand
        rhs[self.inflow_rows] = inflow
        upper = lp.upper
        if caps:
            upper = upper.copy()
            upper[self.renewable_cols] = caps
        return lp.stamp(rhs, upper)

    def start(self, lp: LinearProgram):
        """The crash start ``(basis, at_upper)`` of ``lp``, a stamp of
        this template, for ``lp.solve``."""
        state = lp.rhs[:self.copy_rows]
        a = lp.rhs[self.inflow_rows] + np.bincount(
            self.ar_hydro, self.ar_coef * state[self.ar_at], self.caps.size)
        water = state[:self.caps.size] + a
        spill = np.maximum(water - self.caps, 0.0)
        for on, ups, starts in self.cascade:
            water[on] += np.add.reduceat(spill[ups], starts)
            spill[on] = np.maximum(water[on] - self.caps[on], 0.0)
        over = spill > 0.0
        basis = self.basis.copy()
        basis[self.mass_rows[over]] = self.spill[over]
        beta = np.full(self.beta_cols.size, self.floor)
        if self.cut_rows.size:
            x_out = np.concatenate([np.minimum(water, self.caps), a,
                                    state])[self.out_pick]
            value = np.append(self.cut_block @ np.append(x_out, 1.0),
                              -np.inf)[self.by_opening]
            top = value.argmax(axis=1)
            best = value[np.arange(top.size), top]
            hit = best > self.floor
            basis[self.cut_rows[self.by_opening[hit, top[hit]]]] = \
                self.beta_cols[hit]
            beta[hit] = best[hit]
        basis[self.cvar_rows] = np.where(beta > 0.0, self.delta,
                                         self.cvar_slacks)
        return basis, self.storage_cols[over]


def solve_stage(template: StageTemplate, state_in: np.ndarray,
                noise: NoiseRealization) -> StageSolution:
    """Solve the template's stage LP at ``state_in`` and ``noise`` and
    unpack state, duals, and betas. ``state_out`` is a new array, the
    storages and lags gathered by ``template.out_pick``."""
    t, case = template.t, template.case
    lp = template.program(state_in, noise)
    sol = solve(lp, template.start(lp))
    if sol.status != OPTIMAL:
        raise StageInfeasible(
            f"stage {t} subproblem ended {sol.status}; deficit slack and "
            f"free spill should keep every stage feasible")

    x = sol.primal
    immediate = sum((cost * float(x[col])
                     for col, cost in template.cost_terms), 0.0)

    state_out = np.concatenate([x[template.storage_cols],
                                x[template.inflow_cols],
                                state_in])[template.out_pick]
    dual = sol.duals[:case.state_dimension()].copy()

    betas = x[template.beta_cols] if template.beta_cols.size else None
    return StageSolution(sol.objective, immediate, state_out, dual, betas,
                         sol.phase1_pivots, sol.phase2_pivots,
                         not sol.started)
