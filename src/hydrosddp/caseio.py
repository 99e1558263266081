"""Case-file ingestion, canonical fingerprints, and policy persistence.

Case files are plain JSON with an explicit ``schema_version``. Parsing
is strict: unknown keys are rejected with their field path, every
cross-reference (bus names, upstream hydros, noise keys) must resolve,
and the hydro cascade must be acyclic. The fingerprint is a SHA-256
over a canonical key-sorted serialization of the parsed content, so
formatting changes never alter it while any semantic change does.

Policy files round-trip cut coefficients at full float precision
(Python's repr-based JSON floats) and embed the case fingerprint so a
policy can never silently be replayed against a mutated case.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import (
    BoundsEntry,
    Cut,
    CutPool,
    EngineConfig,
    TrainedPolicy,
)
from .hydro import (
    Bus,
    CascadeCycle,
    Hydro,
    Line,
    Renewable,
    SystemCase,
    Thermal,
    UnknownReference,
    initial_state,
)
from .risk import RiskMeasure
from .scenario import Lattice, NoiseRealization, SamplerMode

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Case or policy data does not match the documented schema."""


class DanglingReference(SchemaError):
    """A name reference (bus, hydro, noise key) does not resolve."""


class CyclicCascade(SchemaError):
    """The hydro upstream relation contains a cycle."""


class FingerprintMismatch(ValueError):
    """Policy was trained against a different case."""


class CorruptFile(ValueError):
    """Persisted file is unreadable or structurally broken."""


@dataclass
class ParsedCase:
    system: SystemCase
    lattice: Lattice
    config: EngineConfig  # the run settings of the engine and risk blocks
    fingerprint: str

    @property
    def risk(self) -> RiskMeasure:
        return self.config.measure


def _expect_mapping(obj, path):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    return obj


def _expect_keys(obj, path, required, optional=()):
    _expect_mapping(obj, path)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise SchemaError(f"{path}: unknown key(s) {unknown}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{path}: missing key(s) {missing}")


def _finite(v):
    """Whether ``v`` is a JSON number, not a bool, within the float range."""
    try:
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v))
    except OverflowError:  # an integer too large for a float
        return False


def _num(obj, key, path, default=None):
    if key not in obj:
        if default is not None:
            return default
        raise SchemaError(f"{path}.{key}: missing number")
    v = obj[key]
    if not _finite(v):
        raise SchemaError(f"{path}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _intval(obj, key, path, default=None):
    if key not in obj and default is not None:
        return default
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _str(obj, key, path):
    v = obj.get(key)
    if not isinstance(v, str):
        raise SchemaError(f"{path}.{key}: expected a string, got {v!r}")
    return v


def _list(obj, key, path):
    v = obj.get(key, [])
    if not isinstance(v, list):
        raise SchemaError(f"{path}.{key}: expected a list")
    return v


def _strlist(v, path):
    if not isinstance(v, list) or any(not isinstance(x, str) for x in v):
        raise SchemaError(f"{path}: expected a list of strings")
    return tuple(v)


def _numlist(v, path):
    if not isinstance(v, list) or not all(map(_finite, v)):
        raise SchemaError(f"{path}: expected a list of finite numbers")
    return [float(x) for x in v]


def _nummap(obj, key, path, allowed_names, kind):
    raw = obj.get(key, {})
    _expect_mapping(raw, f"{path}.{key}")
    out = {}
    for name, v in raw.items():
        if name not in allowed_names:
            raise DanglingReference(
                f"{path}.{key}: unknown {kind} {name!r}")
        if not _finite(v):
            raise SchemaError(f"{path}.{key}.{name}: expected a finite number")
        out[name] = float(v)
    return out


# Run settings by their case-file names, grouped by the case-file block
# that holds them. Command-line flags and policy.json's config block use
# the same names.
SETTINGS = {"engine": ("max_iterations", "min_iterations", "batch_size",
                       "seed", "sampling", "ub_confidence"),
            "risk": ("lambda", "alpha")}


def config_from_dict(values: dict, path: str,
                     base: EngineConfig = EngineConfig()) -> EngineConfig:
    """``base`` with the run settings in ``values``, keyed by the names
    of ``SETTINGS``, applied; absent keys keep ``base``'s values and other
    keys are ignored. A value of the wrong type, or one that
    ``EngineConfig``, ``RiskMeasure`` or ``SamplerMode.parse`` rejects,
    raises a SchemaError that leads with ``path.<key>``.
    """
    fields = {key: _intval(values, key, path, getattr(base, key))
              for key in ("max_iterations", "min_iterations", "batch_size",
                          "seed")}
    ub_confidence = _num(values, "ub_confidence", path, base.ub_confidence)
    lam = _num(values, "lambda", path, base.measure.lam)
    alpha = _num(values, "alpha", path, base.measure.alpha)
    sampling = (_str(values, "sampling", path) if "sampling" in values
                else base.sampler_mode.value)
    try:
        return EngineConfig(**fields, sampler_mode=SamplerMode.parse(sampling),
                            measure=RiskMeasure(lam=lam, alpha=alpha),
                            ub_confidence=ub_confidence)
    except ValueError as exc:
        raise SchemaError(f"{path}.{exc}") from None


def config_to_dict(config: EngineConfig) -> dict:
    """The run settings of ``config`` by their case-file names."""
    return {"max_iterations": config.max_iterations,
            "min_iterations": config.min_iterations,
            "batch_size": config.batch_size,
            "seed": config.seed,
            "sampling": config.sampler_mode.value,
            "lambda": config.measure.lam,
            "alpha": config.measure.alpha,
            "ub_confidence": config.ub_confidence}


def _parse_noise(raw, path, hydro_names, renewable_names, bus_names):
    _expect_keys(raw, path, (), ("inflows", "renewable_caps", "demand"))
    inflows = _nummap(raw, "inflows", path, hydro_names, "hydro")
    caps = _nummap(raw, "renewable_caps", path, renewable_names, "renewable")
    demand = _nummap(raw, "demand", path, bus_names, "bus")
    missing = hydro_names - set(inflows)
    if missing:
        raise SchemaError(f"{path}.inflows: missing hydro(s) {sorted(missing)}")
    missing = renewable_names - set(caps)
    if missing:
        raise SchemaError(
            f"{path}.renewable_caps: missing renewable(s) {sorted(missing)}")
    try:
        return NoiseRealization(inflows, caps, demand)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def parse_case_data(data) -> ParsedCase:
    """Validate an already-decoded case document."""
    _expect_keys(data, "case", ("schema_version", "system", "lattice"),
                 ("initial_state", "risk", "engine"))
    if data["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(
            f"case.schema_version: expected {SCHEMA_VERSION}, "
            f"got {data['schema_version']!r}")

    sysraw = data["system"]
    _expect_keys(sysraw, "system", ("buses", "deficit_cost"),
                 ("lines", "thermals", "hydros", "renewables",
                  "future_lower_bound"))
    latraw = data["lattice"]
    _expect_keys(latraw, "lattice", ("stages", "openings", "stage1", "noises"))
    T = _intval(latraw, "stages", "lattice")
    L = _intval(latraw, "openings", "lattice")
    if T < 1 or L < 1:
        raise SchemaError("lattice: stages and openings must be >= 1")

    buses = []
    for i, raw in enumerate(_list(sysraw, "buses", "system")):
        path = f"system.buses[{i}]"
        _expect_keys(raw, path, ("name", "demand"))
        demand = _numlist(raw["demand"], f"{path}.demand")
        if len(demand) != T:
            raise SchemaError(f"{path}.demand: expected {T} stage values, "
                              f"got {len(demand)}")
        buses.append(Bus(_str(raw, "name", path), tuple(demand)))
    if not buses:
        raise SchemaError("system.buses: need at least one bus")
    bus_names = {b.name for b in buses}

    lines = []
    for i, raw in enumerate(_list(sysraw, "lines", "system")):
        path = f"system.lines[{i}]"
        _expect_keys(raw, path, ("from", "to", "capacity"))
        lines.append(Line(_str(raw, "from", path), _str(raw, "to", path),
                          _num(raw, "capacity", path)))

    thermals = []
    for i, raw in enumerate(_list(sysraw, "thermals", "system")):
        path = f"system.thermals[{i}]"
        _expect_keys(raw, path, ("name", "bus", "cost", "cap"))
        thermals.append(Thermal(_str(raw, "name", path), _str(raw, "bus", path),
                                _num(raw, "cost", path), _num(raw, "cap", path)))

    hydros = []
    hydro_names = set()
    for i, raw in enumerate(_list(sysraw, "hydros", "system")):
        path = f"system.hydros[{i}]"
        _expect_keys(raw, path,
                     ("name", "bus", "max_storage", "max_turbine",
                      "production"),
                     ("upstream", "ar_coeffs", "initial_storage",
                      "initial_lags"))
        hydros.append(Hydro(
            name=_str(raw, "name", path),
            bus=_str(raw, "bus", path),
            max_storage=_num(raw, "max_storage", path),
            max_turbine=_num(raw, "max_turbine", path),
            production=_num(raw, "production", path),
            upstream=_strlist(raw.get("upstream", []), f"{path}.upstream"),
            ar_coeffs=tuple(_numlist(raw.get("ar_coeffs", []),
                                     f"{path}.ar_coeffs")),
            initial_storage=_num(raw, "initial_storage", path, default=0.0),
            initial_lags=tuple(_numlist(raw.get("initial_lags", []),
                                        f"{path}.initial_lags")),
        ))
        hydro_names.add(hydros[-1].name)

    # An initial_state block overrides the per-hydro defaults, so the
    # system itself stays the single source of the starting state.
    if "initial_state" in data:
        raw = data["initial_state"]
        _expect_keys(raw, "initial_state", (), ("storages", "inflow_lags"))
        storages = _nummap(raw, "storages", "initial_state", hydro_names,
                           "hydro")
        lagmap = raw.get("inflow_lags", {})
        _expect_mapping(lagmap, "initial_state.inflow_lags")
        for name in lagmap:
            if name not in hydro_names:
                raise DanglingReference(
                    f"initial_state.inflow_lags: unknown hydro {name!r}")
        for j, h in enumerate(hydros):
            changes = {}
            if h.name in storages:
                if not 0.0 <= storages[h.name] <= h.max_storage:
                    raise SchemaError(f"initial_state.storages.{h.name}: "
                                      f"out of bounds [0, {h.max_storage}]")
                changes["initial_storage"] = storages[h.name]
            if h.name in lagmap:
                lags = _numlist(lagmap[h.name],
                                f"initial_state.inflow_lags.{h.name}")
                if len(lags) != len(h.ar_coeffs):
                    raise SchemaError(
                        f"initial_state.inflow_lags.{h.name}: expected "
                        f"{len(h.ar_coeffs)} lags")
                changes["initial_lags"] = tuple(lags)
            if changes:
                hydros[j] = dataclasses.replace(h, **changes)

    renewables = []
    for i, raw in enumerate(_list(sysraw, "renewables", "system")):
        path = f"system.renewables[{i}]"
        _expect_keys(raw, path, ("name", "bus"))
        renewables.append(Renewable(_str(raw, "name", path),
                                    _str(raw, "bus", path)))
    renewable_names = {r.name for r in renewables}

    deficit_cost = _num(sysraw, "deficit_cost", "system")
    future_lower_bound = _num(sysraw, "future_lower_bound", "system",
                              default=0.0)
    try:
        system = SystemCase(
            buses=tuple(buses), lines=tuple(lines), thermals=tuple(thermals),
            hydros=tuple(hydros), renewables=tuple(renewables),
            deficit_cost=deficit_cost, future_lower_bound=future_lower_bound)
    except UnknownReference as exc:
        raise DanglingReference(f"system.{exc}") from None
    except CascadeCycle as exc:
        raise CyclicCascade(f"system.{exc}") from None
    except ValueError as exc:
        raise SchemaError(f"system: {exc}") from None

    stage1 = _parse_noise(latraw["stage1"], "lattice.stage1", hydro_names,
                          renewable_names, bus_names)
    noises_raw = latraw["noises"]
    if not isinstance(noises_raw, list) or len(noises_raw) != T - 1:
        raise SchemaError(
            f"lattice.noises: expected {T - 1} per-stage lists")
    openings = []
    for t, per_stage in enumerate(noises_raw, start=2):
        if not isinstance(per_stage, list) or len(per_stage) != L:
            raise SchemaError(
                f"lattice.noises[{t - 2}]: expected {L} openings")
        openings.append([
            _parse_noise(raw, f"lattice.noises[{t - 2}][{l}]", hydro_names,
                         renewable_names, bus_names)
            for l, raw in enumerate(per_stage)])
    lattice = Lattice(T, L, stage1, openings)

    config = EngineConfig()
    for block, keys in SETTINGS.items():
        if block in data:
            _expect_keys(data[block], block, (), keys)
            config = config_from_dict(data[block], block, config)

    return ParsedCase(system, lattice, config,
                      fingerprint_of(case_to_dict(system, lattice)))


def parse_case(path) -> ParsedCase:
    """Read and validate a case file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    return parse_case_data(data)


# ---------------------------------------------------------------------------
# Canonical serialization and fingerprints


def _noise_dict(noise: NoiseRealization) -> dict:
    return {"inflows": dict(sorted(noise.inflow_noise.items())),
            "renewable_caps": dict(sorted(noise.renewable_cap.items())),
            "demand": dict(sorted(noise.demand.items()))}


def case_to_dict(system: SystemCase, lattice: Lattice) -> dict:
    """Schema-conformant document for the in-memory case."""
    initial = initial_state(system)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "system": {
            "buses": [{"name": b.name, "demand": list(b.demand)}
                      for b in system.buses],
            "lines": [{"from": l.from_bus, "to": l.to_bus,
                       "capacity": l.capacity} for l in system.lines],
            "thermals": [{"name": t.name, "bus": t.bus, "cost": t.cost,
                          "cap": t.cap} for t in system.thermals],
            "hydros": [{"name": h.name, "bus": h.bus,
                        "max_storage": h.max_storage,
                        "max_turbine": h.max_turbine,
                        "production": h.production,
                        "upstream": list(h.upstream),
                        "ar_coeffs": list(h.ar_coeffs),
                        "initial_storage": h.initial_storage,
                        "initial_lags": list(h.initial_lags)}
                       for h in system.hydros],
            "renewables": [{"name": r.name, "bus": r.bus}
                           for r in system.renewables],
            "deficit_cost": system.deficit_cost,
            "future_lower_bound": system.future_lower_bound,
        },
        "lattice": {
            "stages": lattice.num_stages,
            "openings": lattice.num_openings,
            "stage1": _noise_dict(lattice.stage1),
            "noises": [[_noise_dict(noise) for noise in per_stage]
                       for per_stage in lattice.openings],
        },
        "initial_state": {
            "storages": {h.name: float(initial.storages[j])
                         for j, h in enumerate(system.hydros)},
            "inflow_lags": {h.name: [float(x) for x in initial.lags[j]]
                            for j, h in enumerate(system.hydros)
                            if len(initial.lags[j])},
        },
    }
    return doc


def fingerprint_of(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Policy persistence


def write_policy(policy: TrainedPolicy, path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "fingerprint": policy.fingerprint,
        "pool": {
            "num_stages": policy.cuts.num_stages,
            "num_openings": policy.cuts.num_openings,
            "state_dim": policy.cuts.state_dim,
            "cuts": {
                f"{t},{l}": [[list(c.gradient), list(c.anchor), c.intercept]
                             for c in cuts]
                for (t, l), cuts in sorted(policy.cuts.items())},
        },
        "config": config_to_dict(policy.config),
        "bounds": [[e.iteration, e.lower_bound, e.ub_mean, e.ub_stderr,
                    e.ub_samples, e.sampler, e.wall_ms]
                   for e in policy.bounds],
    }
    _atomic_write(path, json.dumps(doc, indent=2) + "\n")


def _bounds_entry(row, path) -> BoundsEntry:
    """One row of a policy's ``bounds``, as ``write_policy`` writes it:
    iteration, LB, UB mean, UB standard error, UB sample count, sampler
    and wall milliseconds."""
    if not isinstance(row, list) or len(row) != 7:
        raise SchemaError(f"{path}: expected a list of 7 fields")
    iteration, lb, mean, stderr, samples, sampler, wall_ms = row

    def count(v):
        return isinstance(v, int) and not isinstance(v, bool) and v >= 1

    def number(v, optional=False):
        return (v is None and optional) or _finite(v)

    if not (count(iteration) and number(lb) and number(mean, True)
            and number(stderr, True) and (samples is None or count(samples))
            and sampler in [m.value for m in SamplerMode]
            and number(wall_ms) and wall_ms >= 0):
        raise SchemaError(f"{path}: malformed row {row!r}")
    return BoundsEntry(iteration, lb, mean, stderr, samples, sampler, wall_ms)


def read_policy(path, case_fingerprint: Optional[str] = None) -> TrainedPolicy:
    """Load a policy; verifies the fingerprint when one is supplied."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"{path}: {exc}") from None
    try:
        if doc["schema_version"] != SCHEMA_VERSION:
            raise CorruptFile(f"{path}: unsupported schema version")
        fingerprint = _str(doc, "fingerprint", "policy")
        poolraw = doc["pool"]
        T, L, dim = (_intval(poolraw, key, "policy.pool")
                     for key in ("num_stages", "num_openings", "state_dim"))
        cutsraw = poolraw["cuts"]
        # write_policy lists every (t, l) of the pool, so a count that
        # disagrees is caught before the pool is sized from it.
        if min(T, L) < 1 or dim < 0 or len(cutsraw) != (T - 1) * L:
            raise SchemaError("policy.pool: dimensions do not match the "
                              "cut lists")
        pool = CutPool(T, L, dim)
        for key, cuts in cutsraw.items():
            t_txt, l_txt = key.split(",")
            for grad, anchor, intercept in cuts:
                pool.append(int(t_txt), int(l_txt),
                            Cut(np.asarray(grad), np.asarray(anchor),
                                float(intercept)))
        # Every run setting is required; other keys, such as the
        # stop_gap_tol of older files, are ignored.
        cfgraw = doc["config"]
        config = config_from_dict(
            {key: cfgraw[key] for block in SETTINGS.values() for key in block},
            "config")
        bounds = [_bounds_entry(row, f"policy.bounds[{i}]")
                  for i, row in enumerate(doc["bounds"])]
    except (LookupError, AttributeError, TypeError, ValueError,
            ArithmeticError) as exc:
        raise CorruptFile(f"{path}: malformed policy file ({exc})") from None
    if case_fingerprint is not None and fingerprint != case_fingerprint:
        raise FingerprintMismatch(
            f"policy was trained against fingerprint {fingerprint[:12]}..., "
            f"case has {case_fingerprint[:12]}...")
    return TrainedPolicy(pool, bounds, config, fingerprint)


# ---------------------------------------------------------------------------
# Convergence CSV (fixed column contract)

CSV_COLUMNS = ("iteration", "lower_bound", "ub_mean", "ub_stderr",
               "ub_samples", "sampler", "wall_ms")


def bounds_to_csv(bounds) -> str:
    """Render a policy's bounds, one BoundsEntry per iteration; UB fields
    stay empty on non-UB iterations.

    Floats use repr so rerunning an identical seed reproduces identical
    bytes everywhere except wall_ms.
    """
    lines = [",".join(CSV_COLUMNS)]
    for e in bounds:
        lines.append(",".join((
            str(e.iteration),
            repr(float(e.lower_bound)),
            "" if e.ub_mean is None else repr(float(e.ub_mean)),
            "" if e.ub_stderr is None else repr(float(e.ub_stderr)),
            "" if e.ub_samples is None else str(e.ub_samples),
            e.sampler,
            repr(float(e.wall_ms)),
        )))
    return "\n".join(lines) + "\n"


def read_convergence_csv(path) -> list:
    """Parse a convergence CSV back into dict rows (None for blanks)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise CorruptFile(f"{path}: unexpected CSV header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise CorruptFile(f"{path}: ragged CSV row {ln!r}")
        try:
            rows.append({
                "iteration": int(parts[0]),
                "lower_bound": float(parts[1]),
                "ub_mean": float(parts[2]) if parts[2] else None,
                "ub_stderr": float(parts[3]) if parts[3] else None,
                "ub_samples": int(parts[4]) if parts[4] else None,
                "sampler": parts[5],
                "wall_ms": float(parts[6]),
            })
        except ValueError:
            raise CorruptFile(f"{path}: non-numeric CSV field in {ln!r}") from None
    return rows


def _atomic_write(path, text: str) -> None:
    """Write-then-rename so failures never leave partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
