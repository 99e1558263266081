"""Case-file ingestion, canonical fingerprints, and policy persistence.

Case files are plain JSON with an explicit ``schema_version``. Parsing
is strict: unknown keys are rejected with their field path, every
cross-reference (bus names, upstream hydros, noise keys) must resolve,
and the hydro cascade must be acyclic. The fingerprint is a SHA-256
over a canonical key-sorted serialization of the parsed content, so
formatting changes never alter it while any semantic change does.

Each list of the system block (buses, lines, thermals, hydros,
renewables) is declared once, in ``_RECORDS``: its record type from
``hydro`` and a reader per case-file key. The key check, the reads and
``case_to_dict``'s records all follow that declaration, and a key is
optional exactly when its field has a default.

Policy files round-trip cut coefficients at full float precision
(Python's repr-based JSON floats) and embed the case fingerprint so a
policy can never silently be replayed against a mutated case. A
policy's ``bounds`` rows and the rows of ``convergence.csv`` are both
``BoundsEntry`` values in its field order, ``CSV_COLUMNS``, and both
readers check a row with the same rule.
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
    DimensionMismatch,
    Hydro,
    Line,
    Renewable,
    SystemCase,
    Thermal,
    UnknownReference,
    read_noise,
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
    v = obj.get(key, default)
    if not _finite(v):
        raise SchemaError(f"{path}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _intval(obj, key, path, default=None):
    v = obj.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _str(obj, key, path, default=None):
    v = obj.get(key, default)
    if not isinstance(v, str):
        raise SchemaError(f"{path}.{key}: expected a string, got {v!r}")
    return v


def _list(obj, key, path):
    v = obj.get(key, [])
    if not isinstance(v, list):
        raise SchemaError(f"{path}.{key}: expected a list")
    return v


def _strlist(obj, key, path):
    v = obj.get(key)
    if not isinstance(v, list) or any(not isinstance(x, str) for x in v):
        raise SchemaError(f"{path}.{key}: expected a list of strings")
    return tuple(v)


def _numlist(obj, key, path):
    v = obj.get(key)
    if not isinstance(v, list) or not all(map(_finite, v)):
        raise SchemaError(f"{path}.{key}: expected a list of finite numbers")
    return tuple(float(x) for x in v)


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


# Each list of the system block, by its case-file key: the record type
# and a reader per key of a record. A key sets the field of its name, but
# for the keys of _FIELD_OF, and it is optional exactly when that field
# has a default, which an absent key keeps.
_RECORDS = {
    "buses": (Bus, {"name": _str, "demand": _numlist}),
    "lines": (Line, {"from": _str, "to": _str, "capacity": _num}),
    "thermals": (Thermal, {"name": _str, "bus": _str, "cost": _num,
                           "cap": _num}),
    "hydros": (Hydro, {"name": _str, "bus": _str, "max_storage": _num,
                       "max_turbine": _num, "production": _num,
                       "upstream": _strlist, "ar_coeffs": _numlist,
                       "initial_storage": _num, "initial_lags": _numlist}),
    "renewables": (Renewable, {"name": _str, "bus": _str}),
}
_FIELD_OF = {"from": "from_bus", "to": "to_bus"}


def _records(system, key) -> list:
    """The records of the list ``system[key]``, read by ``_RECORDS``."""
    cls, readers = _RECORDS[key]
    optional = {f.name for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}
    required = [k for k in readers if _FIELD_OF.get(k, k) not in optional]
    records = []
    for i, raw in enumerate(_list(system, key, "system")):
        path = f"system.{key}[{i}]"
        _expect_keys(raw, path, required, readers)
        records.append(cls(**{_FIELD_OF.get(k, k): read(raw, k, path)
                              for k, read in readers.items() if k in raw}))
    return records


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
    sampling = _str(values, "sampling", path, base.sampler_mode.value)
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


def _parse_noise(raw, path, system: SystemCase, t: int) -> NoiseRealization:
    """The stage-t noise at ``path``, checked by ``hydro.read_noise``."""
    _expect_keys(raw, path, (), ("inflows", "renewable_caps", "demand"))
    inflows, caps, demand = (
        _nummap(raw, key, path, {x.name for x in items}, kind)
        for key, items, kind in (
            ("inflows", system.hydros, "hydro"),
            ("renewable_caps", system.renewables, "renewable"),
            ("demand", system.buses, "bus")))
    try:
        noise = NoiseRealization(inflows, caps, demand)
        read_noise(system, t, noise)
    except DimensionMismatch as exc:
        raise SchemaError(f"{path}.{exc}") from None
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return noise


def parse_case_data(data) -> ParsedCase:
    """Validate an already-decoded case document."""
    _expect_keys(data, "case", ("schema_version", "system", "lattice"),
                 ("initial_state", "risk", "engine"))
    version = _intval(data, "schema_version", "case")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"case.schema_version: expected {SCHEMA_VERSION}, got {version!r}")

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

    buses = _records(sysraw, "buses")
    for i, b in enumerate(buses):
        if len(b.demand) != T:
            raise SchemaError(f"system.buses[{i}].demand: expected {T} stage "
                              f"values, got {len(b.demand)}")
    if not buses:
        raise SchemaError("system.buses: need at least one bus")
    lines = _records(sysraw, "lines")
    thermals = _records(sysraw, "thermals")
    hydros = _records(sysraw, "hydros")
    hydro_names = {h.name for h in hydros}

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
                lags = _numlist(lagmap, h.name, "initial_state.inflow_lags")
                if len(lags) != len(h.ar_coeffs):
                    raise SchemaError(
                        f"initial_state.inflow_lags.{h.name}: expected "
                        f"{len(h.ar_coeffs)} lags")
                changes["initial_lags"] = lags
            if changes:
                hydros[j] = dataclasses.replace(h, **changes)

    renewables = _records(sysraw, "renewables")

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

    stage1 = _parse_noise(latraw["stage1"], "lattice.stage1", system, 1)
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
            _parse_noise(raw, f"lattice.noises[{t - 2}][{l}]", system, t)
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None
    return parse_case_data(data)


# ---------------------------------------------------------------------------
# Canonical serialization and fingerprints


def _noise_dict(noise: NoiseRealization) -> dict:
    return {"inflows": dict(sorted(noise.inflow_noise.items())),
            "renewable_caps": dict(sorted(noise.renewable_cap.items())),
            "demand": dict(sorted(noise.demand.items()))}


def _record_dict(record, readers) -> dict:
    doc = {}
    for key in readers:
        value = getattr(record, _FIELD_OF.get(key, key))
        doc[key] = list(value) if isinstance(value, tuple) else value
    return doc


def case_to_dict(system: SystemCase, lattice: Lattice) -> dict:
    """Schema-conformant document for the in-memory case."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "system": {
            **{key: [_record_dict(record, readers)
                     for record in getattr(system, key)]
               for key, (_, readers) in _RECORDS.items()},
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
            "storages": {h.name: float(h.initial_storage)
                         for h in system.hydros},
            "inflow_lags": {h.name: [float(x) for x in h.initial_lags]
                            for h in system.hydros if len(h.initial_lags)},
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
        "bounds": [dataclasses.astuple(e) for e in policy.bounds],
    }
    _atomic_write(path, json.dumps(doc, indent=2) + "\n")


def read_policy(path, case_fingerprint: Optional[str] = None) -> TrainedPolicy:
    """Load a policy; verifies the fingerprint when one is supplied."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"{path}: {exc}") from None
    except RecursionError:
        raise CorruptFile(f"{path}: JSON nested too deeply") from None
    try:
        if _intval(doc, "schema_version", "policy") != SCHEMA_VERSION:
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
            for i, (grad, anchor, intercept) in enumerate(cuts):
                if not (all(map(_finite, grad)) and all(map(_finite, anchor))
                        and _finite(intercept)):
                    raise CorruptFile(f"policy.pool.cuts.{key}[{i}]: "
                                      f"expected finite JSON numbers")
                pool.append(int(t_txt), int(l_txt),
                            Cut(np.asarray(grad, dtype=float),
                                np.asarray(anchor, dtype=float), intercept))
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

CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(BoundsEntry))
# The type each column holds; a CSV cell is empty for None.
_COLUMN_KINDS = (int, float, float, float, int, str, float)


def _bounds_entry(row, path) -> BoundsEntry:
    """The BoundsEntry of one bounds row, a list of its field values in
    ``CSV_COLUMNS`` order: a policy's ``bounds`` row as ``write_policy``
    writes it, or a convergence CSV row converted by ``_COLUMN_KINDS``."""
    if not isinstance(row, list) or len(row) != len(CSV_COLUMNS):
        raise CorruptFile(
            f"{path}: expected a list of {len(CSV_COLUMNS)} fields")
    iteration, lb, mean, stderr, samples, sampler, wall_ms = row

    def count(v):
        return isinstance(v, int) and not isinstance(v, bool) and v >= 1

    def number(v, optional=False):
        return (v is None and optional) or _finite(v)

    if not (count(iteration) and number(lb) and number(mean, True)
            and number(stderr, True) and (samples is None or count(samples))
            and sampler in [m.value for m in SamplerMode]
            and number(wall_ms) and wall_ms >= 0):
        raise CorruptFile(f"{path}: malformed row {row!r}")
    return BoundsEntry(*row)


def bounds_to_csv(bounds) -> str:
    """Render a policy's bounds, one BoundsEntry per iteration; UB fields
    stay empty on non-UB iterations.

    Floats use repr so rerunning an identical seed reproduces identical
    bytes everywhere except wall_ms.
    """
    lines = [",".join(CSV_COLUMNS)]
    for e in bounds:
        lines.append(",".join(
            "" if v is None else repr(float(v)) if kind is float else str(v)
            for v, kind in zip(dataclasses.astuple(e), _COLUMN_KINDS)))
    return "\n".join(lines) + "\n"


def read_convergence_csv(path) -> list:
    """Parse a convergence CSV back into dict rows keyed by
    ``CSV_COLUMNS`` (None for blanks); it must hold at least one row, and
    each row must pass the checks of a policy's bounds rows."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"{path}: {exc}") from None
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise CorruptFile(f"{path}: unexpected CSV header")
    if len(lines) == 1:
        raise CorruptFile(f"{path}: no data rows")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise CorruptFile(f"{path}: ragged CSV row {ln!r}")
        try:
            values = [None if p == "" else kind(p)
                      for p, kind in zip(parts, _COLUMN_KINDS)]
        except ValueError:
            raise CorruptFile(f"{path}: non-numeric CSV field in {ln!r}") from None
        rows.append(dataclasses.asdict(_bounds_entry(values, path)))
    return rows


def _atomic_write(path, text: str) -> None:
    """Write-then-rename so failures never leave partial files. The file
    gets the mode ``open`` would give it, 0o666 less the umask, not the
    0o600 of the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)     # the umask can only be read by setting it
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
