"""Seeded case documents for the benchmark workloads.

The generator is the benchmark's own, written against the case-file
schema only, so that neither a change to the test-suite generators nor
a numpy upgrade can move a workload. It draws from Python's
``random.Random`` (whose ``random()`` stream is fixed for an integer
seed) and rounds every drawn number to three decimals, so a document
survives a JSON round trip exactly.

Two shapes are produced:

* ``deep_case``: one bus, 7 stages, 2 openings, 2 hydros without
  inflow lags, 3 thermals; the shape of acceptance criterion 1. The
  ``deep-train`` and ``tree-oracle`` workloads both run it.
* ``wide_case``: two buses joined by a line, a renewable, 2 hydros with
  AR(1) inflow lags, 3 stages, 8 openings (a 73-node tree).
"""

from __future__ import annotations

import hashlib
import json
import random


def _r(x: float) -> float:
    return round(x, 3)


def _system(rng: random.Random, T: int, bus_names, n_hydro: int,
            n_thermal: int, lag_order: int, renewable: bool) -> dict:
    base = rng.uniform(8.0, 16.0)
    buses = [{"name": name,
              "demand": [_r(base * rng.uniform(0.8, 1.2)) for _ in range(T)]}
             for name in bus_names]
    lines = ([{"from": bus_names[0], "to": bus_names[1],
               "capacity": _r(rng.uniform(3.0, 12.0))}]
             if len(bus_names) > 1 else [])

    thermals = [{"name": f"t{i + 1}", "bus": bus_names[i % len(bus_names)],
                 "cost": _r(rng.uniform(1.0, 9.0)),
                 "cap": _r(rng.uniform(4.0, 12.0))}
                for i in range(n_thermal)]
    # Enough thermal capacity that deficit stays a tail event.
    need = base * 1.6 * len(bus_names)
    total = sum(th["cap"] for th in thermals)
    if total < need:
        thermals[0]["cap"] = _r(thermals[0]["cap"] + need - total + 0.001)

    hydros = []
    for j in range(n_hydro):
        big_v = _r(rng.uniform(6.0, 20.0))
        hydros.append({
            "name": f"h{j + 1}",
            "bus": bus_names[j % len(bus_names)],
            "max_storage": big_v,
            "max_turbine": _r(rng.uniform(2.0, 8.0)),
            "production": _r(rng.uniform(0.6, 1.4)),
            "upstream": [],
            "ar_coeffs": [_r(rng.uniform(0.1, 0.45)) for _ in range(lag_order)],
            "initial_storage": _r(rng.uniform(0.2, 0.8) * big_v),
            "initial_lags": [_r(rng.uniform(1.0, 4.0))
                             for _ in range(lag_order)],
        })
    return {
        "buses": buses,
        "lines": lines,
        "thermals": thermals,
        "hydros": hydros,
        "renewables": [{"name": "w1", "bus": bus_names[0]}] if renewable else [],
        "deficit_cost": _r(10.0 * max(th["cost"] for th in thermals)),
        "future_lower_bound": 0.0,
    }


def _noise(rng: random.Random, system: dict) -> dict:
    base = system["buses"][0]["demand"][0]
    demand = {}
    if rng.random() < 0.25:
        demand[system["buses"][0]["name"]] = _r(base * rng.uniform(0.9, 1.3))
    return {
        "inflows": {h["name"]: _r(rng.uniform(0.5, 5.0))
                    for h in system["hydros"]},
        "renewable_caps": {w["name"]: _r(rng.uniform(0.0, 3.0))
                           for w in system["renewables"]},
        "demand": demand,
    }


def _document(rng: random.Random, T: int, L: int, system: dict,
              lam: float, alpha: float) -> dict:
    return {
        "schema_version": 1,
        "system": system,
        "lattice": {
            "stages": T,
            "openings": L,
            "stage1": _noise(rng, system),
            "noises": [[_noise(rng, system) for _ in range(L)]
                       for _ in range(T - 1)],
        },
        "risk": {"lambda": lam, "alpha": alpha},
    }


def deep_case(seed: int) -> dict:
    rng = random.Random(seed)
    system = _system(rng, 7, ["b1"], n_hydro=2, n_thermal=3, lag_order=0,
                     renewable=False)
    return _document(rng, 7, 2, system, lam=0.5, alpha=0.5)


def wide_case(seed: int) -> dict:
    rng = random.Random(seed)
    system = _system(rng, 3, ["b1", "b2"], n_hydro=2, n_thermal=3,
                     lag_order=1, renewable=True)
    return _document(rng, 3, 8, system, lam=0.5, alpha=0.75)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def digest(doc: dict) -> str:
    """SHA-256 of the document exactly as the benchmark writes it."""
    return hashlib.sha256(dumps(doc).encode("utf-8")).hexdigest()


SHAPES = {"deep": deep_case, "wide": wide_case}
