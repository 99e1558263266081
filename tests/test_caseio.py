"""Case schema validation, fingerprints, policy and CSV round trips."""

import json

import numpy as np
import pytest

from casegen import random_case
from hydrosddp.caseio import (
    CSV_COLUMNS,
    CorruptFile,
    CyclicCascade,
    DanglingReference,
    FingerprintMismatch,
    SchemaError,
    bounds_to_csv,
    case_to_dict,
    fingerprint_of,
    parse_case,
    parse_case_data,
    read_convergence_csv,
    read_policy,
    write_policy,
)
from hydrosddp.engine import EngineConfig, train
from hydrosddp.risk import RiskMeasure
from hydrosddp.scenario import SamplerMode
from oracles import write_case


def minimal_case_dict():
    return {
        "schema_version": 1,
        "system": {
            "buses": [{"name": "b1", "demand": [10.0]}],
            "thermals": [{"name": "t1", "bus": "b1", "cost": 2.0, "cap": 15.0}],
            "deficit_cost": 20.0,
        },
        "lattice": {
            "stages": 1,
            "openings": 1,
            "stage1": {},
            "noises": [],
        },
    }


def hydro_case_dict():
    doc = minimal_case_dict()
    doc["system"]["hydros"] = [{
        "name": "h1", "bus": "b1", "max_storage": 10.0, "max_turbine": 5.0,
        "production": 1.0, "ar_coeffs": [0.5], "initial_storage": 4.0,
        "initial_lags": [2.0],
    }]
    doc["lattice"] = {
        "stages": 2, "openings": 2,
        "stage1": {"inflows": {"h1": 1.0}},
        "noises": [[{"inflows": {"h1": 0.5}}, {"inflows": {"h1": 3.0}}]],
    }
    doc["system"]["buses"][0]["demand"] = [10.0, 12.0]
    return doc


def test_parse_minimal_case(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(minimal_case_dict()))
    parsed = parse_case(path)
    assert parsed.system.thermals[0].cost == 2.0
    assert parsed.lattice.num_stages == 1
    assert parsed.risk == RiskMeasure()
    assert parsed.engine == {}


def test_fingerprint_ignores_formatting(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(minimal_case_dict(), indent=4))
    b.write_text(json.dumps(minimal_case_dict(), separators=(",", ":")))
    assert parse_case(a).fingerprint == parse_case(b).fingerprint


def test_fingerprint_tracks_content():
    doc = minimal_case_dict()
    fp1 = parse_case_data(doc).fingerprint
    doc["system"]["thermals"][0]["cost"] = 2.5
    assert parse_case_data(doc).fingerprint != fp1


def test_unknown_keys_rejected():
    doc = minimal_case_dict()
    doc["foo"] = 1
    with pytest.raises(SchemaError, match="foo"):
        parse_case_data(doc)
    doc = minimal_case_dict()
    doc["system"]["thermals"][0]["fuel"] = "coal"
    with pytest.raises(SchemaError, match="fuel"):
        parse_case_data(doc)


def test_dangling_references():
    doc = minimal_case_dict()
    doc["system"]["thermals"][0]["bus"] = "nowhere"
    with pytest.raises(DanglingReference, match="nowhere"):
        parse_case_data(doc)
    doc = hydro_case_dict()
    doc["lattice"]["stage1"]["inflows"] = {"h1": 1.0, "ghost": 2.0}
    with pytest.raises(DanglingReference, match="ghost"):
        parse_case_data(doc)


def test_cyclic_cascade():
    doc = hydro_case_dict()
    doc["system"]["hydros"][0]["upstream"] = ["h1"]
    with pytest.raises(CyclicCascade):
        parse_case_data(doc)


def test_demand_length_must_match_stages():
    doc = minimal_case_dict()
    doc["system"]["buses"][0]["demand"] = [10.0, 11.0]
    with pytest.raises(SchemaError, match="demand"):
        parse_case_data(doc)


def test_missing_noise_entries_rejected():
    doc = hydro_case_dict()
    del doc["lattice"]["noises"][0][0]["inflows"]
    with pytest.raises(SchemaError, match="inflows"):
        parse_case_data(doc)


def test_initial_state_override():
    doc = hydro_case_dict()
    doc["initial_state"] = {"storages": {"h1": 7.5},
                            "inflow_lags": {"h1": [1.25]}}
    parsed = parse_case_data(doc)
    assert parsed.system.hydros[0].initial_storage == 7.5
    assert parsed.initial.storages[0] == 7.5
    assert parsed.initial.lags[0][0] == 1.25


def test_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(91)
    case, lattice = random_case(rng, T=3, L=2, with_renewable=True,
                                two_bus=True)
    path = tmp_path / "case.json"
    write_case(path, case, lattice, risk=RiskMeasure(lam=0.5, alpha=0.5),
               engine={"max_iterations": 7, "seed": 3})
    parsed = parse_case(path)
    assert parsed.system == case
    assert parsed.lattice == lattice
    assert parsed.risk == RiskMeasure(lam=0.5, alpha=0.5)
    assert parsed.engine["max_iterations"] == 7
    # serialize -> parse is a fixpoint
    again = parse_case_data(case_to_dict(parsed.system, parsed.lattice,
                                         parsed.initial))
    assert again.system == parsed.system
    assert again.lattice == parsed.lattice
    assert again.initial == parsed.initial
    assert again.fingerprint == parsed.fingerprint


def test_policy_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(92)
    case, lattice = random_case(rng, T=3, L=2)
    cfg = EngineConfig(max_iterations=3, min_iterations=3, batch_size=2,
                       seed=1, measure=RiskMeasure(lam=0.5, alpha=0.5))
    policy, _ = train(case, lattice, cfg, fingerprint="fp-test")
    path = tmp_path / "policy.json"
    write_policy(policy, path)
    loaded = read_policy(path, "fp-test")
    assert loaded.fingerprint == "fp-test"
    assert loaded.config == policy.config
    assert len(loaded.cuts) == len(policy.cuts)
    for (key, cuts), (lkey, lcuts) in zip(sorted(policy.cuts.items()),
                                          sorted(loaded.cuts.items())):
        assert key == lkey
        for c, lc in zip(cuts, lcuts):
            assert np.array_equal(c.gradient, lc.gradient)
            assert np.array_equal(c.anchor, lc.anchor)
            assert c.intercept == lc.intercept
    for a, b in zip(policy.bounds, loaded.bounds):
        assert a == b


def test_policy_fingerprint_mismatch(tmp_path):
    rng = np.random.default_rng(93)
    case, lattice = random_case(rng, T=2, L=2)
    policy, _ = train(case, lattice,
                      EngineConfig(max_iterations=1, min_iterations=1),
                      fingerprint="original")
    path = tmp_path / "p.json"
    write_policy(policy, path)
    with pytest.raises(FingerprintMismatch):
        read_policy(path, "mutated")
    assert read_policy(path).fingerprint == "original"  # unchecked load


def test_policy_with_duplicate_cuts_loads_deduplicated(tmp_path):
    rng = np.random.default_rng(96)
    case, lattice = random_case(rng, T=3, L=2)
    policy, _ = train(case, lattice,
                      EngineConfig(max_iterations=3, min_iterations=3,
                                   batch_size=2, seed=1))
    path = tmp_path / "p.json"
    write_policy(policy, path)
    doc = json.loads(path.read_text())
    # A file written before the pool dropped duplicates: every cut twice.
    doc["pool"]["cuts"] = {key: cuts + cuts
                           for key, cuts in doc["pool"]["cuts"].items()}
    path.write_text(json.dumps(doc))
    loaded = read_policy(path)
    assert len(loaded.cuts) == len(policy.cuts) > 0
    assert loaded.cuts.duplicates == len(policy.cuts)
    for (key, cuts), (lkey, lcuts) in zip(sorted(policy.cuts.items()),
                                          sorted(loaded.cuts.items())):
        assert key == lkey
        assert [c.offset for c in cuts] == [c.offset for c in lcuts]


def test_truncated_policy_is_corrupt(tmp_path):
    rng = np.random.default_rng(94)
    case, lattice = random_case(rng, T=2, L=2)
    policy, _ = train(case, lattice,
                      EngineConfig(max_iterations=1, min_iterations=1))
    path = tmp_path / "p.json"
    write_policy(policy, path)
    blob = path.read_text()
    path.write_text(blob[:len(blob) // 2])
    with pytest.raises(CorruptFile):
        read_policy(path)
    path.write_text('{"schema_version": 1}')
    with pytest.raises(CorruptFile):
        read_policy(path)


def test_csv_contract_and_roundtrip(tmp_path):
    rng = np.random.default_rng(95)
    case, lattice = random_case(rng, T=3, L=2)
    cfg = EngineConfig(max_iterations=4, min_iterations=4, batch_size=2,
                       seed=2, measure=RiskMeasure(lam=1.0, alpha=0.5),
                       sampler_mode=SamplerMode.ALTERNATING)
    _, log = train(case, lattice, cfg)
    text = bounds_to_csv(log)
    header = text.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    path = tmp_path / "c.csv"
    path.write_text(text)
    rows = read_convergence_csv(path)
    assert len(rows) == len(log.entries)
    for row, entry in zip(rows, log.entries):
        assert row["iteration"] == entry.iteration
        assert row["lower_bound"] == entry.lower_bound  # repr round trip
        assert row["ub_mean"] == entry.ub_mean
        assert row["sampler"] == entry.sampler
    # odd alternating iterations leave UB fields blank
    assert any(",,,," in line for line in text.splitlines()[1:])
