"""Case schema validation, fingerprints, policy and CSV round trips."""

import json
import re
from pathlib import Path

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
from hydrosddp.cli import run_cli
from hydrosddp.engine import (
    BoundsEntry,
    CutPool,
    EngineConfig,
    evaluate_policy_exact,
    train,
)
from hydrosddp.hydro import initial_state
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
    assert parsed.config == EngineConfig()


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
    doc = hydro_case_dict()
    doc["system"]["renewables"] = [{"name": "w1", "bus": "b1"}]
    with pytest.raises(SchemaError, match=re.escape(
            "lattice.stage1.renewable_caps: missing renewable(s) ['w1']")):
        parse_case_data(doc)


@pytest.mark.parametrize("path, value, message", [
    (("schema_version",), 2, "case.schema_version: expected 1, got 2"),
    (("system", "deficit_cost"), None,
     "system: missing key(s) ['deficit_cost']"),
    (("system", "thermals", 0, "cap"), None,
     "system.thermals[0]: missing key(s) ['cap']"),
    (("lattice", "stages"), None, "lattice: missing key(s) ['stages']"),
    (("schema_version",), True,
     "case.schema_version: expected an integer, got True"),
    (("schema_version",), 1.0,
     "case.schema_version: expected an integer, got 1.0"),
])
def test_malformed_document_names_its_field(path, value, message, tmp_path,
                                            capsys):
    # The entry at `path` is set to `value`, or deleted when it is None.
    root = doc = minimal_case_dict()
    *parents, key = path
    for step in parents:
        doc = doc[step]
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(SchemaError) as exc:
        parse_case_data(root)
    assert str(exc.value) == message
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(root))
    assert run_cli(["detequiv", str(file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_initial_state_override():
    doc = hydro_case_dict()
    doc["initial_state"] = {"storages": {"h1": 7.5},
                            "inflow_lags": {"h1": [1.25]}}
    parsed = parse_case_data(doc)
    assert parsed.system.hydros[0].initial_storage == 7.5
    assert initial_state(parsed.system).tolist() == [7.5, 1.25]


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
    assert parsed.config.max_iterations == 7
    # serialize -> parse is a fixpoint
    again = parse_case_data(case_to_dict(parsed.system, parsed.lattice))
    assert again.system == parsed.system
    assert again.lattice == parsed.lattice
    assert (initial_state(again.system).tobytes()
            == initial_state(parsed.system).tobytes())
    assert again.fingerprint == parsed.fingerprint


def test_readme_case_example_parses():
    # The documented schema, engine block included, must stay parseable.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("```jsonc\n", 1)[1].split("```", 1)[0]
    parsed = parse_case_data(json.loads(re.sub(r"//[^\n]*", "", block)))
    assert parsed.config == EngineConfig(
        max_iterations=30, min_iterations=5, batch_size=2, seed=7,
        sampler_mode=SamplerMode.RISK_ADJUSTED,
        measure=RiskMeasure(lam=0.5, alpha=0.5), ub_confidence=1.96)
    assert initial_state(parsed.system)[0] == 7.5


def test_policy_roundtrip_bitwise(tmp_path, monkeypatch):
    rng = np.random.default_rng(92)
    case, lattice = random_case(rng, T=3, L=2)
    cfg = EngineConfig(max_iterations=3, min_iterations=3, batch_size=2,
                       seed=1, measure=RiskMeasure(lam=0.5, alpha=0.5))
    policy = train(case, lattice, cfg, fingerprint="fp-test")
    path = tmp_path / "policy.json"
    write_policy(policy, path)
    handed, append = [], CutPool.append

    def recording(pool, t, l, cut):
        handed.append(cut)
        return append(pool, t, l, cut)

    monkeypatch.setattr(CutPool, "append", recording)
    loaded = read_policy(path, "fp-test")
    # The loader hands append float arrays, as training does: a tracer
    # of append reads their bytes.
    assert handed and all(c.gradient.dtype == c.anchor.dtype == float
                          for c in handed)
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
    # The stage LPs of the loaded pool read the same rows, bit for bit.
    for t in range(1, lattice.num_stages + 1):
        rows, lrows = policy.cuts.slice(t), loaded.cuts.slice(t)
        assert (rows is None) == (lrows is None)
        for block, lblock in zip(rows or (), lrows or ()):
            assert block.shape == lblock.shape
            assert block.tobytes() == lblock.tobytes()
    for a, b in zip(policy.bounds, loaded.bounds):
        assert a == b


def test_policy_with_stop_gap_tol_loads(tmp_path):
    rng = np.random.default_rng(97)
    case, lattice = random_case(rng, T=3, L=2)
    cfg = EngineConfig(max_iterations=3, min_iterations=3, batch_size=2,
                       seed=1, measure=RiskMeasure(lam=0.5, alpha=0.5))
    policy = train(case, lattice, cfg)
    path = tmp_path / "p.json"
    write_policy(policy, path)
    doc = json.loads(path.read_text())
    assert list(doc["config"]) == ["max_iterations", "min_iterations",
                                   "batch_size", "seed", "sampling", "lambda",
                                   "alpha", "ub_confidence"]
    # A file written while the config still had stop_gap_tol (always null).
    doc["config"]["stop_gap_tol"] = None
    path.write_text(json.dumps(doc))
    loaded = read_policy(path)
    assert loaded.config == cfg
    assert (evaluate_policy_exact(case, lattice, loaded.cuts, cfg.measure)
            == evaluate_policy_exact(case, lattice, policy.cuts, cfg.measure))


def test_policy_fingerprint_mismatch(tmp_path):
    rng = np.random.default_rng(93)
    case, lattice = random_case(rng, T=2, L=2)
    policy = train(case, lattice,
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
    policy = train(case, lattice,
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


def test_policy_with_near_duplicate_cuts_loads_deduplicated(tmp_path):
    rng = np.random.default_rng(96)
    case, lattice = random_case(rng, T=3, L=2)
    policy = train(case, lattice,
                   EngineConfig(max_iterations=3, min_iterations=3,
                                batch_size=2, seed=1))
    path = tmp_path / "p.json"
    write_policy(policy, path)
    doc = json.loads(path.read_text())

    def nudged(cut):
        # The same row up to rounding: the intercept moves by 1e-12 of
        # the row's largest entry.
        grad, anchor, q = cut
        row = np.append(grad, q - np.dot(grad, anchor))
        return [grad, anchor, q + 1e-12 * np.abs(row).max()]

    # A file written under exact dedup: each cut followed by a copy that
    # differs from it only in the last digits.
    doc["pool"]["cuts"] = {key: [c for cut in cuts for c in (cut, nudged(cut))]
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
    policy = train(case, lattice,
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
    path.write_text(blob.replace('"schema_version": 1',
                                 '"schema_version": 2'))
    with pytest.raises(CorruptFile, match="unsupported schema version"):
        read_policy(path)
    # The version is the integer 1: neither true nor 1.0 stands for it.
    for version in ("true", "1.0"):
        path.write_text(blob.replace('"schema_version": 1',
                                     f'"schema_version": {version}'))
        with pytest.raises(CorruptFile, match="policy.schema_version: "
                           "expected an integer"):
            read_policy(path)


@pytest.mark.parametrize("where, spoil", [
    ((2,), lambda v: True), ((2,), repr), ((0, 0), repr),
    ((1, 0), lambda v: True),
], ids=["intercept_true", "intercept_string", "gradient_string",
        "anchor_true"])
def test_policy_cut_coefficients_are_json_numbers(where, spoil, tmp_path):
    # As in a case file, a bool or a numeric string is not a number: the
    # cut is named, and the file is refused whole. ``where`` indexes a
    # cut [gradient, anchor, intercept].
    rng = np.random.default_rng(94)
    case, lattice = random_case(rng, T=3, L=2)
    case_path = tmp_path / "case.json"
    write_case(case_path, case, lattice)
    policy = train(case, lattice,
                   EngineConfig(max_iterations=2, min_iterations=2),
                   fingerprint=parse_case(case_path).fingerprint)
    path = tmp_path / "p.json"
    write_policy(policy, path)
    assert run_cli(["evaluate", str(case_path), "--policy", str(path)]) == 0
    doc = json.loads(path.read_text())
    cuts = doc["pool"]["cuts"]["1,0"]
    holder = cuts[-1][where[0]] if len(where) == 2 else cuts[-1]
    holder[where[-1]] = spoil(holder[where[-1]])
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match=re.escape(
            f"policy.pool.cuts.1,0[{len(cuts) - 1}]: expected finite JSON "
            f"numbers")):
        read_policy(path)
    assert run_cli(["evaluate", str(case_path), "--policy", str(path)]) == 2


def test_csv_contract_and_roundtrip(tmp_path):
    rng = np.random.default_rng(95)
    case, lattice = random_case(rng, T=3, L=2)
    cfg = EngineConfig(max_iterations=4, min_iterations=4, batch_size=2,
                       seed=2, measure=RiskMeasure(lam=1.0, alpha=0.5),
                       sampler_mode=SamplerMode.ALTERNATING)
    log = train(case, lattice, cfg).bounds
    text = bounds_to_csv(log)
    header = text.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    path = tmp_path / "c.csv"
    path.write_text(text)
    rows = read_convergence_csv(path)
    assert len(rows) == len(log)
    for row, entry in zip(rows, log):
        assert row["iteration"] == entry.iteration
        assert row["lower_bound"] == entry.lower_bound  # repr round trip
        assert row["ub_mean"] == entry.ub_mean
        assert row["sampler"] == entry.sampler
    # odd alternating iterations leave UB fields blank
    assert any(",,,," in line for line in text.splitlines()[1:])


@pytest.mark.parametrize("text, message", [
    ("iteration,lower_bound\n1,2.0\n", "unexpected CSV header"),
    (",".join(CSV_COLUMNS) + "\n1,2.0,,,,risk\n", "ragged CSV row"),
    (",".join(CSV_COLUMNS) + "\n", "no data rows"),
    ("", "unexpected CSV header"),
    (",".join(CSV_COLUMNS) + "\n1,nan,,,,risk,1.0\n", "malformed row"),
    (",".join(CSV_COLUMNS) + "\n1,2.0,inf,0.5,4,risk,1.0\n", "malformed row"),
    (",".join(CSV_COLUMNS) + "\n0,2.0,,,,risk,1.0\n", "malformed row"),
    (",".join(CSV_COLUMNS) + "\n1,2.0,3.0,0.5,0,risk,1.0\n", "malformed row"),
    (",".join(CSV_COLUMNS) + "\n1,2.0,,,,bogus,1.0\n", "malformed row"),
    (",".join(CSV_COLUMNS) + "\n1,2.0,,,,risk,-5\n", "malformed row"),
], ids=["header", "ragged", "no_rows", "empty", "nan_lb", "inf_ub_mean",
        "iteration_0", "ub_samples_0", "sampler_bogus", "negative_wall_ms"])
def test_corrupt_convergence_csv(text, message, tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(text)
    with pytest.raises(CorruptFile, match=message):
        read_convergence_csv(path)


def test_csv_text_is_pinned():
    # studies/digest.py drops wall_ms, so this pins its format: repr
    # of a float, 1.0 and not 1, and empty cells for the UB fields.
    bounds = [BoundsEntry(1, np.float64(12.5), None, None, None, "risk", 1.0),
              BoundsEntry(2, np.float64(0.1) + np.float64(0.2), 14.75, 0.125,
                          4, "uniform", 1.0)]
    assert bounds_to_csv(bounds) == (
        "iteration,lower_bound,ub_mean,ub_stderr,ub_samples,sampler,wall_ms\n"
        "1,12.5,,,,risk,1.0\n"
        "2,0.30000000000000004,14.75,0.125,4,uniform,1.0\n")


def test_demo_fingerprint_is_pinned():
    # A policy trained on the demo case keeps loading against it only
    # while the canonical document of the case keeps its bytes.
    demo = Path(__file__).resolve().parent.parent / "cases" / "demo.json"
    assert parse_case(demo).fingerprint == (
        "c118731cb61639049de58e24a8f29a8742856c680551ff6112b42ba3cd52eb17")
