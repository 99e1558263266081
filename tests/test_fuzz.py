"""Fuzzed case and policy files: the readers return, or raise their own
data error, for any JSON value in any run-setting key, at any place in a
case's system, lattice and initial state, and at any place in a
policy's pool, fingerprint and bounds."""

import copy
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from casegen import random_case  # noqa: E402
from hydrosddp.caseio import (  # noqa: E402
    CorruptFile,
    FingerprintMismatch,
    SchemaError,
    bounds_to_csv,
    case_to_dict,
    config_from_dict,
    config_to_dict,
    parse_case_data,
    read_policy,
    write_policy,
)
from hydrosddp.engine import EngineConfig, train  # noqa: E402
from test_caseio import minimal_case_dict  # noqa: E402

ENGINE_KEYS = ("max_iterations", "min_iterations", "batch_size", "seed",
               "sampling", "ub_confidence")
RISK_KEYS = ("lambda", "alpha")

# Unbounded integers and non-finite floats included, plus explicit
# integers beyond the float range; derandomized so the suite runs the
# same examples every time.
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
JSON_VALUES = SCALARS | st.lists(SCALARS, max_size=3)
FUZZ = settings(max_examples=100, deadline=None, database=None,
                derandomize=True)


def assert_well_typed(config):
    """What a reader accepts is a config the reader accepts again."""
    assert config_from_dict(config_to_dict(config), "config") == config


def paths_in(doc, prefix=()):
    """The key path of every value under ``doc``, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    found = []
    for key, value in items:
        found.append(prefix + (key,))
        found += paths_in(value, prefix + (key,))
    return found


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` set to ``value``."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# Two buses and a line, two thermals, two hydros with an inflow lag and a
# renewable, so every entity list of the system has entries to fuzz.
CASE = json.loads(json.dumps(case_to_dict(*random_case(
    np.random.default_rng(4), T=2, L=2, n_hydro=2, n_thermal=2, max_lag=1,
    with_renewable=True, two_bus=True))))
CASE_PATHS = [path for path in paths_in(CASE)
              if path[0] in ("system", "lattice", "initial_state")]


@FUZZ
@given(engine=st.dictionaries(st.sampled_from(ENGINE_KEYS), JSON_VALUES),
       risk=st.dictionaries(st.sampled_from(RISK_KEYS), JSON_VALUES))
@example(engine={"ub_confidence": 10 ** 400}, risk={"lambda": -10 ** 400})
def test_case_settings_parse_or_raise_schema_error(engine, risk):
    doc = minimal_case_dict()
    doc["engine"], doc["risk"] = engine, risk
    try:
        config = parse_case_data(doc).config
    except SchemaError:
        return
    assert_well_typed(config)


@settings(FUZZ, max_examples=400)
@given(path=st.sampled_from(CASE_PATHS), value=JSON_VALUES)
@example(path=("system", "thermals"), value=5)
@example(path=("system", "hydros"), value=None)
@example(path=("system", "buses"), value={"b1": [1.0, 2.0]})
@example(path=("system", "deficit_cost"), value="x")
@example(path=("system", "buses", 0, "demand", 1), value=-1.0)
@example(path=("system", "thermals", 1, "name"), value="t1")
@example(path=("system", "renewables"),
         value=[{"name": "w1", "bus": "b1"}, {"name": "w1", "bus": "b2"}])
def test_case_data_parses_or_raises_schema_error(path, value):
    try:
        parsed = parse_case_data(replaced(CASE, path, value))
    except SchemaError:
        return
    # What the reader accepts, it accepts again as written back.
    again = parse_case_data(case_to_dict(parsed.system, parsed.lattice))
    assert again.fingerprint == parsed.fingerprint


@pytest.fixture(scope="module")
def saved_policy(tmp_path_factory):
    case, lattice = random_case(np.random.default_rng(98), T=2, L=2)
    policy = train(case, lattice,
                   EngineConfig(max_iterations=2, min_iterations=2))
    path = tmp_path_factory.mktemp("fuzz") / "policy.json"
    write_policy(policy, path)
    return path


@FUZZ
@given(config=st.dictionaries(
    st.sampled_from(ENGINE_KEYS + RISK_KEYS + ("stop_gap_tol",)),
    JSON_VALUES, min_size=1))
@example(config={"alpha": 10 ** 400})
def test_policy_config_loads_or_raises_corrupt_file(saved_policy, config):
    doc = json.loads(saved_policy.read_text())
    doc["config"].update(config)
    path = saved_policy.with_name("fuzzed.json")
    path.write_text(json.dumps(doc))
    try:
        config = read_policy(path).config
    except CorruptFile:
        return
    assert_well_typed(config)


# The fingerprint and every place in the pool of the saved policy: its
# dimensions, the cut lists, and the first cut at (1, 0) down to single
# coefficients; and its bounds, down to each field of the first row.
CUT = ("pool", "cuts", "1,0", 0)
POLICY_PATHS = [("fingerprint",), ("pool",), ("pool", "num_stages"),
                ("pool", "num_openings"), ("pool", "state_dim"),
                ("pool", "cuts"), ("pool", "cuts", "1,0"), CUT,
                CUT + (0,), CUT + (0, 1), CUT + (1,), CUT + (1, 0),
                CUT + (2,), ("bounds",), ("bounds", 0),
                *[("bounds", 0, k) for k in range(7)]]


@FUZZ
@given(path=st.sampled_from(POLICY_PATHS), value=JSON_VALUES)
@example(path=("pool", "cuts"), value=[])
@example(path=("fingerprint",), value=5)
@example(path=("pool", "num_stages"), value=10 ** 12)
@example(path=CUT + (0,), value=[1e308, 1e308])
@example(path=("bounds", 0), value=["x", None, 1, 2, 3, 4, 5])
@example(path=("bounds", 0, 6), value=-1.0)
def test_policy_pool_loads_or_raises_corrupt_file(saved_policy, path, value):
    path_out = saved_policy.with_name("fuzzed.json")
    path_out.write_text(json.dumps(
        replaced(json.loads(saved_policy.read_text()), path, value)))
    try:
        policy = read_policy(path_out)
    except CorruptFile:
        return
    with pytest.raises(FingerprintMismatch):
        read_policy(path_out, policy.fingerprint + "-other")
    # What the reader accepts, it accepts again as written back.
    again_path = saved_policy.with_name("again.json")
    write_policy(policy, again_path)
    again = read_policy(again_path)
    assert cut_rows(again.cuts) == cut_rows(policy.cuts)
    assert again.bounds == policy.bounds
    assert bounds_to_csv(again.bounds) == bounds_to_csv(policy.bounds)


def cut_rows(pool):
    return [(key, [(c.gradient.tolist(), c.offset) for c in cuts])
            for key, cuts in pool.items()]
