"""Fuzzed run settings: the case and policy readers return, or raise
their own data error, for any JSON value in any run-setting key."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from casegen import random_case  # noqa: E402
from hydrosddp.caseio import (  # noqa: E402
    CorruptFile,
    SchemaError,
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


@pytest.fixture(scope="module")
def saved_policy(tmp_path_factory):
    case, lattice = random_case(np.random.default_rng(98), T=2, L=2)
    policy, _ = train(case, lattice,
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
