"""End-to-end CLI behavior: subcommands, outputs, exit codes."""

import json
import os

import numpy as np
import pytest

from casegen import random_case
from hydrosddp.caseio import (
    CyclicCascade,
    DanglingReference,
    SchemaError,
    parse_case_data,
    read_convergence_csv,
)
from hydrosddp.cli import run_cli
from hydrosddp.hydro import Bus, SystemCase, Thermal
from hydrosddp.risk import RiskMeasure
from hydrosddp.scenario import Lattice, NoiseRealization
from oracles import write_case
from test_caseio import hydro_case_dict, minimal_case_dict


@pytest.fixture
def mini_case(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(minimal_case_dict()))
    return path


@pytest.fixture
def closed_form_case(tmp_path):
    """Two-stage stochastic-demand case whose pure-CVaR optimum is 3."""
    case = SystemCase(
        buses=(Bus("b1", (0.0, 4.0)),),
        thermals=(Thermal("t1", "b1", 1.0, 8.0),),
        deficit_cost=10.0)
    lattice = Lattice(2, 2, NoiseRealization(),
                      [[NoiseRealization(demand={"b1": 1.0}),
                        NoiseRealization(demand={"b1": 3.0})]])
    path = tmp_path / "closed.json"
    write_case(path, case, lattice, risk=RiskMeasure(lam=1.0, alpha=0.5))
    return path


@pytest.fixture
def tiny_hydro_case(tmp_path):
    rng = np.random.default_rng(2024)
    case, lattice = random_case(rng, T=3, L=2, n_hydro=1, n_thermal=2,
                                max_lag=0)
    path = tmp_path / "tiny.json"
    write_case(path, case, lattice, risk=RiskMeasure(lam=0.5, alpha=0.5),
               engine={"max_iterations": 25, "min_iterations": 25,
                       "batch_size": 2, "seed": 11, "sampling": "risk"})
    return path


def test_solve_writes_run_outputs(mini_case, tmp_path, capsys):
    outdir = tmp_path / "run"
    code = run_cli(["solve", str(mini_case), "--iters", "3",
                    "--min-iters", "3", "--out", str(outdir)])
    assert code == 0
    rows = read_convergence_csv(outdir / "convergence.csv")
    assert len(rows) == 3
    lbs = [r["lower_bound"] for r in rows]
    assert all(lbs[i + 1] >= lbs[i] - 1e-9 for i in range(2))
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["iterations"] == 3
    assert summary["lower_bound"] == pytest.approx(20.0, abs=1e-8)
    assert (outdir / "policy.json").exists()
    assert "lower bound" in capsys.readouterr().out


def test_detequiv_prints_closed_form(closed_form_case, capsys):
    assert run_cli(["detequiv", str(closed_form_case)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("3.0000")
    assert float(out) == pytest.approx(3.0, abs=1e-6)
    # risk-neutral override: mean of {1, 3}
    assert run_cli(["detequiv", str(closed_form_case), "--lambda", "0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.0, abs=1e-6)


def test_solve_evaluate_detequiv_round_trip(tiny_hydro_case, tmp_path, capsys):
    outdir = tmp_path / "run"
    assert run_cli(["solve", str(tiny_hydro_case), "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert run_cli(["detequiv", str(tiny_hydro_case)]) == 0
    exact = float(capsys.readouterr().out)
    assert run_cli(["evaluate", str(tiny_hydro_case), "--policy",
                    str(outdir / "policy.json")]) == 0
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(exact, rel=1e-5)


def test_simulate_reports_mean(tiny_hydro_case, tmp_path, capsys):
    outdir = tmp_path / "run"
    assert run_cli(["solve", str(tiny_hydro_case), "--iters", "5",
                    "--min-iters", "5", "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert run_cli(["simulate", str(tiny_hydro_case), "--policy",
                    str(outdir / "policy.json"), "--paths", "40",
                    "--seed", "3", "--sampling", "uniform"]) == 0
    out = capsys.readouterr().out
    assert "mean" in out and "stderr" in out and "uniform" in out


def test_plot_emits_svg(mini_case, tmp_path, capsys):
    outdir = tmp_path / "run"
    run_cli(["solve", str(mini_case), "--iters", "4", "--min-iters", "4",
             "--paths", "3", "--out", str(outdir)])
    assert run_cli(["plot", str(outdir)]) == 0
    svg = (outdir / "convergence.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg and "circle" in svg and svg.rstrip().endswith("</svg>")


def test_policy_case_mismatch_is_data_error(tiny_hydro_case, mini_case,
                                            tmp_path, capsys):
    outdir = tmp_path / "run"
    run_cli(["solve", str(tiny_hydro_case), "--iters", "2", "--min-iters",
             "2", "--out", str(outdir)])
    code = run_cli(["evaluate", str(mini_case), "--policy",
                    str(outdir / "policy.json")])
    assert code == 2
    assert "fingerprint" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    assert run_cli([]) == 1                      # no subcommand
    assert run_cli(["solve"]) == 1               # missing case argument
    assert run_cli(["frobnicate", "x"]) == 1     # unknown subcommand
    assert run_cli(["solve", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["solve", str(bad)]) == 2
    doc = minimal_case_dict()
    doc["surprise"] = True
    weird = tmp_path / "weird.json"
    weird.write_text(json.dumps(doc))
    assert run_cli(["detequiv", str(weird)]) == 2
    capsys.readouterr()


def _bad_reference(kind):
    """A case document with one dangling reference or cycle of `kind`."""
    doc = hydro_case_dict()
    system = doc["system"]
    if kind == "line":
        system["lines"] = [{"from": "b1", "to": "nowhere", "capacity": 1.0}]
    elif kind == "thermal":
        system["thermals"][0]["bus"] = "nowhere"
    elif kind == "hydro":
        system["hydros"][0]["bus"] = "nowhere"
    elif kind == "renewable":
        system["renewables"] = [{"name": "w1", "bus": "nowhere"}]
    elif kind == "upstream":
        system["hydros"][0]["upstream"] = ["nowhere"]
    elif kind == "repeated":
        system["hydros"].append(dict(system["hydros"][0], name="h2",
                                     upstream=["h1", "h1"]))
        lattice = doc["lattice"]
        for noise in [lattice["stage1"], *lattice["noises"][0]]:
            noise["inflows"]["h2"] = noise["inflows"]["h1"]
    else:
        system["hydros"][0]["upstream"] = ["h1"]
    return doc


@pytest.mark.parametrize("kind, error, message", [
    ("line", DanglingReference, "system.lines[0]: unknown bus 'nowhere'"),
    ("thermal", DanglingReference, "system.thermals[0]: unknown bus 'nowhere'"),
    ("hydro", DanglingReference, "system.hydros[0]: unknown bus 'nowhere'"),
    ("renewable", DanglingReference,
     "system.renewables[0]: unknown bus 'nowhere'"),
    ("upstream", DanglingReference,
     "system.hydros[0].upstream: unknown hydro 'nowhere'"),
    ("cycle", CyclicCascade, "system.hydros[0].upstream: cascade cycle h1 -> h1"),
    ("repeated", SchemaError, "system: hydros[1].upstream: repeated hydro 'h1'"),
])
def test_bad_references_exit_2_with_field_path(kind, error, message,
                                               tmp_path, capsys):
    doc = _bad_reference(kind)
    with pytest.raises(error) as exc:
        parse_case_data(doc)
    assert str(exc.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["detequiv", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("upstream", [5, "h1", [1]])
def test_malformed_upstream_exits_2_with_field_path(upstream, tmp_path,
                                                    capsys):
    doc = hydro_case_dict()
    doc["system"]["hydros"][0]["upstream"] = upstream
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["detequiv", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: system.hydros[0].upstream: "
                   "expected a list of strings\n")
    assert "Traceback" not in err


def _out_of_range(kind):
    """A case document with one value out of `SystemCase`'s range."""
    doc = hydro_case_dict()
    system = doc["system"]
    if kind == "line":
        system["buses"].append({"name": "b2", "demand": [1.0, 1.0]})
        system["lines"] = [{"from": "b1", "to": "b2", "capacity": -1.0}]
    elif kind == "hydro_capacity":
        system["hydros"][0]["max_turbine"] = -1.0
    elif kind == "initial_storage":
        system["hydros"][0]["initial_storage"] = 11.0
    elif kind == "lags":
        system["hydros"][0]["initial_lags"] = [2.0, 1.0]
    elif kind == "thermal":
        system["thermals"].append(dict(system["thermals"][0], name="t2",
                                       cap=-1.0))
    elif kind == "initial_state":
        doc["initial_state"] = {"storages": {"h1": 50.0}}
    elif kind == "demand":
        system["buses"][0]["demand"] = [10.0, -1.0]
    else:
        system["deficit_cost"] = 1.0
    return doc


@pytest.mark.parametrize("kind, message", [
    ("line", "system: lines[0]: negative capacity"),
    ("hydro_capacity", "system: hydros[0]: negative capacity"),
    ("initial_storage", "system: hydros[0]: initial storage out of bounds"),
    ("lags", "system: hydros[0]: needs 1 initial lags"),
    ("thermal", "system: thermals[1]: negative data"),
    ("initial_state", "initial_state.storages.h1: out of bounds [0, 10.0]"),
    ("demand", "system: buses[0]: negative demand"),
    ("deficit", "system: deficit_cost: must exceed thermals[0].cost"),
])
def test_out_of_range_data_exits_2_with_field_path(kind, message, tmp_path,
                                                   capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_out_of_range(kind)))
    assert run_cli(["detequiv", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["thermals", "renewables"])
def test_duplicate_names_exit_2(kind, tmp_path, capsys):
    # A repeated name would share one dispatch column between two entries
    # and count it twice in its bus balance.
    demo = os.path.join(os.path.dirname(__file__), "..", "cases", "demo.json")
    with open(demo, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["system"][kind].append(dict(doc["system"][kind][0]))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["detequiv", str(path)]) == 2
    assert (capsys.readouterr().err
            == f"error: system: {kind}: duplicate names\n")


@pytest.mark.parametrize("key, value, message", [
    ("thermals", 5, "system.thermals: expected a list"),
    ("hydros", None, "system.hydros: expected a list"),
    ("buses", {"b1": [10.0, 12.0]}, "system.buses: expected a list"),
    ("deficit_cost", "x",
     "system.deficit_cost: expected a finite number, got 'x'"),
])
def test_malformed_system_exits_2_with_field_path(key, value, message,
                                                  tmp_path, capsys):
    doc = hydro_case_dict()
    doc["system"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["detequiv", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_infeasible_case_exits_3_from_solve_and_detequiv(tmp_path, capsys):
    # An inflow that drains the reservoir below empty leaves no feasible
    # dispatch; the stage LPs and the tree LP report it alike.
    doc = hydro_case_dict()
    doc["lattice"]["stage1"]["inflows"]["h1"] = -100.0
    path = tmp_path / "dry.json"
    path.write_text(json.dumps(doc))
    for argv in (["solve", str(path), "--out", str(tmp_path / "run")],
                 ["detequiv", str(path)]):
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("engine, argv, message", [
    ({"max_iterations": True}, ["detequiv"],
     "engine.max_iterations: expected an integer, got True"),
    ({"max_iterations": "x"}, ["detequiv"],
     "engine.max_iterations: expected an integer, got 'x'"),
    ({"min_iterations": 5, "max_iterations": 3}, ["detequiv"],
     "engine.min_iterations must be in [1, max_iterations]"),
    ({"batch_size": 0}, ["detequiv"], "engine.batch_size must be at least 1"),
    ({"ub_confidence": -1}, ["detequiv"],
     "engine.ub_confidence must be nonnegative"),
    ({"seed": -1}, ["detequiv"], "engine.seed must be nonnegative"),
    ({"stop_gap_tol": 0.1}, ["detequiv"],
     "engine: unknown key(s) ['stop_gap_tol']"),
    (None, ["solve", "--iters", "0"],
     "command line.max_iterations must be at least 1"),
    (None, ["solve", "--paths", "0"],
     "command line.batch_size must be at least 1"),
    (None, ["solve", "--seed", "-1"], "command line.seed must be nonnegative"),
    (None, ["solve", "--alpha", "1"], "command line.alpha must be in [0, 1)"),
    (None, ["detequiv", "--lambda", "2"],
     "command line.lambda must be in [0, 1], got 2.0"),
    (None, ["simulate", "--paths", "0"],
     "command line.batch_size must be at least 1"),
    (None, ["simulate", "--seed", "-1"],
     "command line.seed must be nonnegative"),
])
def test_bad_run_settings_exit_2_with_field_path(engine, argv, message,
                                                 tmp_path, capsys):
    doc = hydro_case_dict()
    if engine is not None:
        doc["engine"] = engine
    case = tmp_path / "case.json"
    case.write_text(json.dumps(doc))
    command, flags = argv[0], argv[1:]
    if command == "simulate":
        assert run_cli(["solve", str(case), "--iters", "1",
                        "--out", str(tmp_path / "run")]) == 0
        flags += ["--policy", str(tmp_path / "run" / "policy.json")]
    capsys.readouterr()
    assert run_cli([command, str(case)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_policy_with_bad_config_exits_2(tmp_path, capsys):
    case = tmp_path / "case.json"
    case.write_text(json.dumps(hydro_case_dict()))
    outdir = tmp_path / "run"
    assert run_cli(["solve", str(case), "--iters", "1",
                    "--out", str(outdir)]) == 0
    policy = outdir / "policy.json"
    doc = json.loads(policy.read_text())
    doc["config"]["seed"] = "x"
    policy.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["evaluate", str(case), "--policy", str(policy)]) == 2
    assert capsys.readouterr().err == (
        f"error: {policy}: malformed policy file "
        f"(config.seed: expected an integer, got 'x')\n")


def test_policy_pool_that_does_not_fit_the_case_exits_2(tmp_path, capsys):
    case = tmp_path / "case.json"
    case.write_text(json.dumps(hydro_case_dict()))
    outdir = tmp_path / "run"
    assert run_cli(["solve", str(case), "--iters", "2",
                    "--out", str(outdir)]) == 0
    policy = outdir / "policy.json"
    doc = json.loads(policy.read_text())
    doc["pool"]["num_openings"] = 1
    del doc["pool"]["cuts"]["1,1"]
    policy.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("evaluate", "simulate"):
        assert run_cli([command, str(case), "--policy", str(policy)]) == 2
        assert capsys.readouterr().err == (
            "error: cut pool of (stages, openings, state dimension) "
            "(2, 1, 2) does not fit the case's (2, 2, 2)\n")


def test_plot_of_non_numeric_csv_exits_2(tmp_path, capsys):
    (tmp_path / "convergence.csv").write_text(
        "iteration,lower_bound,ub_mean,ub_stderr,ub_samples,sampler,wall_ms\n"
        "x,y,,,,risk,1.0\n")
    assert run_cli(["plot", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-numeric" in err
    assert not (tmp_path / "convergence.svg").exists()


def test_flags_override_case_defaults(closed_form_case, tmp_path):
    # The case file says lambda=1/alpha=0.5; flags must win.
    outdir = tmp_path / "run"
    assert run_cli(["solve", str(closed_form_case), "--iters", "4",
                    "--min-iters", "4", "--lambda", "0", "--seed", "5",
                    "--sampling", "uniform", "--out", str(outdir)]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["lambda"] == 0.0
    assert summary["sampler"] == "uniform"
    assert summary["iterations"] == 4
    # risk-neutral optimum of the demand pair {1, 3} is its mean
    assert summary["lower_bound"] == pytest.approx(2.0, abs=1e-7)


def test_solve_reports_dropped_duplicate_cuts(closed_form_case, tmp_path,
                                              capsys):
    # No state to carry: every backward pass yields the same two
    # constant cuts, so after the first pass all cuts are duplicates.
    outdir = tmp_path / "run"
    assert run_cli(["solve", str(closed_form_case), "--iters", "4",
                    "--min-iters", "4", "--seed", "5",
                    "--out", str(outdir)]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["cut_count"] == 2
    assert summary["duplicate_cuts"] == 4
    assert "2 cuts (4 duplicates dropped)" in capsys.readouterr().out
    # Three distinct stage LPs before the first cuts land, one more for
    # stage 1 once they do; every later call is answered by the memo.
    assert summary["stage_solves"] == 4
    assert summary["reused_solves"] == 10
    # Simplex iterations per phase of those four stage LPs.
    assert (summary["phase1_pivots"], summary["phase2_pivots"]) == (5, 1)


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_shipped_demo_case_round_trip(tmp_path, capsys):
    # Pins the README quickstart: the demo case must train to the exact
    # tree objective with its embedded engine defaults.
    demo = os.path.join(os.path.dirname(__file__), "..", "cases", "demo.json")
    outdir = tmp_path / "demo-run"
    assert run_cli(["solve", demo, "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert run_cli(["detequiv", demo]) == 0
    exact = float(capsys.readouterr().out)
    assert run_cli(["evaluate", demo, "--policy",
                    str(outdir / "policy.json")]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(exact, rel=1e-5)
    assert run_cli(["plot", str(outdir)]) == 0
    assert (outdir / "convergence.svg").exists()


def test_cli_determinism_modulo_wall(mini_case, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        outdir = tmp_path / name
        run_cli(["solve", str(mini_case), "--iters", "3", "--min-iters", "3",
                 "--paths", "2", "--seed", "9", "--out", str(outdir)])
        text = (outdir / "convergence.csv").read_text()
        outs.append("\n".join(line.rsplit(",", 1)[0]
                              for line in text.splitlines()))
    assert outs[0] == outs[1]
