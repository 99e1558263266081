"""Self-tests of the benchmark: declared metrics, generator determinism,
reference checks, and refusal to run without the program.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, cases, reference, spans, workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_case():
    """The deep-train case cut to 3 stages: a 7-node tree."""
    doc = cases.deep_case(7)
    doc["system"]["buses"][0]["demand"] = doc["system"]["buses"][0]["demand"][:3]
    doc["lattice"]["stages"] = 3
    doc["lattice"]["noises"] = doc["lattice"]["noises"][:2]
    return doc


def small_optimum(tmp_path):
    from hydrosddp.caseio import parse_case
    from hydrosddp.treelp import tree_objective

    path = tmp_path / "small.json"
    path.write_text(cases.dumps(small_case()), encoding="utf-8")
    parsed = parse_case(str(path))
    return tree_objective(parsed.system, parsed.lattice, parsed.risk)


def run_small(tmp_path, trace, optimum):
    return bench.measure(workloads.WORKLOADS["tree-oracle"], seed=1,
                         seconds=0, trace=trace, workdir=tmp_path / "work",
                         case_doc=small_case(),
                         reference={"optimum": optimum})


def test_benchmark_json_matches_the_code():
    assert DECLARED["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in bench.END_TO_END]
    assert DECLARED["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in bench.PER_LAYER]
    assert DECLARED["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(tmp_path, trace, section):
    record = run_small(tmp_path, trace, small_optimum(tmp_path))
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * 2   # two cycles of command + check
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    json.dumps(result)   # the result line must serialise


def test_generator_gives_the_same_case_for_the_same_seed():
    for shape, make in cases.SHAPES.items():
        assert cases.dumps(make(7)) == cases.dumps(make(7))
        assert make(7) != make(8)
    recorded = bench.load_references()
    for shape, seeds in reference.CASE_SEEDS.items():
        for seed in seeds:
            doc = cases.SHAPES[shape](seed)
            assert cases.digest(doc) == recorded[shape][str(seed)]["case_sha256"]


def test_wrong_reference_is_reported_as_failed(tmp_path):
    optimum = small_optimum(tmp_path)
    record = run_small(tmp_path, 0, optimum * (1 + 1e-6))
    assert record["result"]["failed"] == 2
    assert not record["result"]["correct"]


def test_high_percentile_keeps_ten_samples_beyond_it():
    assert spans.high_percentile(list(range(1000)))[0] == 99.0
    assert spans.high_percentile(list(range(100)))[0] == 90.0
    assert spans.high_percentile(list(range(20)))[0] == 50.0
    assert spans.high_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_recorded_optimum_matches_highs(tmp_path):
    pytest.importorskip("scipy")
    ref = reference.compute("wide", 1, tmp_path)
    recorded = bench.load_references()["wide"]["1"]["optimum"]
    assert ref["rel_diff"] <= 1e-9
    assert abs(ref["optimum"] - recorded) <= 1e-12 * abs(recorded)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
