"""The summary of tools/bench_pairs.py on fixed numbers; the benchmark
itself is never run here."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_of_five_pairs():
    parent = [1.0, 1.2, 0.9, 1.1, 1.4]
    change = [0.8, 1.2, 0.7, 0.9, 1.5]
    s = bench_pairs.summarize(parent, change)
    assert s["pairs"] == [[1.0, 0.8], [1.2, 1.2], [0.9, 0.7], [1.1, 0.9], [1.4, 1.5]]
    # inclusive quartiles of 0.9 1.0 1.1 1.2 1.4 and of 0.7 0.8 0.9 1.2 1.5
    assert s["parent"] == pytest.approx({"median": 1.1, "q1": 1.0, "q3": 1.2})
    assert s["change"] == pytest.approx({"median": 0.9, "q1": 0.8, "q3": 1.2})
    assert s["median_change"] == pytest.approx(0.9 / 1.1 - 1)
    # the tie in pair 1 counts for neither side
    assert s["lower"] == "3 of 5"
    s = bench_pairs.summarize([2.0, 2.0, 2.0], [3.0, 1.0, 2.5])
    assert s["lower"] == "1 of 3"
    assert s["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}


def test_summary_of_one_pair_and_of_mismatched_sides():
    s = bench_pairs.summarize([1.0], [0.5])
    assert s["change"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert s["lower"] == "1 of 1"
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [])


def _stdout(cpus, sha, check_s):
    record = {"workload": "rdsqs112", "seed": 7, "nproc": 2, "cpus_usable": cpus,
              "output_sha256": sha, "attempted": 9, "failed": 0}
    result = {"correct": True, "attempted": 9, "failed": 0,
              "metrics": {"check_s": {"value": check_s, "unit": "s"}}}
    return f"run record: {json.dumps(record)}\n{json.dumps(result)}\n"


def test_each_run_keeps_its_usable_cpus_and_output_sha256():
    record, result = bench_pairs.parse_run(_stdout(2, "ab", 0.9))
    assert record["cpus_usable"] == 2 and record["output_sha256"] == "ab"
    assert result["metrics"]["check_s"]["value"] == 0.9
    with pytest.raises(ValueError):
        bench_pairs.parse_run(json.dumps(result) + "\n")
    with pytest.raises(ValueError):
        bench_pairs.parse_run(_stdout(2, "ab", 0.9).splitlines()[0] + "\n")
    metrics = [{"name": "check_s", "unit": "s", "better": "lower", "bound": 0.25}]
    runs = {
        "parent": [bench_pairs.parse_run(_stdout(2, "ab", 1.0)),
                   bench_pairs.parse_run(_stdout(2, "cd", 1.1))],
        "change": [bench_pairs.parse_run(_stdout(1, "ab", 0.8)),
                   bench_pairs.parse_run(_stdout(2, "cd", 0.9))],
    }
    entry = bench_pairs.collect([7, 8], runs, metrics)
    assert entry["cpus_usable"] == {"parent": [2, 2], "change": [1, 2]}
    assert entry["output_sha256"] == {"parent": ["ab", "cd"], "change": ["ab", "cd"]}
    assert entry["failed"] == {"parent": [[0, 9], [0, 9]], "change": [[0, 9], [0, 9]]}
    assert entry["metrics"]["check_s"]["lower"] == "2 of 2"
    assert bench_pairs.differing_outputs(entry) == []
    runs["change"][1] = bench_pairs.parse_run(_stdout(2, "ef", 0.9))
    assert bench_pairs.differing_outputs(bench_pairs.collect([7, 8], runs, metrics)) == [1]


def test_a_workload_without_an_output_sha256_never_differs():
    record = {"cpus_usable": 2}
    result = {"failed": 0, "attempted": 3, "metrics": {"check_s": {"value": 0.01}}}
    metrics = [{"name": "check_s", "unit": "s", "better": "lower", "bound": 0.25}]
    entry = bench_pairs.collect([1], {"parent": [(record, result)], "change": [(record, result)]},
                                metrics)
    assert "output_sha256" not in entry
    assert bench_pairs.differing_outputs(entry) == []
