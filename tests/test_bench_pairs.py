"""The summary of tools/bench_pairs.py on fixed numbers; the benchmark
itself is never run here."""

import importlib.util
import json
import subprocess
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


def _stdout(cpus, sha, check_s, failed=0):
    record = {"workload": "rdsqs112", "seed": 7, "nproc": 2, "cpus_usable": cpus,
              "output_sha256": sha, "attempted": 9, "failed": failed}
    result = {"correct": failed == 0, "attempted": 9, "failed": failed,
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


def test_an_incorrect_run_or_a_larger_failed_share_of_the_change_is_a_fault(capsys):
    metrics = [{"name": "check_s", "unit": "s", "better": "lower", "bound": 0.25}]
    runs = {
        "parent": [bench_pairs.parse_run(_stdout(2, "ab", 1.0)),
                   bench_pairs.parse_run(_stdout(2, "cd", 1.1, failed=1))],
        "change": [bench_pairs.parse_run(_stdout(2, "ab", 0.8, failed=1)),
                   bench_pairs.parse_run(_stdout(2, "cd", 0.9))],
    }
    entry = bench_pairs.collect([7, 8], runs, metrics)
    assert entry["correct"] == {"parent": [True, False], "change": [False, True]}
    # the same failed share on both sides: only the incorrect change run counts
    assert bench_pairs.failed_share(entry["failed"]["change"]) == pytest.approx(1 / 18)
    assert bench_pairs.change_faults(entry) == ["change run of pair 0 is not correct"]
    runs["parent"][1] = bench_pairs.parse_run(_stdout(2, "cd", 1.1))
    assert bench_pairs.change_faults(bench_pairs.collect([7, 8], runs, metrics)) == [
        "change run of pair 0 is not correct",
        "change fails a larger share of operations: 0 -> 0.05556",
    ]
    assert bench_pairs.print_summary("rdsqs112", bench_pairs.collect([7, 8], runs, metrics)) == 1
    out = capsys.readouterr().out
    assert "rdsqs112: correct runs 2 -> 1 of 2, failed share 0 -> 0.05556\n" in out
    assert "rdsqs112: change run of pair 0 is not correct\n" in out
    # an incorrect parent run alone is no fault of the change
    runs["change"][0] = bench_pairs.parse_run(_stdout(2, "ab", 0.8))
    runs["parent"][0] = bench_pairs.parse_run(_stdout(2, "ab", 1.0, failed=2))
    entry = bench_pairs.collect([7, 8], runs, metrics)
    assert bench_pairs.change_faults(entry) == []
    assert bench_pairs.print_summary("rdsqs112", entry) == 0
    assert "correct runs 1 -> 2 of 2, failed share 0.1111 -> 0\n" in capsys.readouterr().out


LAYERS = [
    {"name": "quadruple.point_resolution_s", "unit": "s", "better": "lower"},
    {"name": "core.verify_resolution_s", "unit": "s", "better": "lower"},
    {"name": "resolver.nodes", "unit": "count", "better": "lower"},
]


def _traced_stdout(point_resolution_s, verify_resolution_s, correct=True):
    record = {"workload": "rdsqs112", "seed": 7, "trace": 1, "cpus_usable": 2}
    values = {"quadruple.point_resolution_s": point_resolution_s,
              "core.verify_resolution_s": verify_resolution_s, "resolver.nodes": 0}
    result = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}
    return f"run record: {json.dumps(record)}\n{json.dumps(result)}\n"


def test_traced_pairs_record_each_layer_either_side_calls(capsys):
    traced = {"parent": [bench_pairs.parse_run(_traced_stdout(p, 0.16))[1]
                         for p in (0.40, 0.50, 0.42)],
              "change": [bench_pairs.parse_run(_traced_stdout(c, 0.0))[1]
                         for c in (0.30, 0.52, 0.31)]}
    layers = bench_pairs.per_layer(traced, LAYERS)
    assert layers["correct"] == {"parent": [True] * 3, "change": [True] * 3}
    # resolver.nodes reads 0 in every run: a layer the workload does not call
    assert list(layers["metrics"]) == ["quadruple.point_resolution_s", "core.verify_resolution_s"]
    moved = layers["metrics"]["quadruple.point_resolution_s"]
    assert moved["pairs"] == [[0.40, 0.30], [0.50, 0.52], [0.42, 0.31]]
    assert moved["parent"]["median"] == 0.42 and moved["change"]["median"] == 0.31
    assert moved["median_change"] == pytest.approx(0.31 / 0.42 - 1)
    assert moved["lower"] == "2 of 3"
    assert moved["unit"] == "s" and moved["better"] == "lower"
    assert layers["metrics"]["core.verify_resolution_s"]["median_change"] == -1
    # a layer only the change calls has no relative change
    swapped = bench_pairs.per_layer({"parent": traced["change"], "change": traced["parent"]}, LAYERS)
    assert swapped["metrics"]["core.verify_resolution_s"]["median_change"] is None

    metrics = [{"name": "check_s", "unit": "s", "better": "lower", "bound": 0.25}]
    runs = {"parent": [bench_pairs.parse_run(_stdout(2, "ab", 1.0))],
            "change": [bench_pairs.parse_run(_stdout(2, "ab", 0.8))]}
    entry = bench_pairs.collect([7], runs, metrics)
    entry["per_layer"] = layers
    assert bench_pairs.change_faults(entry) == []
    assert bench_pairs.print_summary("rdsqs112", entry) == 0
    out = capsys.readouterr().out
    assert "rdsqs112 quadruple.point_resolution_s (traced): 0.42 -> 0.31, lower in 2 of 3\n" in out
    assert "rdsqs112 core.verify_resolution_s (traced): 0.16 -> 0, lower in 3 of 3\n" in out
    assert "resolver.nodes" not in out
    # a traced change run that is not correct counts against the change
    traced["change"][1] = bench_pairs.parse_run(_traced_stdout(0.52, 0.0, correct=False))[1]
    entry["per_layer"] = bench_pairs.per_layer(traced, LAYERS)
    assert bench_pairs.change_faults(entry) == ["traced change run of pair 1 is not correct"]
    assert bench_pairs.print_summary("rdsqs112", entry) == 1


def test_traced_pairs_alternate_on_the_first_seeds(monkeypatch, tmp_path):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout.name, seed, trace))
        return {"cpus_usable": 2}, json.loads(_traced_stdout(0.3, 0.1).splitlines()[-1])

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    metrics = [{"name": "quadruple.point_resolution_s", "unit": "s", "better": "lower",
                "bound": 0.25}]
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    entry = bench_pairs.measure(sides, "rdsqs112", [5, 6, 7, 8], 1.0, metrics, LAYERS)
    traced = [c for c in calls if c[2] == 1]
    assert bench_pairs.TRACED_PAIRS == 3
    assert traced == [("parent", 5, 1), ("change", 5, 1), ("change", 6, 1), ("parent", 6, 1),
                      ("parent", 7, 1), ("change", 7, 1)]
    assert entry["per_layer"]["seeds"] == [5, 6, 7]
    assert entry["per_layer"]["metrics"]["quadruple.point_resolution_s"]["pairs"] == [[0.3, 0.3]] * 3


def test_each_run_compiles_from_source_on_either_side(monkeypatch, tmp_path):
    # no bytecode is written, and none is looked for away from the sources,
    # even where the caller set a prefix: each fresh copy compiles its
    # package from source and reads the standard library's bytecode
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        seen.append((cwd, env["PYTHONDONTWRITEBYTECODE"], "PYTHONPYCACHEPREFIX" in env))
        return subprocess.CompletedProcess(argv, 0, _stdout(2, "ab", 0.9), "")

    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "cache"))
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    sides = [tmp_path / ".bench_work" / "parent-0123456789ab", tmp_path / ".bench_work" / "change"]
    for checkout in sides:
        record, result = bench_pairs._run(checkout, "rdsqs112", 7, 1.0)
        assert record["output_sha256"] == "ab" and result["correct"]
    assert seen == [(sides[0], "1", False), (sides[1], "1", False)]


def test_the_change_runs_from_a_copy_of_its_files(monkeypatch, tmp_path):
    # tracked and untracked files are copied; ignored ones (a __pycache__),
    # deleted ones and git's own are not
    repo = tmp_path / "repo"
    (repo / "pkg" / "__pycache__").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "pkg" / "mod.py").write_text("x = 1\n")
    (repo / "pkg" / "gone.py").write_text("")
    (repo / "pkg" / "__pycache__" / "mod.cpython.pyc").write_bytes(b"stale")
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    (repo / "pkg" / "gone.py").unlink()
    (repo / "new.py").write_text("y = 2\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    dest = tmp_path / "change"
    bench_pairs.copy_worktree(dest)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "new.py", "pkg/mod.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "x = 1\n"
