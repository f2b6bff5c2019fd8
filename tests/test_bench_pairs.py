"""The summary of tools/bench_pairs.py on fixed numbers; the benchmark
itself is never run here."""

import importlib.util
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
