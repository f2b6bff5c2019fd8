"""Alternating parent/change pairs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py PARENT_REV --workload W [--workload W ...]
        --pairs N --seconds S --out BENCH_<n>.json

The files of the parent revision are extracted with ``git archive`` under
``.bench_work/``, the files of this working tree (tracked, and untracked but
not ignored) are copied there too, and both are removed again at the end.
For each workload, pair i runs ``bench/run.py --workload W --seed K+i
--seconds S`` once in each copy, the parent first when i is even.  The seeds
K+i start at a fresh random base K, so a claim is not measured on the seeds
a change was tuned on.  Every run starts with ``PYTHONDONTWRITEBYTECODE=1``
and without ``PYTHONPYCACHEPREFIX``: neither copy holds a ``__pycache__``,
so both sides compile the package from source, as the benchmark's fresh
checkouts do, and both read the standard library's bytecode.

For every end-to-end metric of ``BENCHMARK.json`` the file holds the
per-pair values, each side's median [Q1, Q3] and "lower in k of N" (ties
count for neither side); with the seeds, ``nproc``, the Python version and
each run's verdict (``correct``) and attempted and failed operations.  From
each run's ``run record:`` line it keeps ``cpus_usable`` and, where the
workload states one, ``output_sha256``, per side.  The command exits 1 if
the two runs of a pair wrote different outputs, if a run of the change is
not correct, or if the change fails a larger share of its operations than
the parent.  An existing file keeps the workloads this run
does not measure, so one file can collect several runs.

After a workload's pairs, ``TRACED_PAIRS`` alternating pairs of
``bench/run.py --trace 1`` runs, on the first pairs' seeds, record the
per-layer metrics of ``BENCHMARK.json`` under ``per_layer``: for every layer
either side calls (a layer a workload does not call reads 0 on both), its
pairs, each side's median [Q1, Q3] and "lower in k of N", so the pairs show
which layer moved.  A traced run of the change that is not correct counts
against it as an untraced one does.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
RECORD = "run record: "
# the fields of a run record the file keeps
KEPT = ("cpus_usable", "output_sha256")
# alternating traced pairs per workload, for the per-layer metrics
TRACED_PAIRS = 3


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, Q1 and Q3 (inclusive method) of at least one value."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: list[float], change: list[float]) -> dict:
    """One metric over N pairs, parent[i] and change[i] having run as pair
    i: the pairs, each side's quartiles, the relative change of the median
    and the number of pairs in which the change is strictly lower."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of parent and change values, at least one")
    before, after = quartiles(parent), quartiles(change)
    return {
        "pairs": [[p, c] for p, c in zip(parent, change)],
        "parent": before,
        "change": after,
        "median_change": after["median"] / before["median"] - 1 if before["median"] else None,
        "lower": f"{sum(c < p for p, c in zip(parent, change))} of {len(parent)}",
    }


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(run record, result) of one ``bench/run.py`` stdout: the JSON of its
    one ``run record:`` line and of its last line."""
    lines = stdout.strip().splitlines()
    records = [line[len(RECORD):] for line in lines if line.startswith(RECORD)]
    if len(records) != 1 or lines[-1].startswith(RECORD):
        raise ValueError("expected one run record line, then the result line")
    return json.loads(records[0]), json.loads(lines[-1])


def _run(checkout: Path, workload: str, seed: int, seconds: float,
         trace: int = 0) -> tuple[dict, dict]:
    """(run record, result) of one ``bench/run.py`` run in ``checkout``.

    The run writes no bytecode and looks for it beside the sources, so the
    fresh copy's package compiles from source and the standard library's
    bytecode is used.
    """
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env,
                          timeout=10 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return parse_run(proc.stdout)


def collect(seeds: list[int], runs: dict[str, list[tuple[dict, dict]]],
            metrics: list[dict]) -> dict:
    """The record of one workload from the (run record, result) of each
    side's runs, run i of each side having run as pair i."""
    records = {side: [r[0] for r in rs] for side, rs in runs.items()}
    results = {side: [r[1] for r in rs] for side, rs in runs.items()}
    out = {
        "seeds": seeds,
        "parent_first": [i % 2 == 0 for i in range(len(seeds))],
        "correct": {side: [r.get("correct") for r in rs] for side, rs in results.items()},
        "failed": {side: [[r["failed"], r["attempted"]] for r in rs]
                   for side, rs in results.items()},
        "cpus_usable": {side: [r["cpus_usable"] for r in rs] for side, rs in records.items()},
    }
    if any("output_sha256" in r for rs in records.values() for r in rs):
        out["output_sha256"] = {side: [r.get("output_sha256") for r in rs]
                                for side, rs in records.items()}
    out["metrics"] = {}
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                  for side, rs in results.items()}
        out["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                     **summarize(values["parent"], values["change"])}
    return out


def per_layer(traced: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """The per-layer record of a workload from each side's traced results,
    result i of each side having run as traced pair i: whether each run was
    correct, and the ``summarize`` of each metric of ``metrics`` that some
    run reads as nonzero."""
    out = {"correct": {side: [r.get("correct") for r in rs] for side, rs in traced.items()},
           "metrics": {}}
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                  for side, rs in traced.items()}
        if any(values["parent"]) or any(values["change"]):
            out["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"],
                                         **summarize(values["parent"], values["change"])}
    return out


def differing_outputs(entry: dict) -> list[int]:
    """The pairs of a workload record whose two runs wrote different outputs."""
    sha = entry.get("output_sha256", {"parent": [], "change": []})
    return [i for i, (p, c) in enumerate(zip(sha["parent"], sha["change"])) if p != c]


def failed_share(runs: list[list[int]]) -> float:
    """Failed over attempted operations of a side's [failed, attempted] runs."""
    return sum(f for f, _ in runs) / max(sum(a for _, a in runs), 1)


def change_faults(entry: dict) -> list[str]:
    """What in a workload record counts against the change: each of its
    runs that is not correct, and a larger failed share than the parent's."""
    faults = [f"change run of pair {i} is not correct"
              for i, ok in enumerate(entry["correct"]["change"]) if ok is not True]
    traced = entry["per_layer"]["correct"]["change"] if "per_layer" in entry else []
    faults += [f"traced change run of pair {i} is not correct"
               for i, ok in enumerate(traced) if ok is not True]
    parent, change = (failed_share(entry["failed"][side]) for side in ("parent", "change"))
    if change > parent:
        faults.append(f"change fails a larger share of operations: {parent:.4g} -> {change:.4g}")
    return faults


def print_summary(workload: str, entry: dict) -> int:
    """Print a workload record's metrics, correct runs and failed shares;
    1 if its pairs wrote different outputs or the change has a fault, else 0."""
    for name, m in entry["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"{workload} {name}: {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
              f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}], lower in {m['lower']}")
    for name, m in entry.get("per_layer", {"metrics": {}})["metrics"].items():
        print(f"{workload} {name} (traced): {m['parent']['median']:.4g} -> "
              f"{m['change']['median']:.4g}, lower in {m['lower']}")
    correct = {side: sum(ok is True for ok in oks) for side, oks in entry["correct"].items()}
    share = {side: failed_share(runs) for side, runs in entry["failed"].items()}
    print(f"{workload}: correct runs {correct['parent']} -> {correct['change']} of "
          f"{len(entry['seeds'])}, failed share {share['parent']:.4g} -> {share['change']:.4g}")
    faults = change_faults(entry)
    differ = differing_outputs(entry)
    if differ:
        faults.insert(0, f"parent and change wrote different outputs in pairs {differ}")
    for fault in faults:
        print(f"{workload}: {fault}")
    return 1 if faults else 0


def copy_worktree(dest: Path) -> None:
    """Copy the files of the working tree, tracked and untracked but not
    ignored (so no ``__pycache__``), to ``dest``."""
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def _order(i: int) -> tuple[str, str]:
    """The sides of pair i in the order they run: the parent first when i is even."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def measure(sides: dict[str, Path], workload: str, seeds: list[int], seconds: float,
            metrics: list[dict], layers: list[dict]) -> dict:
    """The record of one workload, run in the checkouts ``sides["parent"]``
    and ``sides["change"]``."""
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        for side in _order(i):
            record, result = _run(sides[side], workload, seed, seconds)
            # a whole oracle record lists every instance, and this process's
            # peak RSS is the floor of every RUSAGE_SELF peak a run reports
            runs[side].append(({k: record[k] for k in KEPT if k in record}, result))
            print(f"{workload} pair {i} seed {seed} {side}: "
                  + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                             for m in metrics), flush=True)
    entry = collect(seeds, runs, metrics)
    traced = {"parent": [], "change": []}
    for i, seed in enumerate(seeds[:TRACED_PAIRS]):
        for side in _order(i):
            traced[side].append(_run(sides[side], workload, seed, seconds, trace=1)[1])
            print(f"{workload} traced pair {i} seed {seed} {side}", flush=True)
    entry["per_layer"] = {"seeds": seeds[:TRACED_PAIRS], **per_layer(traced, layers)}
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Alternating parent/change benchmark pairs.")
    ap.add_argument("parent_rev")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = set(args.workload) - {w["name"] for w in spec["workloads"]}
    if unknown:
        ap.error(f"unknown workload {sorted(unknown)}")
    first = random.SystemRandom().randrange(10**6, 10**7)

    # a terminated run still removes its copies and stops its bench child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    rev = _git("rev-parse", args.parent_rev)
    sides = {"parent": WORK / f"parent-{rev[:12]}", "change": WORK / "change"}
    for checkout in sides.values():
        shutil.rmtree(checkout, ignore_errors=True)
        checkout.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(sides["parent"])], input=archive, check=True)
    copy_worktree(sides["change"])
    try:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        record.update({
            "parent": rev,
            "change": _git("rev-parse", "HEAD") + ("+dirty" if _git("status", "--porcelain") else ""),
            "command": "python3 bench/run.py --workload W --seed N --seconds S",
            "seconds": args.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
        })
        workloads = record.setdefault("workloads", {})
        for k, workload in enumerate(args.workload):
            seeds = [first + 1000 * k + i for i in range(args.pairs)]
            workloads[workload] = measure(sides, workload, seeds, args.seconds,
                                          spec["end_to_end"], spec["per_layer"])
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        for checkout in sides.values():
            shutil.rmtree(checkout, ignore_errors=True)
    return max(print_summary(workload, workloads[workload]) for workload in args.workload)

if __name__ == "__main__":
    sys.exit(main())
