"""Self-check of the benchmark harness.

    python3 bench/selfcheck.py

1. ``BENCHMARK.json`` equals what ``metrics.py`` generates.
2. Every workload runs once untraced and once traced, measuring for one
   second; each run must be correct and report exactly the named metrics,
   with their units.
3. Negative control of the rdsqs112 gate: one line of a ``point_*.res`` in a
   copy of a construct output is corrupted; ``report`` must exit 1 and the
   gate must count it as a failed operation.
4. Without ``src/`` beside it, ``run.py`` exits non-zero and prints no result.

Exits 1 if any check fails.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import sys

import common
import rdsqs112
from metrics import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        problems.append(what)


def check_benchmark_json() -> None:
    on_disk = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(on_disk == benchmark_json(), "BENCHMARK.json matches bench/metrics.py")


def check_run(workload: str, trace: int) -> None:
    what = f"{workload} --trace {trace}"
    child = common.run_child([str(common.BENCH / "run.py"), "--workload", workload,
                              "--seed", "0", "--seconds", "1", "--trace", str(trace)])
    if child.code != 0:
        expect(False, f"{what} exits 0 (got {child.code}: {child.err.strip()[-300:]})")
        return
    result = json.loads(child.out.splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what}: correct, {result['failed']} of {result['attempted']} failed")
    specs = PER_LAYER if trace else END_TO_END
    got = result["metrics"]
    missing = [m.name for m in specs if m.name not in got]
    extra = sorted(set(got) - {m.name for m in specs})
    expect(not missing and not extra, f"{what}: every named metric (missing {missing}, "
                                      f"extra {extra})")
    bad = [m.name for m in specs if m.name in got and (
        got[m.name]["unit"] != m.unit
        or not isinstance(got[m.name]["value"], (int, float))
        or (not trace and got[m.name]["value"] <= 0))]
    expect(not bad, f"{what}: units and values ({bad})")


def check_report_gate() -> None:
    work = common.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inp = rdsqs112.setup(0, work / "inputs")
        good = work / "out"
        rdsqs112.construct_cli(inp, good, 2)
        tally = common.Tally()
        tally.check("report", *rdsqs112.gate_report(rdsqs112.report_cli(good)))
        expect(tally.failed == 0, "report passes the gate on a correct construct output")

        bad = work / "corrupt"
        shutil.copytree(good, bad)
        res = sorted(bad.glob("point_*.res"))[0]
        lines = res.read_text(encoding="utf-8").splitlines()
        i = next(n for n, line in enumerate(lines) if line[:1].isdigit())
        tokens = lines[i].split()
        lines[i] = " ".join([tokens[1]] + tokens[1:])  # one point twice, one missing
        res.write_text("\n".join(lines) + "\n", encoding="utf-8")
        child = rdsqs112.report_cli(bad)
        tally = common.Tally()
        tally.check("report", *rdsqs112.gate_report(child))
        expect(child.code == 1, f"report exits 1 on a corrupted {res.name} (got {child.code})")
        expect((tally.attempted, tally.failed) == (1, 1),
               "the gate counts the corrupted output as a failed operation")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = common.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(common.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        child = common.run_child([str(bare / "bench" / "run.py"), "--workload", "oracle",
                                  "--seed", "0", "--seconds", "1", "--trace", "0"], timeout=60)
        expect(child.code != 0 and not child.out.strip(),
               f"without src/ run.py fails and prints nothing (exit {child.code})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    common.use_checkout_package()
    check_benchmark_json()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_report_gate()
    check_bare_directory()
    print(f"{len(problems)} problem(s)" if problems else "harness self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
