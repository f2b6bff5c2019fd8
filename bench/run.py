"""Benchmark of quadsys: one workload, one run, one result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a full checkout; the package is imported from the
checkout's ``src/`` and CLI children get it on ``PYTHONPATH``.  Scratch files
go to ``.bench_work/`` and are removed at the end; a traced run keeps its
spans in ``.bench_work/traces/<run id>.jsonl``.

With ``--trace 0`` the run measures for ``--seconds`` and reports every
end-to-end metric of ``metrics.py``; with ``--trace 1`` it runs the
workload's traced pass and reports every per-layer metric (layers the
workload does not call read 0).  Before the result, one line starting with
``run record:`` holds the seed, machine facts and the workload's own record.
The last line is the JSON result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

T0 = __import__("time").perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import common  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from spans import Tracer  # noqa: E402

SETUPS = 7  # set-ups per untraced run: this process and SETUPS - 1 fresh ones


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Run one quadsys benchmark workload.")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


class SetupSampler:
    """Fresh-process set-ups, spread evenly over the measuring window.

    Called between rounds, it runs the set-ups that are due by then, so
    their median reflects the whole run rather than one moment of it.  Each
    must make inputs with the same digest as this process's set-up.
    """

    def __init__(self, args, workdir, inputs, tally):
        self.args, self.workdir, self.inputs, self.tally = args, workdir, inputs, tally
        self.times: list[float] = []
        self.done = 0
        self.start = time.perf_counter()

    def __call__(self) -> None:
        share = (time.perf_counter() - self.start) / self.args.seconds
        while self.done < SETUPS - 1 and self.done <= share * (SETUPS - 1):
            self._one()

    def finish(self) -> list[float]:
        while self.done < SETUPS - 1:
            self._one()
        return self.times

    def _one(self) -> None:
        self.done += 1
        child = common.run_child([str(common.BENCH / "child.py"), "setup", self.args.workload,
                                  str(self.args.seed), str(self.workdir / f"setup-{self.done}")])
        if child.code != 0:
            self.tally.check("set-up", False, f"exit {child.code}: {child.err.strip()[-300:]}")
            return
        out = json.loads(child.out.splitlines()[-1])
        self.tally.check("seeded inputs are byte-identical", out["digest"] == self.inputs.digest,
                         f"{out['digest']} != {self.inputs.digest}")
        self.times.append(out["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    common.use_checkout_package()
    module = common.workload_module(args.workload)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = common.WORK / run_id
    tally = common.Tally()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
    }
    try:
        inputs = module.setup(args.seed, workdir / "inputs")
        setups = [time.perf_counter() - T0]
        record["inputs_sha256"] = inputs.digest
        if args.trace:
            tracer = Tracer(run_id)
            values = module.trace(inputs, tally, tracer, record)
            values["failed_frac"] = tally.failed / max(tally.attempted, 1)
            path = common.WORK / "traces" / f"{run_id}.jsonl"
            tracer.write(path)
            record["spans"] = str(path.relative_to(common.ROOT))
            wanted = [m for m in PER_LAYER if args.workload in m.workloads]
            missing = {m.name for m in wanted} - set(values)
            if missing:
                raise RuntimeError(f"traced run produced no value for {sorted(missing)}")
            values = {m.name: 0 for m in PER_LAYER} | values
            specs = PER_LAYER
        else:
            sampler = SetupSampler(args, workdir, inputs, tally)
            values = module.run(inputs, args.seconds, tally, record, sampler)
            setups += sampler.finish()
            values["setup_s"] = statistics.median(setups)
            specs = END_TO_END
        record["setup_s"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    print("run record: " + json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
