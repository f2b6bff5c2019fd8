"""Helpers shared by the workloads: checkout paths, child processes,
operation accounting, tree hashes and small statistics."""

from __future__ import annotations

import hashlib
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# No single child may outlive this; a run must end within 180 s.
CHILD_TIMEOUT_S = 100


def use_checkout_package() -> None:
    """Import quadsys from this checkout's src/, or exit non-zero."""
    if not (SRC / "quadsys" / "__init__.py").is_file():
        raise SystemExit(f"error: no quadsys package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import quadsys

    if Path(quadsys.__file__).resolve().parent != (SRC / "quadsys").resolve():
        raise SystemExit(f"error: quadsys imported from {quadsys.__file__}, not from {SRC}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    wall_s: float
    code: int
    out: str
    err: str


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run a Python child in its own process group and wait for it.

    On a timeout or an interrupt the whole group (pool workers included) is
    killed and reaped before the exception propagates.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    return Child(time.perf_counter() - t0, proc.returncode, out, err)


@dataclass
class Tally:
    """Operations attempted and failed; failures keep a short reason."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {detail}".rstrip(": "))
        return ok


def tree_sha256(directory: Path, pattern: str = "*") -> str:
    """sha256 over ``<sha256>  <name>`` lines of the matching files, sorted by
    name: the same as ``LC_ALL=C sha256sum <files> | sha256sum`` run in the
    directory."""
    h = hashlib.sha256()
    for f in sorted(p for p in directory.glob(pattern) if p.is_file()):
        h.update(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n".encode())
    return h.hexdigest()


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def peak_rss_mb(who: int) -> float:
    """ru_maxrss of RUSAGE_SELF or RUSAGE_CHILDREN, in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024


def workload_module(workload: str):
    """The module that implements a workload (setup, run, trace)."""
    import controls
    import oracle
    import rdsqs112

    return {"rdsqs112": rdsqs112, "oracle": oracle, "controls": controls}[workload]
