"""Workload controls: cold catalog ingest and negative controls.

Each round first runs a cold ingest in a fresh process (``child.py
ingest``): all seven ``catalog.GENERATORS`` and the four shipped
certificate loads, which re-verify their data as the catalog always does.
It then checks a fresh seeded sample of mutations, each by one full,
non-incremental verifier run that must reject it with a witness:

* for sampled blocks of every catalog design, deleting the block and
  doubling it (``verify_steiner`` or ``verify_gdd``);
* for sampled points of the shipped sqs22/rdgdd24/rdgdd42 resolutions,
  moving a block between two classes, dropping a class and duplicating a
  class (``verify_resolution``).
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from common import BENCH, Tally, peak_rss_mb, run_child
from spans import Tracer, spanner

BLOCKS_PER_DESIGN = 6
POINTS_PER_RESOLUTION = 3
TRACED_ROUNDS = 2
RESOLUTIONS = ("sqs22", "rdgdd24", "rdgdd42")
# what a correct ingest yields: block counts, resolved points, star points
INGEST_COUNTS = {
    "sqs8": 14, "sqs14": 91, "sqs16": 140, "sqs22": 385, "sqs28": 819,
    "rdgdd24": 378, "rdgdd42": 2457, "sqs22_resolutions": 22,
    "rdgdd24_resolutions": 24, "rdgdd42_resolutions": 42, "sqs28_star": 28,
}


@dataclass
class Inputs:
    seed: int
    designs: dict
    resolutions: dict
    digest: str


def setup(seed: int, workdir: Path) -> Inputs:
    from quadsys import catalog

    designs = {name: catalog.GENERATORS[name]() for name in sorted(catalog.GENERATORS)}
    resolutions = {name: getattr(catalog, f"{name}_resolutions")() for name in RESOLUTIONS}
    inp = Inputs(seed, designs, resolutions, "")
    first = [(m[0], m[1], m[2]) for m in next(mutation_rounds(inp))]
    inp.digest = hashlib.sha256(repr(first).encode()).hexdigest()
    return inp


def mutation_rounds(inp: Inputs):
    """Seeded stream of rounds of (what, design, kind, mutated object)."""
    from quadsys.core import Design, Gdd, Resolution

    rng = random.Random(f"controls:{inp.seed}")
    while True:
        sample = []
        for name, obj in inp.designs.items():
            d = obj.design if isinstance(obj, Gdd) else obj
            for i in sorted(rng.sample(range(len(d.blocks)), BLOCKS_PER_DESIGN)):
                for kind, blocks in (("delete", d.blocks[:i] + d.blocks[i + 1:]),
                                     ("double", d.blocks + (d.blocks[i],))):
                    mutated = Design(d.t, d.sizes, d.labels, blocks, d.kind)
                    if isinstance(obj, Gdd):
                        mutated = Gdd(design=mutated, groups=obj.groups)
                    sample.append((f"{kind} block {i}", name, "design", mutated))
        for name in RESOLUTIONS:
            shipped = inp.resolutions[name]
            for point in rng.sample(sorted(shipped), POINTS_PER_RESOLUTION):
                r = shipped[point]
                cls = list(r.classes)
                a, b = rng.sample(range(len(cls)), 2)
                blk = rng.choice(cls[a])
                moved = list(cls)
                moved[a] = tuple(x for x in cls[a] if x != blk)
                moved[b] = cls[b] + (blk,)
                c = rng.randrange(len(cls))
                for kind, classes in ((f"move a block from class {a} to {b}", moved),
                                      (f"drop class {c}", cls[:c] + cls[c + 1:]),
                                      (f"duplicate class {c}", cls + [cls[c]])):
                    mutated = Resolution(ground=r.ground, classes=tuple(classes), target=r.target)
                    sample.append((f"{kind} at {point}", name, "resolution", mutated))
        yield sample


def ingest(tally: Tally, tracer: Tracer | None) -> float:
    """Cold ingest in a fresh process; the seconds it took inside that process."""
    argv = [str(BENCH / "child.py"), "ingest"] + ([tracer.run_id] if tracer else [])
    with spanner(tracer)("ingest"):
        child = run_child(argv)
        if child.code != 0:
            tally.check("cold ingest", False, f"exit {child.code}: {child.err.strip()[-300:]}")
            return child.wall_s
        out = json.loads(child.out.splitlines()[-1])
        if tracer is not None:
            tracer.adopt(out["spans"], proc="ingest")
    tally.check("cold ingest", out["counts"] == INGEST_COUNTS, json.dumps(out["counts"]))
    return out["ingest_s"]


def check_round(sample, tally: Tally, tracer: Tracer | None) -> tuple[float, int]:
    """Verify every mutation; each must fail with a witness.

    Returns the seconds spent inside the verifiers and the mutations caught.
    """
    from quadsys.core import Gdd, verify_gdd, verify_resolution, verify_steiner

    sp = spanner(tracer)
    total, caught = 0.0, 0
    for what, name, kind, obj in sample:
        if kind == "resolution":
            check = verify_resolution
        else:
            check = verify_gdd if isinstance(obj, Gdd) else verify_steiner
        t0 = time.perf_counter()
        with sp(f"core.{check.__name__}", design=name):
            rep = check(obj)
        total += time.perf_counter() - t0
        caught += tally.check(f"{what} of {name}", not rep.passed and bool(rep.violations),
                              "mutation not caught")
    return total, caught


def run(inp: Inputs, seconds: float, tally: Tally, record: dict, between) -> dict:
    build, check = [], []
    mutations = 0
    stream = mutation_rounds(inp)
    deadline = time.perf_counter() + seconds
    while not build or time.perf_counter() < deadline:
        build.append(ingest(tally, None))
        sample = next(stream)
        check.append(check_round(sample, tally, None)[0])
        mutations += len(sample)
        between()
    record.update(rounds=len(build), mutations=mutations, ingest_s=build, mutations_s=check)
    return {
        "build_s": statistics.fmean(build),
        "check_s": statistics.fmean(check),
        "peak_rss_mb": max(peak_rss_mb(resource.RUSAGE_SELF),
                           peak_rss_mb(resource.RUSAGE_CHILDREN)),
    }


def trace(inp: Inputs, tally: Tally, tracer: Tracer, record: dict) -> dict:
    walls = []
    for t in (None, tracer):
        stream = mutation_rounds(inp)
        caught = 0
        t0 = time.perf_counter()
        for _ in range(TRACED_ROUNDS):
            ingest(tally, t)
            caught += check_round(next(stream), tally, t)[1]
        walls.append(time.perf_counter() - t0)
    mutations = [s for s in tracer.spans if s["name"].startswith("core.verify_")]
    verify_s = sum(s["end"] - s["start"] for s in mutations)

    def mean_ms(name: str, design: str | None = None) -> float:
        ds = [s["end"] - s["start"] for s in mutations
              if s["name"] == name and design in (None, s["design"])]
        return 1000 * sum(ds) / len(ds)

    out = {
        "catalog.develop_s": tracer.total("catalog.develop"),
        "catalog.sqs22_res_s": tracer.total("catalog.sqs22_resolutions"),
        "catalog.rdgdd24_res_s": tracer.total("catalog.rdgdd24_resolutions"),
        "catalog.rdgdd42_res_s": tracer.total("catalog.rdgdd42_resolutions"),
        "catalog.sqs28_star_s": tracer.total("catalog.sqs28_star"),
        "core.verify_resolution_ms": mean_ms("core.verify_resolution"),
        "core.mutations": len(mutations),
        "core.mutations_caught": caught,
        "core.mutations_per_s": len(mutations) / verify_s,
        "trace.overhead_s": walls[1] - walls[0],
    }
    from quadsys.core import Gdd

    for name, obj in inp.designs.items():
        check = "verify_gdd" if isinstance(obj, Gdd) else "verify_steiner"
        out[f"core.{check}_ms.{name}"] = mean_ms(f"core.{check}", name)
    record.update(rounds=TRACED_ROUNDS, mutations=len(mutations))
    return out
