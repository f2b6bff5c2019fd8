"""Workload oracle: the exact-cover search on seeded derived instances.

Every round searches a fresh seeded sample: all 16 derived KTS(15) of
sqs16, derived STS(21) of sqs22, derived GDDs of rdgdd24 (the whole group
of the point leaves the ground) and the whole sqs8.  Each instance's ground
ids are relabelled by a seeded permutation: the instance stays isomorphic
but the search order changes, so no heuristic can be tuned to one
labelling.  Every instance here is resolvable, so FOUND must re-verify
against the instance's blocks, NONE is a wrong answer, and EXHAUSTED (the
node budget ran out) is counted on its own, never as NONE.
"""

from __future__ import annotations

import hashlib
import random
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from common import Tally, peak_rss_mb
from spans import Tracer, spanner

BUDGET = 20_000  # search nodes per instance
PER_ROUND = (("sqs16", 16), ("sqs22", 4), ("rdgdd24", 6), ("sqs8", 1))
TRACED_ROUNDS = 3


@dataclass(frozen=True)
class Instance:
    family: str
    point: str
    blocks: tuple[tuple[int, ...], ...]
    ground: tuple[int, ...]


@dataclass
class Inputs:
    seed: int
    base: dict[str, list[Instance]]
    digest: str


def setup(seed: int, workdir: Path) -> Inputs:
    from quadsys import catalog, resolver
    from quadsys.core import derived_gdd

    base: dict[str, list[Instance]] = {}
    for name in ("sqs16", "sqs22"):
        d = catalog.GENERATORS[name]()
        base[name] = []
        for p, lab in enumerate(d.labels):
            blocks, ground = resolver.derived_instance(d, p)
            base[name].append(Instance(name, lab.text, tuple(blocks), ground))
    g = catalog.rdgdd24()
    base["rdgdd24"] = []
    for p, lab in enumerate(g.design.labels):
        sub = derived_gdd(g, p).design
        base["rdgdd24"].append(Instance("rdgdd24", lab.text, sub.blocks, tuple(range(sub.v))))
    d8 = catalog.sqs8()
    base["sqs8"] = [Instance("sqs8", "*", d8.blocks, tuple(range(d8.v)))]
    inp = Inputs(seed, base, "")
    first = next(rounds(inp))
    inp.digest = hashlib.sha256(repr((base, first)).encode()).hexdigest()
    return inp


def _relabel(rng: random.Random, inst: Instance) -> Instance:
    image = list(inst.ground)
    rng.shuffle(image)
    move = dict(zip(inst.ground, image))
    blocks = tuple(sorted(tuple(sorted(move[p] for p in b)) for b in inst.blocks))
    return Instance(inst.family, inst.point, blocks, inst.ground)


def rounds(inp: Inputs):
    """The seeded stream of rounds; every call restarts it."""
    rng = random.Random(f"oracle:{inp.seed}")
    while True:
        sample = []
        for family, k in PER_ROUND:
            pool = inp.base[family]
            sample += [_relabel(rng, inst) for inst in rng.sample(pool, min(k, len(pool)))]
        yield sample


def search_round(sample, tally: Tally, tracer: Tracer | None, log: list) -> tuple[float, float]:
    """Search every instance, re-verify every FOUND; (search s, verify s)."""
    from quadsys.core import verify_resolution
    from quadsys.resolver import find_resolution

    sp = spanner(tracer)
    search_s = verify_s = 0.0
    for inst in sample:
        t0 = time.perf_counter()
        with sp("resolver.find_resolution", family=inst.family, point=inst.point):
            outcome = find_resolution(inst.blocks, inst.ground, budget=BUDGET)
        search_s += time.perf_counter() - t0
        ok, detail = outcome.status == "exhausted", outcome.status
        if outcome.found:
            res = outcome.resolution
            t0 = time.perf_counter()
            with sp("core.verify_resolution"):
                rep = verify_resolution(res)
            verify_s += time.perf_counter() - t0
            ok = (rep.passed and res.ground == inst.ground
                  and sorted(res.target) == sorted(inst.blocks))
            detail = f"found, verify {rep.passed}"
        log.append([inst.family, inst.point, outcome.status, outcome.nodes,
                    len(outcome.resolution.target) if outcome.found else 0])
        tally.check(f"oracle {inst.family} at {inst.point}", ok, detail)
    return search_s, verify_s


def _summary(log: list) -> dict:
    by = {s: sum(1 for e in log if e[2] == s) for s in ("found", "none", "exhausted")}
    return {"instances": len(log), **by, "nodes": sum(e[3] for e in log),
            "nodes_max": max(e[3] for e in log), "placed": sum(e[4] for e in log)}


def run(inp: Inputs, seconds: float, tally: Tally, record: dict, between) -> dict:
    build, check, log = [], [], []
    deadline = time.perf_counter() + seconds
    stream = rounds(inp)
    while not build or time.perf_counter() < deadline:
        search_s, verify_s = search_round(next(stream), tally, None, log)
        build.append(search_s)
        check.append(verify_s)
        between()
    record.update(budget=BUDGET, rounds=len(build), verdicts=_summary(log),
                  search_s=build, verify_s=check, instances=log)
    return {
        "build_s": statistics.fmean(build),
        "check_s": statistics.fmean(check),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
    }


def trace(inp: Inputs, tally: Tally, tracer: Tracer, record: dict) -> dict:
    walls = []
    for t in (None, tracer):
        stream, log = rounds(inp), []
        t0 = time.perf_counter()
        for _ in range(TRACED_ROUNDS):
            search_round(next(stream), tally, t, log)
        walls.append(time.perf_counter() - t0)
    s = _summary(log)
    search_s = tracer.total("resolver.find_resolution")
    record.update(budget=BUDGET, rounds=TRACED_ROUNDS, verdicts=s, instances=log)
    return {
        "resolver.search_s": search_s,
        "resolver.nodes": s["nodes"],
        "resolver.nodes_max": s["nodes_max"],
        "resolver.nodes_per_s": s["nodes"] / search_s,
        "resolver.instances": s["instances"],
        "resolver.found": s["found"],
        "resolver.none": s["none"],
        "resolver.exhausted": s["exhausted"],
        "oracle_exhausted_frac": s["exhausted"] / s["instances"],
        "resolver.useful_ratio": s["placed"] / max(s["nodes"], 1),
        "core.verify_resolution_oracle_s": tracer.total("core.verify_resolution"),
        "trace.overhead_s": walls[1] - walls[0],
    }
