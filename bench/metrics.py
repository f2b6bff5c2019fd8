"""The benchmark's workloads and metrics, in one place.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 bench/metrics.py > BENCHMARK.json``); ``bench/selfcheck.py``
fails when the two disagree.  The per-layer entries also record which
workload exercises the layer and which end-to-end metric a change to the
layer should move, which ``BENCHMARK.json`` has no field for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

RUN_SECONDS = 36

# Every workload reports every end-to-end metric.  A workload runs in rounds;
# each round has a build phase and a check phase, timed separately.  Phase
# times are means over the rounds of a run: on a shared two-vCPU VM a core's
# speed switches between two states about 1.5x apart within seconds, which
# makes the median of a run jump between the two modes while the mean follows
# the share of slow time smoothly.
WORKLOADS = {
    "rdsqs112": (
        "paper centrepiece: construct --jobs 1 then report, as fresh CLI processes on a "
        "relabelled SQS(28); quadruple/core/formats/cli do the work, resolver none"
    ),
    "oracle": (
        "exact-cover search on seeded, relabelled derived instances of sqs16/sqs22/rdgdd24 "
        "plus sqs8; resolver does the work, quadruple/formats none"
    ),
    "controls": (
        "cold catalog ingest, then hundreds of full verifier runs on mutated designs and "
        "resolutions of 14 to 2,457 blocks: per-call set-up cost of core"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median of 7 set-ups (this process and 6 fresh ones spread over the run): "
        "import quadsys and make the seeded inputs",
    ),
    EndToEnd(
        "build_s", "s", "lower", 0.25,
        "mean per round of the build phase: construct --jobs 1 wall (rdsqs112), "
        "all searches (oracle), cold catalog ingest (controls)",
    ),
    EndToEnd(
        "check_s", "s", "lower", 0.25,
        "mean per round of the check phase: report wall (rdsqs112), "
        "re-verifying found resolutions (oracle), all mutation checks (controls)",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.1,
        "peak resident memory of the largest process doing the work: the CLI processes "
        "and their pool workers (rdsqs112), the benchmark process (oracle, controls)",
    ),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    workloads: tuple[str, ...]
    moves: tuple[str, ...]
    what: str


_RD = ("rdsqs112",)
_ALL = tuple(WORKLOADS)

PER_LAYER = (
    Layer("formats.parse_star_s", "s", "lower", _RD, ("build_s",), "formats.parse_star"),
    Layer("star.verify_s", "s", "lower", _RD, ("build_s",), "star.verify_star, 28 points"),
    Layer("quadruple.template_s", "s", "lower", _RD, ("build_s",),
          "template() + verify_template(), cold"),
    Layer("quadruple.assembly_s", "s", "lower", _RD, ("build_s",), "QuadrupleAssembly(cert)"),
    Layer("core.verify_steiner_s", "s", "lower", _RD, ("build_s", "check_s"),
          "verify_steiner on 56,980 blocks, once in construct and once in report"),
    Layer("formats.emit_design_s", "s", "lower", _RD, ("build_s",), "emit_design"),
    Layer("formats.design_bytes", "bytes", "lower", _RD, ("build_s",),
          "size of the emitted design.design"),
    Layer("quadruple.point_resolution_s", "s", "lower", _RD, ("build_s",),
          "point_resolution(p) x112, total"),
    Layer("quadruple.point_resolution_p90_ms", "ms", "lower", _RD, ("build_s",),
          "point_resolution(p), 90th percentile of the 112 calls"),
    Layer("core.verify_resolution_s", "s", "lower", _RD, ("build_s",),
          "verify_resolution x112 in construct"),
    Layer("formats.emit_resolution_s", "s", "lower", _RD, ("build_s",), "emit_resolution x112"),
    Layer("formats.res_bytes", "bytes", "lower", _RD, ("build_s",),
          "total size of the 112 point_*.res texts"),
    Layer("cli.pickle_s", "s", "lower", _RD, (),
          "pickle.dumps of the QuadrupleAssembly that --jobs ships to workers"),
    Layer("cli.pickle_bytes", "bytes", "lower", _RD, (), "size of that pickle"),
    Layer("trace.construct_j2_cli_s", "s", "lower", _RD, (),
          "untraced construct --jobs 2 wall, measured in the traced run"),
    Layer("cli.parallel_gap_s", "s", "lower", _RD, (),
          "construct --jobs 2 wall minus (serial stage time + per-point work / 2): "
          "interpreter, pool start-up and shipping"),
    Layer("formats.parse_design_s", "s", "lower", _RD, ("check_s",),
          "parse_design of design.design in report"),
    Layer("formats.parse_resolution_s", "s", "lower", _RD, ("check_s",),
          "parse_resolution x112"),
    Layer("formats.resolution_for_point_s", "s", "lower", _RD, ("check_s",),
          "resolution_for_point x112"),
    Layer("core.verify_resolution_report_s", "s", "lower", _RD, ("check_s",),
          "verify_resolution x112 in report"),
    Layer("quadruple.classes", "count", "higher", _RD, (),
          "parallel classes built over all 112 points (exact: 6,160)"),
    Layer("core.triples_checked", "count", "higher", _RD, (),
          "point triples counted by one Steiner check of the SQS(112) (exact: 227,920)"),
    Layer("trace.construct_stages_s", "s", "lower", _RD, ("build_s",),
          "sum of the construct layer self times"),
    Layer("trace.construct_cli_s", "s", "lower", _RD, ("build_s",),
          "untraced construct --jobs 1 wall, measured in the traced run"),
    Layer("trace.construct_coverage", "ratio", "higher", _RD, (),
          "trace.construct_stages_s / trace.construct_cli_s"),
    Layer("trace.report_stages_s", "s", "lower", _RD, ("check_s",),
          "sum of the report layer self times"),
    Layer("trace.report_cli_s", "s", "lower", _RD, ("check_s",),
          "untraced report wall, measured in the traced run"),
    Layer("trace.report_coverage", "ratio", "higher", _RD, (),
          "trace.report_stages_s / trace.report_cli_s"),
    Layer("resolver.search_s", "s", "lower", ("oracle",), ("build_s",), "find_resolution, total"),
    Layer("resolver.nodes", "count", "lower", ("oracle",), ("build_s",),
          "search nodes over all instances (exact for a seed)"),
    Layer("resolver.nodes_max", "count", "lower", ("oracle",), ("build_s",),
          "search nodes of the worst instance (exact for a seed)"),
    Layer("resolver.nodes_per_s", "1/s", "higher", ("oracle",), ("build_s",),
          "resolver.nodes / resolver.search_s"),
    Layer("resolver.instances", "count", "higher", ("oracle",), (),
          "instances searched: the base of the verdict counts"),
    Layer("resolver.found", "count", "higher", ("oracle",), ("check_s",), "FOUND verdicts"),
    Layer("resolver.none", "count", "lower", ("oracle",), (),
          "NONE verdicts (every instance here is resolvable, so NONE is a failed operation)"),
    Layer("resolver.exhausted", "count", "lower", ("oracle",), ("build_s",),
          "EXHAUSTED verdicts (budget spent; never merged with NONE)"),
    Layer("oracle_exhausted_frac", "ratio", "lower", ("oracle",), ("build_s",),
          "resolver.exhausted / resolver.instances"),
    Layer("resolver.useful_ratio", "ratio", "higher", ("oracle",), ("build_s",),
          "blocks placed in returned resolutions / nodes visited"),
    Layer("core.verify_resolution_oracle_s", "s", "lower", ("oracle",), ("check_s",),
          "verify_resolution of every FOUND resolution"),
    Layer("catalog.develop_s", "s", "lower", ("controls",), ("build_s",),
          "the seven catalog.GENERATORS, cold"),
    Layer("catalog.sqs22_res_s", "s", "lower", ("controls",), ("build_s",),
          "catalog.sqs22_resolutions(), verified"),
    Layer("catalog.rdgdd24_res_s", "s", "lower", ("controls",), ("build_s",),
          "catalog.rdgdd24_resolutions(), verified"),
    Layer("catalog.rdgdd42_res_s", "s", "lower", ("controls",), ("build_s",),
          "catalog.rdgdd42_resolutions(), verified"),
    Layer("catalog.sqs28_star_s", "s", "lower", ("controls",), ("build_s",),
          "catalog.sqs28_star(): expand_certificate by +1 mod 7, verified"),
) + tuple(
    Layer(f"core.verify_steiner_ms.{name}", "ms", "lower", ("controls",), ("check_s",),
          f"verify_steiner per design mutation of {name}, mean")
    for name in ("sqs8", "sqs14", "sqs16", "sqs22", "sqs28")
) + tuple(
    Layer(f"core.verify_gdd_ms.{name}", "ms", "lower", ("controls",), ("check_s",),
          f"verify_gdd per design mutation of {name}, mean")
    for name in ("rdgdd24", "rdgdd42")
) + (
    Layer("core.verify_resolution_ms", "ms", "lower", ("controls",), ("check_s",),
          "verify_resolution per certificate mutation, mean"),
    Layer("core.mutations", "count", "higher", ("controls",), (),
          "design and certificate mutations checked"),
    Layer("core.mutations_caught", "count", "higher", ("controls",), (),
          "mutations rejected with at least one witness"),
    Layer("core.mutations_per_s", "1/s", "higher", ("controls",), ("check_s",),
          "core.mutations / time inside the verifiers"),
    Layer("trace.overhead_s", "s", "lower", _ALL, (),
          "traced in-process pass wall minus the same pass untraced"),
    Layer("failed_frac", "ratio", "lower", _ALL, (),
          "failed / attempted operations of the traced run"),
)


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
