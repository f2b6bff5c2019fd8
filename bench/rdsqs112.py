"""Workload rdsqs112: the RDSQS(112) pipeline.

Inputs: the SQS(28) relabelled by a seeded permutation of its 28 points, and
the full 28-point star certificate translated by the same permutation,
written with ``formats.emit_design``/``emit_star``.  A run first constructs
once with ``--jobs 2``; every round then runs ``quadsys construct <star>
<out> --design <design> --jobs 1`` and ``quadsys report <out>``, each as a
fresh ``python -m quadsys.cli`` process, so template and catalog caches
start cold as they do for users.  Every construct must reproduce the output
sha256 of the first one, so a run checks that ``--jobs`` values and repeats
give byte-identical output.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import random
import resource
import statistics
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from common import Tally, p90, peak_rss_mb, run_child, tree_sha256
from spans import Tracer, spanner

POINTS = 112
REPORT_PASS = f"PASS every point resolved {POINTS}/{POINTS}"
MANIFEST_PASS = f"resolved_points {POINTS}/{POINTS}"


@dataclass
class Inputs:
    design: Path
    star: Path
    digest: str
    workdir: Path


def setup(seed: int, workdir: Path) -> Inputs:
    from quadsys import catalog, formats
    from quadsys.core import Design
    from quadsys.star import StarGroup, StarPointCertificate

    base = catalog.sqs28()
    cert = catalog.sqs28_star()
    perm = list(range(base.v))
    random.Random(f"rdsqs112:{seed}").shuffle(perm)

    def move(b):
        return tuple(sorted(perm[p] for p in b))

    design = Design(base.t, base.sizes, base.labels,
                    tuple(sorted(move(b) for b in base.blocks)), base.kind)
    per_point = {}
    for x in sorted(cert.per_point, key=lambda x: perm[x]):
        pc = cert.per_point[x]
        per_point[design.labels[perm[x]].text] = StarPointCertificate(
            point=perm[x],
            special=tuple(sorted(move(b) for b in pc.special)),
            groups=tuple(
                StarGroup(common=move(g.common),
                          classes=tuple(tuple(sorted(move(b) for b in c)) for c in g.classes))
                for g in pc.groups
            ),
        )
    workdir.mkdir(parents=True, exist_ok=True)
    design_text = formats.emit_design(design)
    star_text = formats.emit_star(design, per_point)
    (workdir / "sqs28.design").write_text(design_text, encoding="utf-8")
    (workdir / "sqs28.star").write_text(star_text, encoding="utf-8")
    digest = hashlib.sha256((design_text + "\0" + star_text).encode()).hexdigest()
    return Inputs(workdir / "sqs28.design", workdir / "sqs28.star", digest, workdir)


# ---------------------------------------------------------------------------
# the CLI, as users run it


def construct_cli(inp: Inputs, out: Path, jobs: int):
    shutil.rmtree(out, ignore_errors=True)
    return run_child(["-m", "quadsys.cli", "construct", str(inp.star), str(out),
                      "--design", str(inp.design), "--jobs", str(jobs)])


def report_cli(out: Path):
    return run_child(["-m", "quadsys.cli", "report", str(out)])


def gate_construct(child, out: Path) -> tuple[bool, str]:
    if child.code != 0:
        return False, f"exit {child.code}: {child.err.strip()[-300:]}"
    manifest = out / "manifest.txt"
    if not manifest.is_file() or MANIFEST_PASS not in manifest.read_text(encoding="utf-8"):
        return False, f"manifest lacks {MANIFEST_PASS!r}"
    return True, ""


def gate_report(child) -> tuple[bool, str]:
    """report must exit 0 and claim every point; anything else fails."""
    if child.code != 0:
        return False, f"exit {child.code}"
    if REPORT_PASS not in child.out.splitlines():
        return False, f"stdout lacks {REPORT_PASS!r}"
    return True, ""


def checked_construct(inp: Inputs, out: Path, jobs: int, tally: Tally, ref: list[str]):
    """Construct and gate it; the output hash must equal the run's first one."""
    child = construct_cli(inp, out, jobs)
    ok, detail = gate_construct(child, out)
    digest = tree_sha256(out) if ok else None
    if ok and ref and digest != ref[0]:
        ok, detail = False, f"output sha256 {digest} differs from {ref[0]}"
    if ok and not ref:
        ref.append(digest)
    tally.check(f"construct --jobs {jobs}", ok, detail)
    return child


def checked_report(out: Path, tally: Tally):
    child = report_cli(out)
    tally.check("report", *gate_report(child))
    return child


def run(inp: Inputs, seconds: float, tally: Tally, record: dict, between) -> dict:
    out = inp.workdir / "out"
    ref: list[str] = []
    j2 = checked_construct(inp, out, 2, tally, ref).wall_s
    build, check = [], []
    deadline = time.perf_counter() + seconds
    while not build or time.perf_counter() < deadline:
        build.append(checked_construct(inp, out, 1, tally, ref).wall_s)
        check.append(checked_report(out, tally).wall_s)
        between()
    record.update(output_sha256=ref[0] if ref else None, construct_j2_s=j2,
                  construct_s=build, report_s=check)
    return {
        "build_s": statistics.fmean(build),
        "check_s": statistics.fmean(check),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }


# ---------------------------------------------------------------------------
# the traced run: the calls cmd_construct (--jobs 1) and cmd_report make


def _clear_template_cache() -> None:
    from quadsys import quadruple

    for fn in (quadruple.template, quadruple.verify_template):
        getattr(fn, "cache_clear", lambda: None)()


def pipeline(inp: Inputs, out: Path, tally: Tally, tracer: Tracer | None) -> dict:
    """construct and report in process, in the order the CLI calls them."""
    from quadsys import formats, quadruple
    from quadsys.core import Gdd, verify_resolution, verify_steiner
    from quadsys.star import StarCertificate, verify_star

    sp = spanner(tracer)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    _clear_template_cache()
    facts = {"res_bytes": 0, "classes": 0}
    ok = True
    with sp("construct"):
        with sp("formats.parse_design"):
            companion = formats.parse_design(inp.design.read_text(encoding="utf-8"))
        with sp("formats.parse_star"):
            seeds = formats.parse_star(inp.star.read_text(encoding="utf-8"), companion)
        cert = StarCertificate(design=companion, per_point={c.point: c for c in seeds.values()})
        with sp("star.verify_star"):
            ok &= verify_star(cert).passed
        with sp("quadruple.template"):
            ok &= quadruple.verify_template().passed
        with sp("quadruple.QuadrupleAssembly"):
            asm = quadruple.QuadrupleAssembly(cert)
        with sp("core.verify_steiner"):
            ok &= verify_steiner(asm.design).passed
        with sp("formats.emit_design"):
            text = formats.emit_design(asm.design)
        facts["design_bytes"] = len(text.encode())
        facts["triples"] = math.comb(asm.design.v, asm.design.t)
        (out / "design.design").write_text(text, encoding="utf-8")
        for p in range(asm.design.v):
            with sp("quadruple.point_resolution"):
                res = asm.point_resolution(p)
            with sp("core.verify_resolution"):
                ok &= verify_resolution(res).passed
            label = asm.design.labels[p].text
            with sp("formats.emit_resolution"):
                text = formats.emit_resolution(asm.design, {label: res.classes})
            facts["classes"] += len(res.classes)
            facts["res_bytes"] += len(text.encode())
            (out / f"point_{label}.res").write_text(text, encoding="utf-8")
    with sp("cli.pickle"):
        facts["pickle_bytes"] = len(pickle.dumps(asm))
    count = 0
    with sp("report"):
        with sp("formats.parse_design"):
            obj = formats.parse_design((out / "design.design").read_text(encoding="utf-8"))
        design = obj.design if isinstance(obj, Gdd) else obj
        with sp("core.verify_steiner"):
            ok &= verify_steiner(design).passed
        for path in sorted(out.glob("point_*.res")):
            text = path.read_text(encoding="utf-8")
            with sp("formats.parse_resolution"):
                sections = formats.parse_resolution(text, design)
            for point, classes in sections.items():
                with sp("formats.resolution_for_point"):
                    res = formats.resolution_for_point(design, point, classes)
                with sp("core.verify_resolution"):
                    ok &= verify_resolution(res).passed
                count += 1
    ok &= count == design.v == POINTS
    tally.check("in-process construct + report", ok, f"{count} points")
    return facts


def trace(inp: Inputs, tally: Tally, tracer: Tracer, record: dict) -> dict:
    out = inp.workdir / "out"
    ref: list[str] = []
    cli_j1 = checked_construct(inp, out, 1, tally, ref).wall_s
    cli_j2 = checked_construct(inp, out, 2, tally, ref).wall_s
    cli_report = checked_report(out, tally).wall_s
    cli_files = tree_sha256(out, "*.res"), tree_sha256(out, "*.design")

    t0 = time.perf_counter()
    pipeline(inp, out, tally, None)
    plain_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    facts = pipeline(inp, out, tally, tracer)
    traced_s = time.perf_counter() - t0
    same = (tree_sha256(out, "*.res"), tree_sha256(out, "*.design")) == cli_files
    tally.check("in-process output equals CLI output", same)

    def stage_sum(stage: str) -> float:
        names = {s["name"] for s in tracer.under(stage)}
        return sum(tracer.total(n, stage) for n in names)

    construct_stages = stage_sum("construct")
    report_stages = stage_sum("report")
    per_point = sum(tracer.total(n, "construct") for n in (
        "quadruple.point_resolution", "core.verify_resolution", "formats.emit_resolution"))
    construct_wall = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "construct")
    pickle_s = tracer.total("cli.pickle")
    record.update(output_sha256=ref[0] if ref else None, cli_construct_j1_s=cli_j1,
                  cli_construct_j2_s=cli_j2, cli_report_s=cli_report,
                  inprocess_plain_s=plain_s, inprocess_traced_s=traced_s)
    return {
        "formats.parse_star_s": tracer.total("formats.parse_star"),
        "star.verify_s": tracer.total("star.verify_star"),
        "quadruple.template_s": tracer.total("quadruple.template"),
        "quadruple.assembly_s": tracer.total("quadruple.QuadrupleAssembly"),
        "core.verify_steiner_s": tracer.total("core.verify_steiner"),
        "formats.emit_design_s": tracer.total("formats.emit_design"),
        "formats.design_bytes": facts["design_bytes"],
        "quadruple.point_resolution_s": tracer.total("quadruple.point_resolution"),
        "quadruple.point_resolution_p90_ms":
            1000 * p90(tracer.durations("quadruple.point_resolution")),
        "core.verify_resolution_s": tracer.total("core.verify_resolution", "construct"),
        "formats.emit_resolution_s": tracer.total("formats.emit_resolution"),
        "formats.res_bytes": facts["res_bytes"],
        "cli.pickle_s": pickle_s,
        "cli.pickle_bytes": facts["pickle_bytes"],
        "trace.construct_j2_cli_s": cli_j2,
        "cli.parallel_gap_s": cli_j2 - (construct_wall - per_point + pickle_s + per_point / 2),
        "formats.parse_design_s": tracer.total("formats.parse_design", "report"),
        "formats.parse_resolution_s": tracer.total("formats.parse_resolution"),
        "formats.resolution_for_point_s": tracer.total("formats.resolution_for_point"),
        "core.verify_resolution_report_s": tracer.total("core.verify_resolution", "report"),
        "quadruple.classes": facts["classes"],
        "core.triples_checked": facts["triples"],
        "trace.construct_stages_s": construct_stages,
        "trace.construct_cli_s": cli_j1,
        "trace.construct_coverage": construct_stages / cli_j1,
        "trace.report_stages_s": report_stages,
        "trace.report_cli_s": cli_report,
        "trace.report_coverage": report_stages / cli_report,
        "trace.overhead_s": traced_s - plain_s,
    }
