"""Acceptance criteria, one test per numbered claim.

Each test prints a single line ("ACCEPT <n> PASS|FAIL <summary>"); run with
``pytest -s tests/test_acceptance.py`` to see them.  Every tolerance is
exact (integer counts, exhaustive checks); runtime ceilings are asserted
with time.perf_counter measurements taken inside the test.
"""

import math
import time
from collections import Counter

import pytest

from quadsys import (
    Design,
    Shift,
    catalog,
    construct_rdsqs_4v,
    develop,
    verify_gdd,
    verify_resolution,
    verify_star,
    verify_steiner,
)
from quadsys.core import Label
from quadsys.resolver import confirm_rds, derived_instance, find_resolution


def report(n, passed, summary):
    print(f"\nACCEPT {n} {'PASS' if passed else 'FAIL'} {summary}")
    assert passed, f"criterion {n}: {summary}"


def fresh_sqs8():
    """The labels, base blocks and action that develop into the SQS(8)."""
    labels = tuple(Label.plain(i) for i in range(7)) + (Label.inf(0),)
    bases = (
        (Label.inf(0), Label.plain(0), Label.plain(1), Label.plain(3)),
        tuple(Label.plain(n) for n in (0, 1, 2, 5)),
    )
    return labels, bases, Shift(1, 7)


def test_criterion_1_sqs8():
    sys8 = fresh_sqs8()
    best = min(
        _timed(lambda: verify_steiner(develop(*sys8)))[1] for _ in range(5)
    )
    d = develop(*sys8)
    rep = verify_steiner(d)
    ok = len(d.blocks) == 14 and rep.passed and best < 1e-3
    report(1, ok, f"SQS(8) 14 blocks, exact cover, {best * 1e6:.0f} us")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_criterion_2_rdgdd24():
    t0 = time.perf_counter()
    g = catalog.rdgdd24()
    ok = len(g.design.blocks) == 378
    ok &= sorted(map(len, g.groups)) == [3] * 8
    ok &= verify_gdd(g).passed
    res = catalog.rdgdd24_resolutions()
    ok &= len(res) == 24
    for r in res.values():
        ok &= len(r.classes) == 9 and all(len(c) == 7 for c in r.classes)
        ok &= len(r.target) == 63
        ok &= verify_resolution(r).passed
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    report(2, ok, f"RDGDD(3,4,24) 378 blocks, 24 derived resolutions, {dt:.2f} s")


def test_criterion_3_rdgdd42():
    t0 = time.perf_counter()
    g = catalog.rdgdd42()
    ok = len(g.design.blocks) == 2457
    ok &= sorted(map(len, g.groups)) == [3] * 14
    ok &= verify_gdd(g).passed
    res = catalog.rdgdd42_resolutions()
    ok &= len(res) == 42
    for r in res.values():
        ok &= all(len(c) == 13 for c in r.classes) and len(r.classes) == 18
        ok &= verify_resolution(r).passed
    dt = time.perf_counter() - t0
    ok &= dt < 5.0
    report(3, ok, f"RDGDD(3,4,42) 2457 blocks, 42 derived resolutions, {dt:.2f} s")


def test_criterion_4_sqs22():
    t0 = time.perf_counter()
    d = catalog.sqs22()
    ok = len(d.blocks) == 385 and verify_steiner(d).passed
    res = catalog.sqs22_resolutions()
    ok &= len(res) == 22
    ok &= verify_resolution(res["inf_0"]).passed
    ok &= verify_resolution(res["0"]).passed
    for r in res.values():
        ok &= verify_resolution(r).passed
    blocks, ground = derived_instance(d, "inf_0")
    out = find_resolution(blocks, ground, budget=10**7)
    ok &= out.found and out.nodes <= 10**7
    ok &= verify_resolution(out.resolution).passed
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    report(4, ok, f"SQS(22) 385 blocks, 22 resolutions, oracle {out.nodes} nodes, {dt:.2f} s")


def test_criterion_5_boolean_sqs16():
    import itertools

    from quadsys.quadruple import template, two_column_blocks, verify_template

    t0 = time.perf_counter()
    d = catalog.sqs16()
    ok = len(d.blocks) == 140 and verify_steiner(d).passed
    tpl = template()
    ok &= verify_template().passed
    # each row is a resolvable S(2,4,16): exact pair coverage + orbit classes
    for row in tpl.row_classes:
        flat = [b for cls in row for b in cls]
        cover = Counter()
        for b in flat:
            cover.update(itertools.combinations(b, 2))
        ok &= set(cover.values()) == {1} and len(cover) == 120
        for cls in row:
            ok &= sorted(p for b in cls for p in b) == list(range(16))
    # 64-block TD whose derived design splits into the 4 row classes
    ok &= len(tpl.td_blocks) == 64
    for p in range(16):
        derived = sorted(
            tuple(q for q in b if q != p) for b in tpl.td_blocks if p in b
        )
        from_rows = sorted(t for j in range(4) for t in tpl.td_derived[p][j])
        ok &= derived == from_rows
        for j in range(4):
            ok &= len(tpl.td_derived[p][j]) == 4
    ok &= set(tpl.two_column_blocks) == set(two_column_blocks(range(4)))
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    report(5, ok, f"Boolean SQS(16) 140 blocks, 2-resolution + TD structure, {dt:.2f} s")


def test_criterion_6_star28(star28):
    t0 = time.perf_counter()
    d = catalog.sqs28()
    ok = len(d.blocks) == 819 == 117 * 7
    ok &= verify_steiner(d).passed
    rep = verify_star(star28)
    ok &= rep.passed and len(star28.per_point) == 28
    for cert in star28.per_point.values():
        classes = cert.all_classes()
        ok &= len(classes) == 27 and all(len(c) == 9 for c in classes)
        ok &= sum(len(c) for c in classes) == 243
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    report(6, ok, f"star-certified SQS(28), 27x9 multiset at all 28 points, {dt:.2f} s")


def test_criterion_7_rdsqs112(star28, tmp_path):
    t0 = time.perf_counter()
    asm = construct_rdsqs_4v(star28)
    dt_single = time.perf_counter() - t0
    d = asm.design
    ok = len(d.blocks) == 56980 == math.comb(112, 3) // 4
    ok &= verify_steiner(d).passed
    for p in range(112):
        res = asm.point_resolution(p)
        ok &= len(res.classes) == 55
        ok &= verify_resolution(res).passed
    ok &= dt_single < 300.0

    from quadsys.cli import main as cli_main

    t0 = time.perf_counter()
    code = cli_main(
        ["construct", str(_star_file(tmp_path)), str(tmp_path / "out"), "--jobs", "8"]
    )
    dt_workers = time.perf_counter() - t0
    ok &= code == 0 and dt_workers < 60.0
    report(
        7,
        ok,
        f"RDSQS(112): 56980 blocks, 112x55 classes, "
        f"{dt_single:.1f} s single-threaded, {dt_workers:.1f} s with 8 workers",
    )


def _star_file(tmp_path):
    from quadsys.formats import read_data

    path = tmp_path / "sqs28.star"
    path.write_text(read_data("sqs28_star.star"), encoding="utf-8")
    return path


def _mutation_fails(d, index):
    rebuild = lambda blocks: Design(d.t, d.sizes, d.labels, blocks, d.kind, d.groups)
    check = verify_gdd if d.groups else verify_steiner
    deleted = check(rebuild(d.blocks[:index] + d.blocks[index + 1:]))
    doubled = check(rebuild(d.blocks + (d.blocks[index],)))
    return bool(
        not deleted.passed and deleted.violations
        and not doubled.passed and doubled.violations
    )


def test_criterion_8_negative_controls():
    t0 = time.perf_counter()
    verdicts = confirm_rds(catalog.sqs8(), budget=10**6)
    ok = all(out.status == "none" for out in verdicts.values())

    mutations = 0
    for name in sorted(catalog.GENERATORS):
        d = catalog.GENERATORS[name]()
        for i in range(len(d.blocks)):
            ok &= _mutation_fails(d, i)
            mutations += 2
    dt = time.perf_counter() - t0
    report(8, ok, f"SQS(8) not RDS (proof, no exhaustion); {mutations} mutations all caught, {dt:.1f} s")


def test_criterion_9_oracle_agreement():
    t0 = time.perf_counter()
    ok = True
    # instances (<= 45 points) with both a shipped and a searched resolution
    d22 = catalog.sqs22()
    shipped22 = catalog.sqs22_resolutions()
    for label in ("inf_0", "5"):
        blocks, ground = derived_instance(d22, label)
        out = find_resolution(blocks, ground, budget=2 * 10**7)
        ok &= out.found
        ok &= verify_resolution(out.resolution).passed
        ok &= verify_resolution(shipped22[label]).passed
        ok &= sorted(out.resolution.target) == sorted(shipped22[label].target)

    g24 = catalog.rdgdd24()
    shipped24 = catalog.rdgdd24_resolutions()
    for label in ("0_0", "inf_2"):
        xid = g24.design.point(label)
        drop = set(g24.groups[g24.group_of[xid]])
        ground = [p for p in range(g24.design.v) if p not in drop]
        blocks = [
            tuple(p for p in b if p != xid) for b in g24.design.blocks if xid in b
        ]
        out = find_resolution(blocks, ground, budget=10**7)
        ok &= out.found
        ok &= verify_resolution(out.resolution).passed
        ok &= verify_resolution(shipped24[label]).passed

    # constructed certificate vs search on a derived KTS(15)
    d16 = catalog.sqs16()
    verdicts = confirm_rds(d16, budget=10**6)
    ok &= all(v.found for v in verdicts.values())
    dt = time.perf_counter() - t0
    report(9, ok, f"oracle and certificates agree on all sampled instances, {dt:.1f} s")
