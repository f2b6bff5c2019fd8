import dataclasses
import itertools
import math
from collections import Counter

import pytest

from quadsys import (
    DataIntegrityError,
    StarGroup,
    StarPointCertificate,
    catalog,
    construct_rdsqs_4v,
    verify_gdd,
    verify_resolution,
    verify_steiner,
)
from quadsys import quadruple
from quadsys.core import lift
from quadsys.formats import emit_design
from quadsys.quadruple import (
    FACTORIZATION,
    QuadrupleAssembly,
    assemble_design,
    boolean_sqs16,
    checked_assembly,
    occurrence_map,
    rdtd_blocks,
    template,
    two_column_blocks,
    verify_template,
)
from quadsys.star import StarCertificate


# ---------------------------------------------------------------------------
# the template and the Boolean SQS(16)


def test_template_invariants_all_verify():
    rep = verify_template()
    assert rep.passed, rep.violations[:4]


def _exchange(nested, i, j):
    """``nested`` tuples with the members at index paths i and j exchanged."""
    def get(t, path):
        for k in path:
            t = t[k]
        return t

    def put(t, path, x):
        if not path:
            return x
        k = path[0]
        return t[:k] + (put(t[k], path[1:], x),) + t[k + 1:]

    a, b = get(nested, i), get(nested, j)
    return put(put(nested, i, b), j, a)


@pytest.mark.parametrize("field, i, j, kind", [
    ("e_derived", (3, 0, 0), (3, 1, 0), "derived classes at 3 are not a resolution"),
    ("td_derived", (3, 0, 0), (3, 1, 0), "derived TD classes at 3 are not a resolution"),
    ("row_classes", (1, 0, 0), (1, 1, 0), "row orbits are not a resolution"),
    ("td_row_classes", (0, 0, 0), (1, 0, 0), "TD row orbits are not a resolution"),
])
def test_verify_template_rejects_a_swapped_member(monkeypatch, field, i, j, kind):
    tpl = template()
    bad = dataclasses.replace(tpl, **{field: _exchange(getattr(tpl, field), i, j)})
    assert getattr(bad, field) != getattr(tpl, field)
    monkeypatch.setattr(quadruple, "template", lambda: bad)
    verify_template.cache_clear()
    try:
        rep = verify_template()
    finally:
        verify_template.cache_clear()
        template.cache_clear()
    assert not rep.passed
    assert kind in [k for k, _ in rep.violations], rep.violations


def test_boolean_sqs16_is_the_zero_sum_design():
    d = boolean_sqs16()
    # independent oracle: enumerate quadruples with xor-sum zero
    want = sorted(
        b for b in itertools.combinations(range(16), 4)
        if b[0] ^ b[1] ^ b[2] ^ b[3] == 0
    )
    assert list(d.blocks) == want
    assert len(d.blocks) == 140 == math.comb(16, 3) // math.comb(4, 3)
    assert verify_steiner(d).passed


def test_every_block_orbit_is_a_parallel_class():
    # a zero-sum quadruple is a coset of a 2-dimensional subspace, so its
    # orbit under translation has size 4 and partitions GF(16)
    tpl = template()
    for row in tpl.row_classes:
        for cls in row:
            assert len(cls) == 4
            assert sorted(p for b in cls for p in b) == list(range(16))


def test_rows_develop_to_resolvable_s2_designs():
    tpl = template()
    for row in tpl.row_classes:
        flat = [b for cls in row for b in cls]
        assert len(flat) == 20
        pair_cover = Counter()
        for b in flat:
            pair_cover.update(itertools.combinations(b, 2))
        assert set(pair_cover.values()) == {1}
        assert len(pair_cover) == math.comb(16, 2)


def test_two_column_blocks_counts():
    assert len(two_column_blocks(range(2))) == 12
    assert len(two_column_blocks(range(4))) == 72
    assert len(two_column_blocks(range(28))) == 12 * math.comb(28, 2) == 4536


def test_remainder_orbits_equal_two_column_blocks():
    # computed independently from the one-factorization definition
    want = set()
    for x, y in itertools.combinations(range(4), 2):
        for s in range(3):
            for a, b in FACTORIZATION[s]:
                for c, d in FACTORIZATION[s]:
                    want.add(tuple(sorted((4 * x + a, 4 * x + b, 4 * y + c, 4 * y + d))))
    assert set(template().two_column_blocks) == want


def test_rdtd_blocks_verify_per_instance():
    from quadsys.core import Gdd, Label, make_design

    block = (3, 9, 17, 20)
    blocks = rdtd_blocks(block)
    assert len(blocks) == 64
    points = sorted({p for b in blocks for p in b})
    assert points == sorted(4 * x + i for x in block for i in range(4))
    dense = {p: n for n, p in enumerate(points)}
    labels = tuple(Label.pair(x, j) for x in block for j in range(4))
    design = make_design(
        3, {4}, labels, [tuple(dense[p] for p in b) for b in blocks], kind="TD"
    )
    gdd = Gdd(design=design, groups=tuple(
        tuple(range(4 * a, 4 * a + 4)) for a in range(4)
    ))
    assert verify_gdd(gdd).passed
    assert sorted(map(len, gdd.groups)) == [4] * 4


def test_td_derived_classes_partition_for_every_point():
    tpl = template()
    for p in range(16):
        ground = [q for q in range(16) if q != p and q // 4 != p // 4]
        used = Counter()
        for j in range(4):
            cls = tpl.td_derived[p][j]
            assert sorted(q for tri in cls for q in tri) == sorted(ground)
            used.update(cls)
        # the four derived classes exhaust the 16 derived TD triples
        assert sum(used.values()) == 16 and set(used.values()) == {1}


def e_classes(b4, x, i):
    """The 7 derived classes at (x,i) of the SQS(16) copy on b4 x Z4, lifted
    from the template (class 6 holds the column triple through (x,i))."""
    bs = sorted(b4)
    return tuple(lift(cls, bs, 4) for cls in template().e_derived[4 * bs.index(x) + i])


def test_e_classes_structure():
    b4 = (2, 5, 11, 26)
    for x in b4:
        for i in range(4):
            classes = e_classes(b4, x, i)
            assert len(classes) == 7
            p = 4 * x + i
            ground = sorted(4 * y + j for y in b4 for j in range(4) if 4 * y + j != p)
            for cls in classes:
                assert len(cls) == 5
                assert sorted(q for tri in cls for q in tri) == ground
            degenerate = tuple(q for q in range(4 * x, 4 * x + 4) if q != p)
            assert degenerate in classes[6]
            assert all(degenerate not in cls for cls in classes[:6])


# ---------------------------------------------------------------------------
# assembly


def test_assemble_design_block_count(star28):
    d = assemble_design(star28)
    assert d.v == 112
    assert len(d.blocks) == 819 * 64 + 4536 + 28 == 56980
    assert len(d.blocks) == math.comb(112, 3) // math.comb(4, 3)


def test_replication_number(assembly112):
    d = assembly112.design
    count = Counter()
    for b in d.blocks:
        count.update(b)
    assert set(count.values()) == {111 * 110 // 6}


def test_family_shapes_are_disjoint(star28):
    d = assemble_design(star28)
    shapes = Counter(len({p // 4 for p in b}) for b in d.blocks)
    assert shapes[4] == 819 * 64
    assert shapes[2] == 4536
    assert shapes[1] == 28


def test_assembled_design_is_steiner(assembly112):
    rep = verify_steiner(assembly112.design)
    assert rep.passed
    assert rep.counts["blocks"] == 56980


def test_occurrence_ledger_balances(star28):
    pc = star28.per_point[11]
    occ = occurrence_map(pc)
    per_triple = Counter(tri for (_, _, tri) in occ)
    assert set(per_triple.values()) == {2}
    assert set(occ.values()) == {0, 1}
    # replication of the 28-point system is 27*26/6 = 117 blocks per point,
    # of which 9 form the special class: 108 twice-occurring triples
    assert len(per_triple) == 117 - 9


def test_point_resolution_shape(assembly112):
    res = assembly112.point_resolution(45)
    assert len(res.classes) == 55 == 2 * 28 - 1
    assert all(len(cls) == 37 for cls in res.classes)
    assert len(res.target) == 111 * 110 // 6
    assert verify_resolution(res).passed


def test_all_point_resolutions_verify(assembly112):
    for p in range(112):
        assert verify_resolution(assembly112.point_resolution(p)).passed


def test_derived_td_classes_used_exactly_once_per_block(star28, assembly112):
    # fix x; across all (k,l,r) classes, each derived TD class index 0..3 of
    # every block through x outside the special class is consumed exactly once
    x, i = 7, 2
    pc = star28.per_point[x]
    occ = occurrence_map(pc)
    used = Counter()
    for k, grp in enumerate(pc.groups):
        for l, cls in enumerate(grp.classes):
            for r in (0, 1):
                for tri in cls:
                    if tri == grp.common:
                        continue
                    used[(tri, r + 2 * occ[(k, l, tri)])] += 1
    per_block = Counter(tri for tri, _ in used)
    assert set(per_block.values()) == {4}
    assert set(used.values()) == {1}


def test_corrupted_certificate_fails_loudly(star28):
    pc = star28.per_point[0]
    g0, g1 = pc.groups[0], pc.groups[1]
    swapped = (
        StarGroup(common=g0.common, classes=(g1.classes[0],) + g0.classes[1:]),
        StarGroup(common=g1.common, classes=(g0.classes[0],) + g1.classes[1:]),
    ) + pc.groups[2:]
    bad_pc = StarPointCertificate(point=pc.point, special=pc.special, groups=swapped)
    per_point = dict(star28.per_point)
    per_point[0] = bad_pc
    bad_cert = StarCertificate(design=star28.design, per_point=per_point)
    asm = QuadrupleAssembly(bad_cert)
    # point_resolution only assembles; verify_resolution is the proof
    for p in range(4):
        assert not verify_resolution(asm.point_resolution(p)).passed, p


def test_construct_rdsqs_4v_fails_loudly_at_a_point_whose_classes_are_corrupted(
    star28, monkeypatch
):
    point_classes = QuadrupleAssembly.point_classes

    def corrupted(self, p):  # one triple swapped between two classes at 11_1
        classes = point_classes(self, p)
        if p != 45:
            return classes
        one, two = list(classes[0]), list(classes[1])
        one[0], two[0] = two[0], one[0]
        return (tuple(sorted(one)), tuple(sorted(two))) + classes[2:]

    monkeypatch.setattr(QuadrupleAssembly, "point_classes", corrupted)
    with pytest.raises(DataIntegrityError, match="^derived resolution at 11_1 failed$"):
        construct_rdsqs_4v(star28)


def test_assembly_rejects_a_certificate_that_fails(star28):
    pc = star28.per_point[5]
    bad = StarPointCertificate(point=5, special=pc.special, groups=pc.groups[1:])
    cert = StarCertificate(design=star28.design, per_point={**star28.per_point, 5: bad})
    with pytest.raises(DataIntegrityError, match="star certificate failed"):
        checked_assembly(cert)
    with pytest.raises(DataIntegrityError, match="star certificate failed"):
        construct_rdsqs_4v(cert)


def test_library_path_proves_each_star_point_once(star_point_proofs):
    # sqs28_star proves the certificate and construct_rdsqs_4v requires
    # the same proof: one run at each of the 28 points, not two
    catalog.sqs28_star.cache_clear()
    try:
        asm = construct_rdsqs_4v(catalog.sqs28_star())
    finally:
        catalog.sqs28_star.cache_clear()
    assert asm.design.v == 112
    assert sorted(star_point_proofs) == list(range(28))


def test_construction_is_deterministic(star28, assembly112):
    again = QuadrupleAssembly(star28)
    assert emit_design(again.design) == emit_design(assembly112.design)
    assert again.point_resolution(3).classes == assembly112.point_resolution(3).classes


def reference_point_resolution(asm, p):
    """point_resolution as it stood before the per-star-point plan: the
    occurrence of every triple looked up, and its rows lifted, per point."""
    x, i = divmod(p, 4)
    pc = asm.cert.per_point[x]
    occ = occurrence_map(pc)
    td_derived = template().td_derived
    degenerate = tuple(q for q in range(4 * x, 4 * x + 4) if q != p)
    classes, final = [], [degenerate]
    for k, grp in enumerate(pc.groups):
        e_cls = e_classes(grp.common + (x,), x, i)
        final.extend(b for b in e_cls[6] if b != degenerate)
        for l, cls in enumerate(grp.classes):
            first, second = [], []
            for tri in cls:
                if tri == grp.common:
                    continue
                bb = sorted(tri + (x,))
                rows = td_derived[4 * bb.index(x) + i]
                o = 2 * occ[(k, l, tri)]
                first.extend(lift(rows[o], bb, 4))
                second.extend(lift(rows[o + 1], bb, 4))
            for r, blocks in enumerate((first, second)):
                blocks.extend(e_cls[2 * l + r])
                classes.append(tuple(sorted(blocks)))
    classes.append(tuple(sorted(final)))
    return tuple(classes)


def test_point_resolution_holds_one_plan_whatever_the_point_order(star28):
    asm = QuadrupleAssembly(star28)
    # fibres of one star point apart, in turn and out of turn
    order = [45, 2, 44, 111, 3, 46, 0, 47, 108]
    for p in order:
        assert asm.point_resolution(p).classes == reference_point_resolution(asm, p), p
        assert asm._plan_x == p // 4  # only the current star point's plan is held
