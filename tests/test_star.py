import random
from collections import Counter

import pytest

from quadsys import (
    DataIntegrityError,
    Shift,
    StarCertificate,
    StarGroup,
    StarPointCertificate,
    catalog,
    verify_star,
    verify_star_point,
)
from quadsys.formats import parse_star, read_data
from quadsys.core import VerifyReport, derived_frame, is_partition, mover
from quadsys.star import star_multiset


@pytest.fixture(scope="module")
def d28():
    return catalog.sqs28()


@pytest.fixture(scope="module")
def seeds(d28):
    return parse_star(read_data("sqs28_star.star"), d28)


def test_seed_certificates_verify(d28, seeds):
    for label in ("0_0", "0_1", "0_2", "0_3"):
        rep = verify_star_point(d28, seeds[label])
        assert rep.passed, (label, rep.violations[:3])
        assert rep.counts["classes"] == 27
        assert rep.counts["multiset"] == 243


def test_multiset_identity(d28, seeds):
    # |M| = 3*(v-1)/3 + 2*((v-1)(v-2)/6 - (v-1)/3) = (v-1)^2/3 = 243 for v=28
    cert = seeds["0_0"]
    target = derived_frame(d28, cert.point)[1]
    assert len(target) == 27 * 26 // 6
    m = star_multiset(target, cert.special)
    assert len(m) == 27 * 27 // 3 == 243
    assert Counter(m) == Counter(target + target + cert.special)
    union = Counter()
    for grp in cert.groups:
        for cls in grp.classes:
            union.update(cls)
    assert union == Counter(m)


def test_common_triple_shared_by_its_three_classes(d28, seeds):
    cert = seeds["0_2"]
    for grp in cert.groups:
        for cls in grp.classes:
            assert grp.common in cls
    # non-special triples appear in exactly two of the 27 classes
    union = Counter()
    for grp in cert.groups:
        for cls in grp.classes:
            union.update(cls)
    specials = set(cert.special)
    for tri, count in union.items():
        assert count == (3 if tri in specials else 2)


def test_translated_certificate_verifies(d28, seeds):
    # the shipped file keeps the cyclic structure of the certificate:
    # its 3_0 is the +3 mod 7 image of its 0_0
    move = mover(d28.labels, Shift(3, 7))

    def move_class(cls):
        return tuple(sorted(map(move, cls)))

    cert = seeds["0_0"]
    (point,) = move((cert.point,))
    image = StarPointCertificate(
        point=point,
        special=move_class(cert.special),
        groups=tuple(
            StarGroup(common=move(g.common), classes=tuple(map(move_class, g.classes)))
            for g in cert.groups
        ),
    )
    assert d28.labels[image.point].text == "3_0"
    assert image == seeds["3_0"]
    assert verify_star_point(d28, image).passed


def test_expand_covers_every_point_once(star28):
    assert len(star28.per_point) == 28
    assert sorted(star28.per_point) == list(range(28))


def test_full_star_certificate_verifies(star28):
    rep = verify_star(star28)
    assert rep.passed, rep.violations[:4]
    assert rep.counts == {"points": 28, "blocks": 819}


def test_certificate_keeps_one_star_proof(d28, seeds, star_point_proofs):
    cert = StarCertificate(d28, {c.point: c for c in seeds.values()})
    assert cert.report is cert.report and cert.report.passed
    assert sorted(star_point_proofs) == list(range(28))


def test_catalog_rejects_a_star_certificate_that_fails(star28, monkeypatch):
    pc = star28.per_point[5]
    bad = StarPointCertificate(point=5, special=pc.special, groups=pc.groups[1:])
    per_point = {**star28.per_point, 5: bad}
    monkeypatch.setattr(
        "quadsys.catalog.StarCertificate",
        lambda d, _: StarCertificate(design=d, per_point=per_point),
    )
    catalog.sqs28_star.cache_clear()
    try:
        with pytest.raises(DataIntegrityError, match="star certificate failed"):
            catalog.sqs28_star()
    finally:
        catalog.sqs28_star.cache_clear()


def test_corrupted_common_triple_fails(d28, seeds):
    cert = seeds["0_0"]
    other = seeds["0_0"].groups[1].common
    bad_groups = (StarGroup(common=other, classes=cert.groups[0].classes),) + cert.groups[1:]
    bad = StarPointCertificate(point=cert.point, special=cert.special, groups=bad_groups)
    rep = verify_star_point(d28, bad)
    assert not rep.passed
    assert any("common" in kind for kind, _ in rep.violations)


def test_shuffled_class_fails_multiset_count(d28, seeds):
    cert = seeds["0_1"]
    g0 = cert.groups[0]
    g1 = cert.groups[1]
    swapped = (
        StarGroup(common=g0.common, classes=(g1.classes[0],) + g0.classes[1:]),
        StarGroup(common=g1.common, classes=(g0.classes[0],) + g1.classes[1:]),
    ) + cert.groups[2:]
    bad = StarPointCertificate(point=cert.point, special=cert.special, groups=swapped)
    assert not verify_star_point(d28, bad).passed


def test_certificate_missing_a_point_fails(star28):
    partial = dict(star28.per_point)
    partial.pop(5)
    rep = verify_star(StarCertificate(design=star28.design, per_point=partial))
    assert not rep.passed
    assert ("point without certificate", "1_1") in rep.violations


def test_wrong_design_fails(star28):
    rep = verify_star(
        StarCertificate(design=catalog.sqs22(), per_point=star28.per_point)
    )
    assert not rep.passed


def _reference_verify_star_point(d, cert):
    """The tally-based check ``verify_star_point`` replaced, kept as an
    independent reference: the class multiset is compared with M as
    ``Counter``s instead of through ``verify_resolution``."""
    rep = VerifyReport()
    ground, target = derived_frame(d, cert.point)
    n = (d.v - 1) // 3
    bx = Counter(target)
    bad = is_partition(cert.special, ground)
    if bad is not None:
        rep.flag(f"special class: {bad[0]}", bad[1])
    for b in cert.special:
        if b not in bx:
            rep.flag("special triple not a derived block", b)
    if len(cert.groups) != n:
        rep.flag("group count", len(cert.groups))
    if Counter(grp.common for grp in cert.groups) != Counter(cert.special):
        rep.flag("common triples do not equal the special class", None)
    union = Counter()
    for gi, grp in enumerate(cert.groups):
        for li, cls in enumerate(grp.classes):
            if grp.common not in cls:
                rep.flag(f"group {gi} class {li} misses its common triple", grp.common)
            bad = is_partition(cls, ground)
            if bad is not None:
                rep.flag(f"group {gi} class {li}: {bad[0]}", bad[1])
            union.update(cls)
    m = Counter({b: 2 * c for b, c in bx.items()})
    m.update(cert.special)
    if union != m:
        rep.flag("class multiset differs from M", None)
    return rep


def _with_group(cert, gi, **changes):
    groups = list(cert.groups)
    groups[gi] = StarGroup(**{"common": groups[gi].common,
                              "classes": groups[gi].classes, **changes})
    return StarPointCertificate(point=cert.point, special=cert.special, groups=tuple(groups))


def _swap_triple(d, cert, rng):
    (ga, la), (gb, lb) = rng.sample([(g, c) for g in range(9) for c in range(3)], 2)
    a = list(cert.groups[ga].classes[la])
    b = list(cert.groups[gb].classes[lb])
    i, j = rng.choice([(i, j) for i in range(len(a)) for j in range(len(b)) if a[i] != b[j]])
    a[i], b[j] = b[j], a[i]
    cert = _with_group(cert, ga, classes=tuple(
        tuple(a) if c == la else cls for c, cls in enumerate(cert.groups[ga].classes)))
    return _with_group(cert, gb, classes=tuple(
        tuple(b) if c == lb else cls for c, cls in enumerate(cert.groups[gb].classes)))


def _drop_class(d, cert, rng):
    gi, li = rng.randrange(9), rng.randrange(3)
    classes = cert.groups[gi].classes
    return _with_group(cert, gi, classes=classes[:li] + classes[li + 1:])


def _duplicate_class(d, cert, rng):
    gi, li = rng.randrange(9), rng.randrange(3)
    classes = cert.groups[gi].classes
    return _with_group(cert, gi, classes=classes + (classes[li],))


def _corrupt_common(d, cert, rng):
    gi, gj = rng.sample(range(9), 2)
    return _with_group(cert, gi, common=cert.groups[gj].common)


def _move_class(d, cert, rng):
    gi, gj = rng.sample(range(9), 2)
    li = rng.randrange(3)
    moved = cert.groups[gi].classes[li]
    cert = _with_group(cert, gj, classes=cert.groups[gj].classes + (moved,))
    classes = cert.groups[gi].classes
    return _with_group(cert, gi, classes=classes[:li] + classes[li + 1:])


def _replace_special(d, cert, rng):
    target = derived_frame(d, cert.point)[1]
    i = rng.randrange(len(cert.special))
    other = rng.choice([b for b in target if b not in cert.special])
    special = cert.special[:i] + (other,) + cert.special[i + 1:]
    return StarPointCertificate(point=cert.point, special=special, groups=cert.groups)


@pytest.mark.parametrize("mutate", [
    _swap_triple, _drop_class, _duplicate_class, _corrupt_common, _move_class,
    _replace_special,
])
def test_star_point_check_agrees_with_the_tally_reference(d28, seeds, mutate):
    rng = random.Random(0)
    for label in ("0_0", "0_1", "0_2", "0_3"):
        cert = seeds[label]
        assert verify_star_point(d28, cert).passed
        assert _reference_verify_star_point(d28, cert).passed
        for _ in range(5):
            bad = mutate(d28, cert, rng)
            assert bad != cert
            new = verify_star_point(d28, bad)
            ref = _reference_verify_star_point(d28, bad)
            assert new.passed == ref.passed is False, (label, mutate.__name__)
