from collections import Counter

import pytest

from quadsys import (
    DataIntegrityError,
    Shift,
    StarCertificate,
    StarGroup,
    StarPointCertificate,
    catalog,
    expand_certificate,
    verify_star,
    verify_star_point,
)
from quadsys.formats import parse_star, read_data
from quadsys.core import derived_frame
from quadsys.star import star_multiset, translate_star_point


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
    bx = Counter(derived_frame(d28, cert.point)[1])
    assert sum(bx.values()) == 27 * 26 // 6
    m = star_multiset(bx, cert.special)
    assert sum(m.values()) == 27 * 27 // 3 == 243
    union = Counter()
    for grp in cert.groups:
        for cls in grp.classes:
            union.update(cls)
    assert union == m


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
    cert = translate_star_point(d28, seeds["0_0"], Shift(3, 7))
    assert d28.labels[cert.point].text == "3_0"
    assert verify_star_point(d28, cert).passed


def test_expand_covers_every_point_once(star28):
    assert len(star28.per_point) == 28
    assert sorted(star28.per_point) == list(range(28))


def test_expand_rejects_duplicate_seeds(d28, seeds):
    by_id = {c.point: c for c in seeds.values()}
    extra = translate_star_point(d28, seeds["0_0"], Shift(1, 7))
    by_id[extra.point] = extra
    with pytest.raises(DataIntegrityError):
        expand_certificate(d28, by_id, Shift(1, 7), order=7)


def test_full_star_certificate_verifies(star28):
    rep = verify_star(star28)
    assert rep.passed, rep.violations[:4]
    assert rep.counts == {"points": 28, "blocks": 819}


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
    assert ("point without certificate", 5) in rep.violations


def test_wrong_design_fails(star28):
    rep = verify_star(
        StarCertificate(design=catalog.sqs22(), per_point=star28.per_point)
    )
    assert not rep.passed
