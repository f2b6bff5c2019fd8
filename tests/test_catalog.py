import itertools
import math
import random

import pytest

from quadsys import (
    ConstructionError,
    DuplicateBlockError,
    Gdd,
    Label,
    ParameterError,
    Shift,
    TableError,
    catalog,
    develop,
    make_design,
    verify_gdd,
    verify_resolution,
    verify_steiner,
)
from quadsys.core import VerifyReport, mover
from quadsys.catalog import (
    CongruenceRule,
    audit_rules,
    congruence_td,
    expand_label,
    fill_gdd,
    rule_table_24,
    rule_table_42,
)


def steiner_block_count(t, k, v):
    return math.comb(v, t) // math.comb(k, t)


# ---------------------------------------------------------------------------
# orbit development


@pytest.mark.parametrize(
    "name,v,blocks",
    [("sqs8", 8, 14), ("sqs14", 14, 91), ("sqs22", 22, 385), ("sqs28", 28, 819)],
)
def test_catalog_systems_develop_and_verify(name, v, blocks):
    d = catalog.GENERATORS[name]()
    assert d.v == v
    assert len(d.blocks) == blocks == steiner_block_count(3, 4, v)
    assert verify_steiner(d).passed


def test_short_orbit_of_0_7_14_infinity_has_length_7():
    labels = tuple(Label.plain(n) for n in range(21)) + (Label.inf(0),)
    base = (Label.plain(0), Label.plain(7), Label.plain(14), Label.inf(0))
    d = develop(labels, (base,), Shift(1, 21))
    assert len(d.blocks) == 7


def test_develop_rejects_overlapping_orbits():
    labels = tuple(Label.plain(n) for n in range(7))
    bases = (
        tuple(Label.plain(n) for n in (0, 1, 2, 5)),
        tuple(Label.plain(n) for n in (1, 2, 3, 6)),  # same orbit, shifted
    )
    with pytest.raises(DuplicateBlockError):
        develop(labels, bases, Shift(1, 7))


@pytest.mark.parametrize(
    "action,message",
    [(Shift(1, 6), "not a bijection"), (Shift(1, 9), "outside the point set")],
    ids=["mod 6 on 8 labels", "mod 9 on 8 labels"],
)
def test_develop_rejects_actions_that_do_not_permute_the_labels(action, message):
    # mod 6, the orbit of {0,1,2,5} closes inside 0..5 although 6 and 7
    # collide with 0 and 1
    labels = tuple(Label.plain(n) for n in range(8))
    bases = (tuple(Label.plain(n) for n in (0, 1, 2, 5)),)
    with pytest.raises(ParameterError, match=message):
        develop(labels, bases, action)


def test_sqs14_orbits_all_have_length_7():
    d = catalog.sqs14()
    assert len(d.blocks) == 13 * 7


# ---------------------------------------------------------------------------
# congruence rules


def _label_key(lab):
    """Label order for the tests' one-block masters and references:
    infinity labels last."""
    return (1, lab.i, 0) if lab.kind == "inf" else (0, lab.a, lab.i)


def _one_block_fill(rule):
    """``fill_gdd`` of a one-block master on the rule's points, in label order:
    the rule's TD(3,4,3), ids in label order."""
    master = make_design(3, {4}, sorted(rule.points, key=_label_key), [(0, 1, 2, 3)])
    return fill_gdd(master, {(0, 1, 2, 3): rule})


def test_td343_from_constant_rule():
    rule = CongruenceRule(
        points=tuple(Label.plain(n) for n in (0, 1, 2, 5)),
        coeffs=(1, 1, 1, 1),
        rhs=(0, 0, 0),
    )
    g = _one_block_fill(rule)
    assert len(g.design.blocks) == 27
    assert sorted(map(len, g.groups)) == [3] * 4
    assert verify_gdd(g).passed
    for b in g.design.blocks:
        assert len({p // 3 for p in b}) == 4  # ids are grouped in threes


def test_td343_from_tabulated_rule():
    rule = CongruenceRule(
        points=tuple(Label.plain(n) for n in (4, 5, 6, 2)),
        coeffs=(1, 1, -1, 1),
        rhs=(0, 2, 1),
    )
    g = _one_block_fill(rule)
    assert len(g.design.blocks) == 27
    assert verify_gdd(g).passed


def test_td343_brute_force_cross_triple_coverage():
    rule = rule_table_24()[0]
    g = _one_block_fill(rule)
    blocks = set(g.design.blocks)
    gof = g.group_of
    cover = {
        sub: 0
        for sub in itertools.combinations(range(12), 3)
        if len({gof[p] for p in sub}) == 3
    }
    for b in blocks:
        for sub in itertools.combinations(b, 3):
            cover[sub] += 1
    assert set(cover.values()) == {1}


def test_rule_tables_expand_to_the_documented_row_counts():
    assert len(rule_table_24()) == 14
    assert len(rule_table_42()) == 22


def test_audit_rules_matches_documented_rows():
    d8 = catalog.sqs8()
    block = tuple(sorted(d8.point(x) for x in ("inf_0", "2", "3", "5")))
    rule = audit_rules(d8, rule_table_24(), default=None)[block]
    assert [lab.text for lab in rule.points] == ["inf_0", "2", "3", "5"]
    assert rule.rhs == (0, 0, 0)

    d14 = catalog.sqs14()
    block = tuple(sorted(d14.point(x) for x in ("0", "2", "7", "9")))
    rule = audit_rules(d14, rule_table_42(), default=catalog._DEFAULT_SUM0)[block]
    assert rule.rhs == (2, 1, 0)
    assert rule.coeffs == (1, 1, 1, 1)
    # a block with no row takes the default congruence on its own points
    block = tuple(sorted(d14.point(x) for x in ("0", "1", "2", "3")))
    rule = audit_rules(d14, rule_table_42(), default=catalog._DEFAULT_SUM0)[block]
    assert [lab.text for lab in rule.points] == ["0", "1", "2", "3"]
    assert (rule.coeffs, rule.rhs) == ((1, 1, 1, 1), (0, 0, 0))


def test_audit_rules_matches_every_block_exactly_once():
    d8 = catalog.sqs8()
    rules = audit_rules(d8, rule_table_24(), default=None)
    assert len(rules) == 14
    assert list(rules) == list(d8.blocks)
    d14 = catalog.sqs14()
    rules42 = audit_rules(d14, rule_table_42(), default=catalog._DEFAULT_SUM0)
    assert len(rules42) == 91
    explicit = {frozenset(r.points) for r in rule_table_42()}
    defaulted = sum(
        1 for b, r in rules42.items() if frozenset(r.points) not in explicit
    )
    assert defaulted == 91 - 22


def _table_error(*args):
    with pytest.raises(TableError) as err:
        audit_rules(*args)
    return str(err.value)


def test_audit_rules_without_default_raises_on_a_block_with_no_row():
    d8 = catalog.sqs8()
    # row 0 is the only row for the block inf_0 0 1 3
    assert sorted(map(d8.point, rule_table_24()[0].points)) == [0, 1, 3, 7]
    assert _table_error(d8, rule_table_24()[1:], None) == "block (0, 1, 3, 7) matches no row"
    # with a default, the same table is complete
    assert len(audit_rules(d8, rule_table_24()[1:], catalog._DEFAULT_SUM0)) == 14


def test_audit_rejects_a_repeated_row_and_a_repeated_block():
    d8 = catalog.sqs8()
    table = rule_table_24()
    assert _table_error(d8, table + (table[3],), None) == "row 14 duplicates an earlier row"
    twice = make_design(3, {4}, d8.labels, d8.blocks + d8.blocks[:1])
    assert _table_error(twice, table, None) == "design has repeated blocks"


def test_audit_rejects_rows_that_are_not_blocks():
    d8 = catalog.sqs8()
    bogus = CongruenceRule(
        points=tuple(Label.plain(n) for n in (0, 1, 2, 3)),
        coeffs=(1, 1, 1, 1),
        rhs=(0, 0, 0),
    )
    assert _table_error(d8, rule_table_24() + (bogus,), None) == (
        "row 14 (['0', '1', '2', '3']) is not a block"
    )


# ---------------------------------------------------------------------------
# filled GDDs


def test_rdgdd24_block_count_and_verification():
    g = catalog.rdgdd24()
    assert len(g.design.blocks) == 14 * 27 == 378
    assert sorted(map(len, g.groups)) == [3] * 8
    assert verify_gdd(g).passed


def test_rdgdd42_block_count_and_verification():
    g = catalog.rdgdd42()
    assert len(g.design.blocks) == 91 * 27 == 2457
    assert sorted(map(len, g.groups)) == [3] * 14
    assert verify_gdd(g).passed


def test_fill_gdd_of_single_block_master_is_the_td_itself():
    labels = tuple(Label.plain(n) for n in range(4))
    master = make_design(3, {4}, labels, [(0, 1, 2, 3)], kind="RAW")
    rule = CongruenceRule(
        points=labels, coeffs=(1, 1, 1, 1), rhs=(0, 0, 0)
    )
    filled = fill_gdd(master, {(0, 1, 2, 3): rule})
    assert filled.design.blocks == congruence_td(rule.coeffs, rule.rhs)
    assert filled.groups == tuple(tuple(range(3 * k, 3 * k + 3)) for k in range(4))
    assert filled.design.labels == tuple(
        Label.pair(k, j) for k in range(4) for j in range(3)
    )


def _reference_td343(rule):
    """The per-block TD(3,4,3) the catalog built before it lifted one
    proved TD per congruence, kept as an independent reference."""
    if any(c not in (1, -1) for c in rule.coeffs):
        raise ParameterError("congruence coefficients must be +1 or -1")
    labels = sorted(
        (expand_label(lab, j) for lab in rule.points for j in range(3)),
        key=_label_key,
    )
    index = {lab: i for i, lab in enumerate(labels)}
    c0, c1, c2, c3 = rule.coeffs
    inv3 = {1: 1, -1: 2}[c3]  # inverse of c3 mod 3
    blocks = []
    for x in range(3):
        for y in range(3):
            for z in range(3):
                u = (inv3 * (rule.rhs[x] - c0 * x - c1 * y - c2 * z)) % 3
                blocks.append(
                    (
                        index[expand_label(rule.points[0], x)],
                        index[expand_label(rule.points[1], y)],
                        index[expand_label(rule.points[2], z)],
                        index[expand_label(rule.points[3], u)],
                    )
                )
    design = make_design(3, {4}, labels, blocks, kind="TD")
    groups = tuple(
        sorted(
            tuple(sorted(index[expand_label(lab, j)] for j in range(3)))
            for lab in rule.points
        )
    )
    gdd = Gdd(design=design, groups=groups)
    report = verify_gdd(gdd)
    if not report.passed:
        raise ConstructionError(f"congruence rule is not a TD: {report.violations[:2]}")
    return gdd


def _reference_fill_gdd(master, rules, g=3):
    labels = sorted(
        (expand_label(lab, j) for lab in master.labels for j in range(g)),
        key=_label_key,
    )
    index = {lab: i for i, lab in enumerate(labels)}
    blocks = []
    for b in master.blocks:
        sub = _reference_td343(rules[b])
        sub_labels = sub.design.labels
        for blk in sub.design.blocks:
            blocks.append(tuple(sorted(index[sub_labels[p]] for p in blk)))
    design = make_design(master.t, {4}, labels, blocks, kind="GDD")
    groups = tuple(
        sorted(
            tuple(sorted(index[expand_label(lab, j)] for j in range(g)))
            for lab in master.labels
        )
    )
    return Gdd(design=design, groups=groups)


def _same_gdd(got, want):
    assert got.design.labels == want.design.labels
    assert got.design.blocks == want.design.blocks
    assert got.groups == want.groups


def _random_rules(master, rng, any_rhs=False):
    """A rule per master block: its points shuffled, the 16 sign patterns in
    turn, a random right-hand side (not reduced mod 3).  Unless ``any_rhs``,
    x -> rhs[x] - c0*x is onto Z3, which makes the rule a TD."""
    signs = list(itertools.product((1, -1), repeat=4))
    rules = {}
    for i, b in enumerate(master.blocks):
        points = [master.labels[p] for p in b]
        rng.shuffle(points)
        coeffs = signs[i % 16]
        onto = rng.sample(range(3), 3)
        rhs = tuple(
            onto[x] + coeffs[0] * x + 3 * rng.randrange(-1, 2) for x in range(3)
        )
        if any_rhs:
            rhs = tuple(rng.randrange(-4, 7) for _ in range(3))
        rules[b] = CongruenceRule(points=tuple(points), coeffs=coeffs, rhs=rhs)
    return rules


def test_lifted_fill_matches_the_per_block_reference():
    rng = random.Random(20261018)
    cases = [
        (catalog.sqs8(), audit_rules(catalog.sqs8(), rule_table_24(), default=None)),
        (
            catalog.sqs14(),
            audit_rules(catalog.sqs14(), rule_table_42(), default=catalog._DEFAULT_SUM0),
        ),
        (catalog.sqs8(), _random_rules(catalog.sqs8(), rng)),
        (catalog.sqs14(), _random_rules(catalog.sqs14(), rng)),
    ]
    for master, rules in cases:
        filled = fill_gdd(master, rules)
        _same_gdd(filled, _reference_fill_gdd(master, rules))
        assert filled.design.kind == "GDD"
        for rule in rules.values():
            _same_gdd(_one_block_fill(rule), _reference_td343(rule))
    assert {r.coeffs for r in cases[3][1].values()} == set(
        itertools.product((1, -1), repeat=4)
    )
    # a right-hand side that is not onto cuts out no TD, in both
    failures = 0
    for rule in _random_rules(catalog.sqs14(), rng, any_rhs=True).values():
        try:
            want = _reference_td343(rule)
        except ConstructionError:
            failures += 1
            with pytest.raises(ConstructionError):
                _one_block_fill(rule)
        else:
            _same_gdd(_one_block_fill(rule), want)
    assert 0 < failures < 91


def _clear_fill_caches():
    for fn in (catalog.congruence_td, catalog.sqs8, catalog.sqs14,
               catalog.rdgdd24, catalog.rdgdd42):
        fn.cache_clear()


def _count_td_proofs(monkeypatch):
    """The point count of every GDD ``catalog`` proves from now on."""
    proofs = []

    def counted(g, *args, **kwargs):
        proofs.append(g.design.v)
        return verify_gdd(g, *args, **kwargs)

    monkeypatch.setattr("quadsys.catalog.verify_gdd", counted)
    return proofs


@pytest.mark.parametrize("name", ["rdgdd24", "rdgdd42"])
def test_each_congruence_td_is_proved_once(name, monkeypatch):
    # both tables use 5 distinct congruences, over 14 and 91 master blocks
    proofs = _count_td_proofs(monkeypatch)
    _clear_fill_caches()
    try:
        catalog.GENERATORS[name]()
    finally:
        _clear_fill_caches()
    assert proofs == [12] * 5


def test_an_unreduced_rhs_shares_the_reduced_td_proof(monkeypatch):
    proofs = _count_td_proofs(monkeypatch)
    points = tuple(Label.plain(n) for n in range(4))
    _clear_fill_caches()
    try:
        fills = [
            _one_block_fill(CongruenceRule(points=points, coeffs=(1, 1, 1, 1), rhs=rhs))
            for rhs in ((0, 0, 0), (3, 3, 3))
        ]
    finally:
        _clear_fill_caches()
    assert fills[0].design.blocks == fills[1].design.blocks
    assert proofs == [12]


def test_fill_still_proves_the_td_and_checks_coefficients(monkeypatch):
    d8 = catalog.sqs8()
    rules = audit_rules(d8, rule_table_24(), default=None)
    points = rules[d8.blocks[0]].points
    bad = CongruenceRule(points=points, coeffs=(1, 1, 2, 1), rhs=(0, 0, 0))
    with pytest.raises(ParameterError, match="must be \\+1 or -1"):
        congruence_td(bad.coeffs, bad.rhs)
    with pytest.raises(ParameterError, match="must be \\+1 or -1"):
        fill_gdd(d8, {**rules, d8.blocks[0]: bad})
    not_onto = CongruenceRule(points=points, coeffs=(1, 1, 1, 1), rhs=(0, 1, 2))
    with pytest.raises(ConstructionError, match="not a TD"):
        fill_gdd(d8, {**rules, d8.blocks[0]: not_onto})

    failed = VerifyReport()
    failed.flag("forced failure", None)
    monkeypatch.setattr("quadsys.catalog.verify_gdd", lambda g: failed)
    _clear_fill_caches()
    try:
        with pytest.raises(ConstructionError, match="forced failure"):
            fill_gdd(d8, rules)
        with pytest.raises(ConstructionError, match="forced failure"):
            congruence_td(rule_table_24()[0].coeffs, rule_table_24()[0].rhs)
    finally:
        _clear_fill_caches()


# ---------------------------------------------------------------------------
# shipped resolutions


def test_shipped_resolutions_verify_at_every_point_of_rdgdd24():
    res = catalog.rdgdd24_resolutions()
    assert len(res) == 24
    for point, r in res.items():
        assert len(r.classes) == 9
        assert all(len(cls) == 7 for cls in r.classes)
        assert verify_resolution(r).passed, point


def test_shipped_resolutions_verify_at_every_point_of_rdgdd42():
    res = catalog.rdgdd42_resolutions()
    assert len(res) == 42
    for point, r in res.items():
        assert len(r.classes) == 18
        assert all(len(cls) == 13 for cls in r.classes)
        assert verify_resolution(r).passed, point


def test_sqs22_resolutions_listed_and_translated():
    d = catalog.sqs22()
    res = catalog.sqs22_resolutions()
    assert len(res) == 22
    first_inf = res["inf_0"].classes[0][0]
    assert tuple(d.labels[p].text for p in first_inf) == ("0", "1", "5")
    first_zero = res["0"].classes[0][0]
    assert {d.labels[p].text for p in first_zero} == {"1", "5", "inf_0"}
    for point, r in res.items():
        assert len(r.classes) == 10
        assert verify_resolution(r).passed, point


def test_sqs22_resolution_at_point_13_comes_from_translation():
    # the shipped file keeps the cyclic structure: its section at 13 is the
    # +13 mod 21 image of its section at 0
    d = catalog.sqs22()
    res = catalog.sqs22_resolutions()
    move = mover(d.labels, Shift(13, 21))
    moved = tuple(tuple(sorted(map(move, cls))) for cls in res["0"].classes)
    assert moved == res["13"].classes
    assert move(res["0"].ground) == res["13"].ground
    assert verify_resolution(res["13"]).passed


def test_corrupt_shipped_data_is_rejected_at_load(tmp_path, monkeypatch):
    import shutil

    from quadsys import DataIntegrityError
    from quadsys.formats import data_dir

    alt = tmp_path / "data"
    shutil.copytree(data_dir(), alt)
    path = alt / "sqs22_derived.res"
    text = path.read_text()
    # swap two block lines between classes of the first point section
    lines = text.splitlines()
    first = next(i for i, l in enumerate(lines) if l == "CLASS") + 1
    second = next(
        i for i, l in enumerate(lines[first:], start=first) if l == "CLASS"
    ) + 1
    lines[first], lines[second] = lines[second], lines[first]
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("DESIGN_DATA_DIR", str(alt))
    catalog.sqs22_resolutions.cache_clear()
    catalog.sqs22.cache_clear()
    try:
        with pytest.raises(DataIntegrityError):
            catalog.sqs22_resolutions()
    finally:
        monkeypatch.delenv("DESIGN_DATA_DIR")
        catalog.sqs22_resolutions.cache_clear()
        catalog.sqs22.cache_clear()


def test_shipped_data_orientation_anchors():
    # frozen spot values pin the data files against transposed labels or
    # regeneration drift; the full verification suite proves the rest
    g = catalog.rdgdd24()
    first = catalog.rdgdd24_resolutions()["inf_0"].classes[0]
    texts = {" ".join(g.design.labels[p].text for p in b) for b in first}
    assert "0_0 1_0 3_0" in texts

    g42 = catalog.rdgdd42()
    first42 = catalog.rdgdd42_resolutions()["0_0"].classes[0]
    texts42 = {" ".join(g42.design.labels[p].text for p in b) for b in first42}
    assert {"9_2 10_0 13_2", "1_2 2_2 3_2"} <= texts42

    d28 = catalog.sqs28()
    from quadsys.formats import parse_design, read_data

    raw = parse_design(read_data("sqs28_base.blocks"))
    base_texts = {
        " ".join(raw.labels[p].text for p in b) for b in raw.blocks
    }
    assert {"0_0 1_0 2_1 4_1", "0_0 0_1 0_2 0_3", "4_1 4_3 5_1 5_3"} <= base_texts

    cert = catalog.sqs28_star().per_point[d28.point("0_0")]
    special = [" ".join(d28.labels[p].text for p in b) for b in cert.special]
    assert special == [
        "3_3 5_2 6_1", "1_3 4_3 6_0", "1_2 4_0 6_2", "2_0 3_1 4_1",
        "2_2 3_0 4_2", "3_2 5_1 6_3", "1_0 2_3 5_3", "1_1 2_1 5_0",
        "0_1 0_2 0_3",
    ]
