import itertools
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest

from quadsys import (
    Design,
    Gdd,
    Label,
    ParameterError,
    Resolution,
    Shift,
    admissible,
    catalog,
    core,
    derived_design,
    derived_frame,
    expected_block_count,
    formats,
    make_design,
    verify_gdd,
    verify_resolution,
    verify_steiner,
)
from quadsys.core import (
    MAX_WITNESSES,
    _coverage,
    _mismatches,
    VerifyReport,
    is_partition,
    mover,
    parse_label,
    plain_labels,
    subset_rank,
    subset_unrank,
)
from quadsys.star import star_multiset


def brute_force_coverage(design):
    """Independent oracle: count t-set coverage with plain dict arithmetic."""
    cover = {sub: 0 for sub in itertools.combinations(range(design.v), design.t)}
    for b in design.blocks:
        for sub in itertools.combinations(sorted(b), design.t):
            cover[sub] += 1
    return cover


# ---------------------------------------------------------------------------
# counting


@pytest.mark.parametrize(
    "t,k,v,count,exact",
    [
        (3, 4, 8, 14, True),
        (3, 4, 22, 22 * 21 * 20 // 24, True),
        (3, 4, 112, 112 * 111 * 110 // 24, True),
        (2, 3, 7, 7, True),
        (2, 3, 8, 28 // 3, False),
    ],
)
def test_expected_block_count(t, k, v, count, exact):
    assert expected_block_count(t, k, v) == (count, exact)


def test_expected_block_count_frozen_values():
    assert expected_block_count(3, 4, 22)[0] == 385
    assert expected_block_count(3, 4, 112)[0] == 56980


def test_expected_block_count_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        expected_block_count(4, 3, 10)
    with pytest.raises(ParameterError):
        expected_block_count(2, 11, 10)


def test_subset_rank_unrank_roundtrip():
    for sub in itertools.combinations(range(9), 3):
        assert subset_unrank(subset_rank(sub), 3) == sub
    ranks = sorted(subset_rank(s) for s in itertools.combinations(range(9), 3))
    assert ranks == list(range(math.comb(9, 3)))


# ---------------------------------------------------------------------------
# labels


def test_label_text_roundtrip():
    for lab in [Label.plain(17), Label.pair(3, 2), Label.inf(0), Label.inf(2)]:
        assert parse_label(lab.text) == lab


@pytest.mark.parametrize(
    "text", ["a^0", "a^15", "07", "1_01", "inf", "inf_00", "+3", "1_2_3", "inf_", "a^x", ""]
)
def test_parse_label_accepts_only_canonical_text(text):
    with pytest.raises(ValueError):
        parse_label(text)


def test_design_point_rejects_a_malformed_label_as_a_parameter_error():
    d = catalog.sqs8()
    assert d.point("inf_0") == 7
    for text in ("1_2_3", "07", "inf"):
        with pytest.raises(ParameterError, match=f"malformed point label '{text}'"):
            d.point(text)


def test_a_gf16_label_has_one_identity():
    # 0 and 1 print as plain integers, so they are the plain labels
    assert Label.f16(0) == Label.plain(0) and Label.f16(1) == Label.plain(1)
    for bits in range(16):
        assert parse_label(Label.f16(bits).text) == Label.f16(bits)
    d = catalog.sqs16()
    assert (d.point("0"), d.point("1"), d.point("a^1")) == (0, 1, 2)


def test_shift_action_fixes_infinity():
    s = Shift(3, 7)
    assert s(Label.pair(5, 2)) == Label.pair(1, 2)
    assert s(Label.inf(1)) == Label.inf(1)
    assert Shift(4, 7)(s(Label.plain(4))) == Label.plain(4)


# ---------------------------------------------------------------------------
# steiner verification against the brute-force oracle


def test_verify_steiner_agrees_with_brute_force_on_sqs8():
    d = catalog.sqs8()
    cover = brute_force_coverage(d)
    assert set(cover.values()) == {1}
    rep = verify_steiner(d)
    assert rep.passed
    assert rep.counts["blocks"] == 14


def test_verify_steiner_detects_each_deletion_and_duplication():
    d = catalog.sqs8()
    for i in range(len(d.blocks)):
        blocks = d.blocks[:i] + d.blocks[i + 1:]
        mutated = Design(d.t, d.sizes, d.labels, blocks, d.kind)
        rep = verify_steiner(mutated)
        assert not rep.passed
        kind, witness = rep.violations[0]
        assert "0 times" in kind or "2 times" in kind
        assert len(witness) == 3
        doubled = Design(d.t, d.sizes, d.labels, d.blocks + (d.blocks[i],), d.kind)
        assert not verify_steiner(doubled).passed


def test_deleted_block_uncovers_its_own_triples():
    d = catalog.sqs8()
    gone = d.blocks[5]
    mutated = Design(d.t, d.sizes, d.labels, d.blocks[:5] + d.blocks[6:], d.kind)
    rep = verify_steiner(mutated)
    witnesses = {w for kind, w in rep.violations if "0 times" in kind}
    assert witnesses == set(itertools.combinations(gone, 3))


# The previous coverage kernel and coverage verifiers, kept as written, as
# the reference for the unrolled kernel, the skipped group scan and the
# integer mismatch walk.


def reference_coverage(blocks, t, v):
    counts = bytearray(math.comb(v, t))
    tabs = [[math.comb(p, j + 1) for p in range(v)] for j in range(t)]
    if t == 3:
        t1, t2, t3 = tabs
        for b in blocks:
            for x, y, z in itertools.combinations(b, 3):
                r = t1[x] + t2[y] + t3[z]
                if counts[r] < 255:
                    counts[r] += 1
    elif t == 2:
        t1, t2 = tabs
        for b in blocks:
            for x, y in itertools.combinations(b, 2):
                r = t1[x] + t2[y]
                if counts[r] < 255:
                    counts[r] += 1
    else:
        for b in blocks:
            for sub in itertools.combinations(b, t):
                r = sum(tab[p] for tab, p in zip(tabs, sub))
                if counts[r] < 255:
                    counts[r] += 1
    return counts


def reference_verify_steiner(d):
    rep = VerifyReport()
    counts = reference_coverage(d.blocks, d.t, d.v)
    if len(d.sizes) == 1:
        (k,) = d.sizes
        expect, exact = expected_block_count(d.t, k, d.v)
        rep.counts["expected_blocks"] = expect if exact else -1
    rep.counts["blocks"] = len(d.blocks)
    if counts != b"\x01" * len(counts):
        for r, c in enumerate(counts):
            if c != 1:
                rep.flag("covered %d times" % c, subset_unrank(r, d.t))
                if len(rep.violations) >= MAX_WITNESSES:
                    break
    return rep


@lru_cache(maxsize=16)
def reference_expected_cross_coverage(v, t, groups):
    gof = [0] * v
    for gi, cell in enumerate(groups):
        for p in cell:
            gof[p] = gi
    expected = bytearray(math.comb(v, t))
    for sub in itertools.combinations(range(v), t):
        if len({gof[p] for p in sub}) == t:
            expected[subset_rank(sub)] = 1
    return bytes(expected)


def reference_verify_gdd(d):
    rep = VerifyReport()
    rep.counts["blocks"] = len(d.blocks)
    gof = d.group_of
    for b in d.blocks:
        hit = [gof[p] for p in b]
        if len(set(hit)) != len(hit):
            rep.flag("block meets a group twice", b)
    expected = reference_expected_cross_coverage(d.v, d.t, d.groups)
    counts = reference_coverage(d.blocks, d.t, d.v)
    if counts != expected:
        for r, (c, e) in enumerate(zip(counts, expected)):
            if c != e:
                kind = (
                    "cross set covered %d times" % c if e else "non-cross set covered"
                )
                rep.flag(kind, subset_unrank(r, d.t))
                if len(rep.violations) >= MAX_WITNESSES:
                    break
    rep.counts["groups"] = len(d.groups)
    return rep


def _with_blocks(d, blocks):
    return Design(d.t, d.sizes, d.labels, tuple(blocks), d.kind, d.groups)


def _random_blocks(rng, v, n, sizes):
    return [tuple(sorted(rng.sample(range(v), rng.choice(sizes)))) for _ in range(n)]


def _coverage_corpus(rng):
    """Seeded (what, design or GDD) pairs for the coverage differential."""
    for name in sorted(catalog.GENERATORS):
        d = catalog.GENERATORS[name]()
        yield name, d
        n = len(d.blocks)
        for i in range(n) if n <= 140 else sorted(rng.sample(range(n), 8)):
            yield f"{name} delete {i}", _with_blocks(d, d.blocks[:i] + d.blocks[i + 1:])
            yield f"{name} double {i}", _with_blocks(d, d.blocks + (d.blocks[i],))
    # a block repeated past the 255 cap of a count
    sqs8 = catalog.sqs8()
    yield "sqs8 + 300 copies", _with_blocks(sqs8, sqs8.blocks + sqs8.blocks[:1] * 300)
    for name in ("rdgdd24", "rdgdd42"):
        g = d = catalog.GENERATORS[name]()
        yield f"{name} + 256 copies", _with_blocks(g, d.blocks + d.blocks[-1:] * 256)
        for _ in range(4):
            # swap a point of a block for one in the group of another of its points
            i = rng.randrange(len(d.blocks))
            b = d.blocks[i]
            q = rng.choice([p for p in g.groups[g.group_of[b[0]]] if p not in b])
            bad = tuple(sorted((q, b[0]) + b[2:]))
            yield f"{name} block {i} meets a group twice", _with_blocks(
                g, d.blocks[:i] + (bad,) + d.blocks[i + 1:]
            )
        cell = g.groups[rng.randrange(len(g.groups))]
        yield f"{name} + a pair inside a group", _with_blocks(g, d.blocks + (cell[:2],))
        pair = tuple(sorted((g.groups[0][0], g.groups[1][0])))
        yield f"{name} + a transversal pair", _with_blocks(g, d.blocks + (pair,))
        yield f"{name} + a point", _with_blocks(g, d.blocks + ((0,),))
    # small random designs and GDDs, blocks shorter than t among them
    for case in range(240):
        t = (2, 3, 4)[case % 3]
        v = rng.randint(t + 1, 11)
        blocks = _random_blocks(rng, v, rng.randint(0, 40), range(1, min(v, 6) + 1))
        if case % 7 == 0:
            blocks += blocks[:1] * rng.randint(250, 260)
        sizes = frozenset(rng.sample(range(t, v + 1), rng.randint(1, 2)))
        design = Design(t, sizes, plain_labels(range(v)), tuple(blocks))
        yield f"random t={t} v={v}", design
        points = rng.sample(range(v), v)
        cuts = sorted(rng.sample(range(1, v), rng.randint(t - 1, v - 1)))
        groups = tuple(
            tuple(sorted(points[a:b])) for a, b in zip([0] + cuts, cuts + [v])
        )
        yield f"random GDD t={t} v={v}", replace(design, groups=groups)
    # t = 1, as `derive` leaves a t = 2 design: every 1-set is a cross set,
    # so only the group scan sees a block inside a group
    design = Design(1, frozenset({2}), plain_labels(range(4)), ((0, 1), (2, 3)))
    yield "t=1 blocks inside groups", replace(design, groups=((0, 1), (2, 3)))
    for case in range(40):
        v = rng.randint(2, 9)
        blocks = _random_blocks(rng, v, rng.randint(0, 12), range(1, min(v, 4) + 1))
        design = Design(1, frozenset({1, 2}), plain_labels(range(v)), tuple(blocks))
        yield f"random t=1 v={v}", design
        cut = rng.randint(1, v - 1)
        groups = (tuple(range(cut)), tuple(range(cut, v)))
        yield f"random GDD t=1 v={v}", replace(design, groups=groups)
    # one group holding every point: no t-set is a cross set
    for t in (1, 2, 3, 4):
        blocks = _random_blocks(rng, 9, rng.randint(0, 6), range(1, 6))
        design = Design(t, frozenset({t, t + 1}), plain_labels(range(9)), tuple(blocks))
        yield f"single group t={t}", replace(design, groups=(tuple(range(9)),))


def test_coverage_verifiers_match_the_previous_kernel(monkeypatch):
    seen = Counter()
    for what, d in _coverage_corpus(random.Random(0)):
        if d.groups:
            check, reference = verify_gdd, reference_verify_gdd
        else:
            check, reference = verify_steiner, reference_verify_steiner
        cover = reference_coverage(d.blocks, d.t, d.v)
        assert _coverage(d.blocks, d.t, d.v) == cover, what
        if d.groups:
            expected = reference_expected_cross_coverage(d.v, d.t, d.groups)
            assert core._expected_cross_coverage(d.v, d.t, d.groups)[0] == expected, what
        # the bytearray counts that designs past LIST_COUNTS_MAX t-sets take
        with monkeypatch.context() as m:
            m.setattr(core, "LIST_COUNTS_MAX", 0)
            assert _coverage(d.blocks, d.t, d.v) == cover, (what, "bytearray")
        got, want = check(d), reference(d)
        assert (got.passed, got.violations, got.counts) == (
            want.passed, want.violations, want.counts
        ), what
        kinds = {kind for kind, _ in want.violations}
        seen["passed"] += want.passed
        seen["meets a group twice"] += "block meets a group twice" in kinds
        seen["capped at 255"] += any("255 times" in kind for kind in kinds)
        seen["short block"] += any(len(b) < d.t for b in d.blocks)
        seen["at the witness limit"] += len(want.violations) == MAX_WITNESSES
        seen["t=1 meets a group twice"] += d.t == 1 and "block meets a group twice" in kinds
    # every path of the kernel and of the verifiers was taken
    assert seen["passed"] >= 7
    paths = ("meets a group twice", "capped at 255", "short block", "at the witness limit",
             "t=1 meets a group twice")
    for path in paths:
        assert seen[path] >= 10, (path, seen)


def test_mismatches_lists_every_differing_rank_across_runs():
    rng = random.Random(1)
    run = core.MISMATCH_RUN
    edges = [run - 1, run, run + 1, 2 * run - 1, 2 * run]
    for n in (0, 1, 5, 300, run, 2 * run + 3):
        expected = bytes(rng.choice((0, 1)) for _ in range(n))
        counts = bytearray(expected)
        picks = [r for r in edges if r < n] + rng.sample(range(n), min(n, rng.randint(0, 9)))
        for r in picks:
            counts[r] = expected[r] ^ rng.choice((1, 2, 254, 255))
        want = [r for r in range(n) if counts[r] != expected[r]]
        assert list(_mismatches(bytes(counts), expected)) == want, n


def test_verify_gdd_rejects_groups_that_are_not_a_partition():
    g = catalog.rdgdd24()
    first, second, *rest = g.groups
    with pytest.raises(ParameterError, match="in two groups"):
        verify_gdd(Gdd(design=g, groups=(first, second + first[:1], *rest)))
    with pytest.raises(ParameterError, match="do not cover"):
        verify_gdd(Gdd(design=g, groups=(second, *rest)))


def test_an_empty_group_is_rejected():
    # an empty group would be emitted as a GROUP line that parse_design rejects
    g = catalog.rdgdd24()
    bad = Gdd(design=g, groups=((),) + g.groups)
    with pytest.raises(ParameterError, match="group 0 is empty"):
        bad.group_of
    with pytest.raises(ParameterError, match="group 0 is empty"):
        verify_gdd(bad)
    with pytest.raises(ParameterError, match="group 3 is empty"):
        verify_gdd(Gdd(design=g, groups=g.groups[:3] + ((),) + g.groups[3:]))
    with pytest.raises(ParameterError, match="is empty"):
        derived_frame(bad, 0)


def test_lift_is_the_plain_map_at_every_block_size():
    rng = random.Random(11)
    for g in (1, 3, 4):
        for n in (1, 3, 4, 6):  # points of the master block
            xs = rng.sample(range(50), n)
            if rng.random() < 0.5:
                xs.sort()
            local = range(g * n)
            sizes = [k for k in range(1, 6) if k <= g * n]
            for blocks in (
                [tuple(sorted(rng.sample(local, k))) for k in sizes],
                [tuple(sorted(rng.sample(local, rng.choice(sizes)))) for _ in range(9)],
            ):
                want = tuple(tuple(g * xs[q // g] + q % g for q in b) for b in blocks)
                assert core.lift(blocks, xs, g) == want, (g, xs, blocks)
                assert core.lift(tuple(blocks), xs, g) == want  # the cached getters again
                assert core.lift(iter(blocks), tuple(xs), g) == want
    assert core.lift((), [3, 5], 4) == ()
    assert core.lift([], [], 3) == ()
    assert core.lift([(2,), (0, 5)], [7, 9], 3) == ((23,), (21, 29))


def test_make_design_rejects_malformed_blocks():
    labels = plain_labels(range(5))
    with pytest.raises(ParameterError):
        make_design(2, {3}, labels, [(0, 0, 1)])
    with pytest.raises(ParameterError):
        make_design(2, {3}, labels, [(0, 1)])
    with pytest.raises(ParameterError):
        make_design(2, {3}, labels, [(0, 1, 7)])


def test_make_design_keeps_a_sorted_tuple_block_and_still_checks_it():
    labels = plain_labels(range(5))
    kept, unsorted, listed = (0, 1, 2), (4, 3, 0), [1, 2, 4]
    d = make_design(2, {3}, labels, [unsorted, listed, kept])
    assert d.blocks == ((0, 1, 2), (0, 3, 4), (1, 2, 4))
    assert d.blocks[0] is kept
    assert d.blocks[1] is not unsorted and type(d.blocks[2]) is tuple
    for bad, message in [
        ((0, 0, 1), "repeated point"),
        ((1, 0, 1), "repeated point"),
        ((0, 1), "size outside"),
        ((0, 1, 2, 3), "size outside"),
        ((0, 1, 7), "unknown point ids"),
        ((-1, 0, 1), "unknown point ids"),
    ]:
        with pytest.raises(ParameterError, match=message):
            make_design(2, {3}, labels, [kept, bad])


def _made(blocks, sizes):
    try:
        return make_design(2, sizes, plain_labels(range(6)), blocks)
    except ParameterError as exc:
        return str(exc)


def test_make_design_checks_columns_as_the_per_block_loop_does():
    good = [(0, 1, 2), (3, 4, 5), (1, 3, 5), (0, 2, 4)]
    ones = [(5,), (0,), (3,)]
    cases = {
        "sorted tuples": (good, {3}, True),
        "an unsorted tuple": (good[:1] + [(4, 3, 0)] + good[1:], {3}, False),
        "a list block": (good[:2] + [[1, 2, 4]] + good[2:], {3}, False),
        "a repeated point": (good + [(1, 1, 2)], {3}, False),
        "id -1, first column": (good + [(-1, 2, 3)], {3}, False),
        "id -1, middle column": (good + [(0, -1, 3)], {3}, False),
        "id -1, last column": (good + [(0, 2, -1)], {3}, False),
        "id v, first column": (good + [(6, 7, 8)], {3}, False),
        "id v, middle column": (good + [(0, 6, 5)], {3}, False),
        "id v, last column": (good + [(0, 2, 6)], {3}, False),
        "a wrong size": (good + [(0, 1, 2, 3)], {3}, False),
        "mixed sizes": (good + [(0, 1, 2, 3)], {3, 4}, False),
        "1-point blocks": (ones, {1}, True),
        "a 1-point block, id v": (ones + [(6,)], {1}, False),
        "a 1-point block, id -1": ([(-1,)] + ones, {1}, False),
        "empty blocks": ([(), ()], {0}, False),
        "no blocks": ([], {3}, False),
    }
    for name, (blocks, sizes, by_columns) in cases.items():
        assert core._ascending_in_range(blocks, frozenset(sizes), 6) == by_columns, name
        loop = _made(iter(blocks), sizes)  # an iterator takes the per-block loop
        assert _made(list(blocks), sizes) == loop, name
        assert _made(tuple(blocks), sizes) == loop, name
    assert _made(good, {3}).blocks == ((0, 1, 2), (0, 2, 4), (1, 3, 5), (3, 4, 5))
    assert all(any(b is g for g in good) for b in _made(good, {3}).blocks)  # kept, not copied
    assert _made(good + [(0, 2, 6)], {3}) == "block (0, 2, 6) references unknown point ids"
    assert _made(good + [[4, 1, 4]], {3}) == "repeated point in block (1, 4, 4)"


# ---------------------------------------------------------------------------
# derivation


def test_derived_design_of_sqs8_at_infinity_is_sts7():
    d = catalog.sqs8()
    sub = derived_design(d, "inf_0")
    assert sub.v == 7 and sub.t == 2 and sub.sizes == frozenset({3})
    assert len(sub.blocks) == 7 * 6 // 6  # (v-1)(v-2)/6 for v=8
    assert verify_steiner(sub).passed


def test_derived_design_of_sqs16_has_35_triples():
    sub = derived_design(catalog.sqs16(), 0)
    assert len(sub.blocks) == 15 * 14 // 6
    assert verify_steiner(sub).passed


def test_derived_design_at_every_point_of_sqs22_is_steiner():
    d = catalog.sqs22()
    for x in (0, 7, 21):
        sub = derived_design(d, x)
        assert len(sub.blocks) == 21 * 20 // 6
        assert verify_steiner(sub).passed


def mixed_size_design():
    """A design with blocks of sizes 2 to 5, some repeated, on 12 points."""
    rng = random.Random(5)
    blocks = [tuple(rng.sample(range(12), rng.randint(2, 5))) for _ in range(80)]
    blocks += blocks[:6]
    return make_design(1, {2, 3, 4, 5}, plain_labels(range(12)), blocks)


FRAMED = {**catalog.GENERATORS, "mixed sizes 2-5": mixed_size_design}


@pytest.mark.parametrize("name", sorted(FRAMED))
def test_derived_frame_matches_a_brute_force_scan(name):
    d = FRAMED[name]()
    for x in range(d.v):
        ground, target = derived_frame(d, x)
        assert list(target) == sorted(
            tuple(p for p in b if p != x) for b in d.blocks if x in b
        )
        if d.groups:
            gone = next(set(cell) for cell in d.groups if x in cell)
        else:
            gone = {x}
        assert ground == tuple(p for p in range(d.v) if p not in gone)
        assert derived_frame(d, d.labels[x]) == (ground, target)


@pytest.mark.parametrize("name", sorted(catalog.GENERATORS))
def test_incidence_lists_each_block_once_per_point(name):
    d = catalog.GENERATORS[name]()
    for p in range(d.v):
        through = tuple(b for b in d.blocks if p in b)
        assert d.incidence[p] == through
        assert all(got is b for got, b in zip(d.incidence[p], through))


def test_incidence_holds_one_pointer_per_slot():
    # a fresh Design, so the table is built here, under the tracer
    d = catalog.rdgdd42()
    d = Design(d.t, d.sizes, d.labels, d.blocks, d.kind)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        d.incidence
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    slots = sum(map(len, d.blocks))
    assert kept <= 8 * slots + 1024 * d.v


def test_derived_design_rejects_unknown_point():
    with pytest.raises(ParameterError):
        derived_design(catalog.sqs8(), "inf_3")


def test_the_names_the_benchmark_calls_stay():
    # bench/ builds and tells apart GDDs with these names; Tier-1 runs no bench
    d = catalog.sqs8()
    assert Design(d.t, d.sizes, d.labels, d.blocks, d.kind) == d
    g = catalog.rdgdd24()
    built = Gdd(design=Design(g.t, g.sizes, g.labels, g.blocks, g.kind), groups=g.groups)
    assert built == g and built.design is built and g.design is g
    parsed = formats.parse_design(formats.emit_design(g))
    assert isinstance(g, Gdd) and isinstance(parsed, Gdd) and parsed.design is parsed
    assert not isinstance(catalog.sqs28(), Gdd)
    sub = core.derived_gdd(g, 0).design
    assert isinstance(sub, Gdd) and sub.kind == "GDD" and sub == derived_design(g, 0)
    assert verify_gdd.__name__ == "verify_gdd"


def test_derived_gdd_drops_whole_group():
    g = catalog.rdgdd24()
    sub = derived_design(g, "inf_0")
    assert sub.v == 21
    assert sorted(map(len, sub.groups)) == [3] * 7
    assert len(sub.blocks) == 63  # 9 shipped classes x 7 triples
    assert verify_gdd(sub).passed
    sub42 = derived_design(catalog.rdgdd42(), "0_0")
    assert sub42.v == 39
    assert sorted(map(len, sub42.groups)) == [3] * 13
    assert len(sub42.blocks) == 18 * 13
    assert verify_gdd(sub42).passed


# ---------------------------------------------------------------------------
# resolutions


def test_verify_resolution_flags_swapped_triples():
    res = catalog.sqs22_resolutions()["inf_0"]
    assert verify_resolution(res).passed
    c0, c1 = list(res.classes[0]), list(res.classes[1])
    c0[0], c1[0] = c1[0], c0[0]
    bad = Resolution(
        ground=res.ground,
        classes=(tuple(c0), tuple(c1)) + res.classes[2:],
        target=res.target,
    )
    rep = verify_resolution(bad)
    assert not rep.passed
    assert any("class" in kind for kind, _ in rep.violations)


def test_verify_resolution_flags_missing_class():
    res = catalog.sqs22_resolutions()["0"]
    bad = Resolution(ground=res.ground, classes=res.classes[:-1], target=res.target)
    rep = verify_resolution(bad)
    assert not rep.passed
    assert any("missing" in kind for kind, _ in rep.violations)


# the owner route: in an S(3, 4, v) the derived designs partition the 3-sets


@pytest.mark.parametrize("name", ["sqs8", "sqs14", "sqs16", "sqs22"])
def test_each_point_owns_exactly_the_triples_of_its_derived_design(name):
    d = catalog.GENERATORS[name]()
    owner = core.owner_table(d)
    assert type(owner) is bytearray and len(owner) == math.comb(d.v, 3)
    owned = {x: [] for x in range(d.v)}
    for r, x in enumerate(owner):
        owned[x].append(r)
    for x in range(d.v):
        _, target = derived_frame(d, x)
        assert owned[x] == sorted(map(subset_rank, target))


def test_section_ranks_prove_a_resolution_only_with_the_owner_table():
    d = catalog.sqs22()
    owner = core.owner_table(d)
    for label, res in catalog.sqs22_resolutions().items():
        x = d.point(label)
        ranks = core.class_ranks(d.v, x, res.classes)
        assert sorted(ranks) == sorted(map(subset_rank, res.target))
        assert core.owns(owner, x, ranks)
        assert not core.owns(owner, (x + 1) % d.v, ranks)
    res = catalog.sqs22_resolutions()["0"]
    x = d.point("0")
    classes = [list(c) for c in res.classes]
    # a class that does not partition the other points, or holds a pair
    swapped = [c[:] for c in classes]
    swapped[0][0], swapped[1][0] = swapped[1][0], swapped[0][0]
    assert core.class_ranks(d.v, x, swapped) is None
    pair = [c[:] for c in classes]
    a, b, c = pair[0][0]
    pair[0][0:1] = [(a, b), (c,)]
    assert core.class_ranks(d.v, x, pair) is None
    # blocks of 2 and 4 points in place of two triples: the same ids in order
    uneven = [c[:] for c in classes]
    (p, q, r), (s, t, u) = uneven[0][:2]
    uneven[0][0:2] = [(p, q), (r, s, t, u)]
    assert core.class_ranks(d.v, x, uneven) is None
    # a class too few, or one repeated: the ranks are too few or not distinct
    assert core.class_ranks(d.v, x, classes[:-1]) is None
    assert core.class_ranks(d.v, x, classes + classes[:1]) is None
    assert core.class_ranks(d.v, x, []) is None
    # the last triple of a class moved to the front of the next: ragged
    # classes whose ids, read in order, are those of the resolution
    ragged = [c[:] for c in classes]
    ragged[1].insert(0, ragged[0].pop())
    assert core.class_ranks(d.v, x, ragged) is None
    # no point owns a section that does not rank
    assert not core.owns(owner, x, None)
    # a section of the right shape at the wrong point: x does not own it
    y = d.point("1")
    moved = core.class_ranks(d.v, y, catalog.sqs22_resolutions()["1"].classes)
    assert moved is not None and not core.owns(owner, x, moved)


def test_section_ranks_on_flat_ids_checks_each_class_triple_and_count():
    d = catalog.sqs22()
    res = catalog.sqs22_resolutions()["0"]
    x = d.point("0")
    flat = [p for cls in res.classes for b in cls for p in b]
    ranks = core.section_ranks(d.v, x, flat)
    assert list(ranks) == list(map(subset_rank, itertools.chain.from_iterable(res.classes)))
    assert ranks.typecode == "I" and ranks == core.class_ranks(d.v, x, res.classes)
    # a triple whose ids do not ascend ranks as no 3-set: rejected
    down = flat[:]
    down[0:3] = reversed(down[0:3])
    assert core.section_ranks(d.v, x, down) is None
    middle = flat[:]
    middle[0], middle[1] = middle[1], middle[0]
    assert core.section_ranks(d.v, x, middle) is None
    # a class that misses a point, an id short, a class too many, none
    (a, b, c), rest = flat[0:3], flat[3:]
    assert core.section_ranks(d.v, x, [a, b, b] + rest) is None
    assert core.section_ranks(d.v, x, flat[:-1]) is None
    assert core.section_ranks(d.v, x, flat + flat[:d.v - 1]) is None
    assert core.section_ranks(d.v, x, []) is None
    # the ids of another point's section: every class misses a point of x's ground
    y = d.point("1")
    other = [p for cls in catalog.sqs22_resolutions()["1"].classes for b in cls for p in b]
    assert core.section_ranks(d.v, x, other) is None and core.section_ranks(d.v, y, other)
    # no resolution of a derived design exists unless 3 divides v - 1
    assert core.section_ranks(8, 0, list(range(1, 8)) * 3) is None
    assert core.section_ranks(1, 0, []) is None


def test_the_owner_route_on_sqs4_and_beyond_one_byte():
    # SQS(4) is one block: each point's section is one class of one triple
    d = make_design(3, {4}, plain_labels(range(4)), [(0, 1, 2, 3)], "SQS")
    owner = core.owner_table(d)
    assert list(owner) == [3, 2, 1, 0]  # the owners of 012, 013, 023, 123
    for x in range(4):
        ranks = core.section_ranks(4, x, [p for p in range(4) if p != x])
        assert list(ranks) == [3 - x] and core.owns(owner, x, ranks)
    # past 256 points an owner takes two bytes
    big = make_design(3, {4}, plain_labels(range(300)), [(0, 1, 2, 299)], "RAW")
    owner = core.owner_table(big)
    assert owner.typecode == "H" and len(owner) == math.comb(300, 3)
    assert owner[subset_rank((0, 1, 2))] == 299 and owner[subset_rank((0, 1, 299))] == 2


# Counter-based references for the sort-and-compare kernels: the previous
# implementations of is_partition and verify_resolution, kept as written.


def reference_is_partition(blocks, ground):
    seen = Counter()
    for b in blocks:
        seen.update(b)
    want = Counter(ground)
    if seen == want:
        return None
    extra = seen - want
    if extra:
        return ("point covered twice or foreign", next(iter(extra)))
    return ("point uncovered", next(iter(want - seen)))


def reference_verify_resolution(r):
    rep = VerifyReport()
    rep.counts["classes"] = len(r.classes)
    rep.counts["blocks"] = len(r.target)
    union = Counter()
    for ci, cls in enumerate(r.classes):
        bad = reference_is_partition(cls, r.ground)
        if bad is not None:
            rep.flag(f"class {ci}: {bad[0]}", bad[1])
        union.update(cls)
    want = Counter(r.target)
    if union != want:
        for b in (union - want):
            rep.flag("block not in target (or over-used)", b)
            break
        for b in (want - union):
            rep.flag("target block missing from classes", b)
            break
    return rep


PARTITION_FAULTS = ("none", "duplicated", "missing", "foreign", "foreign for missing")


def test_is_partition_matches_the_counter_reference():
    rng = random.Random(0)
    verdicts = Counter()
    for case in range(600):
        fault = PARTITION_FAULTS[case % len(PARTITION_FAULTS)]
        n = rng.randint(1, 30)
        ground = rng.sample(range(40), n)
        if rng.random() < 0.5:
            ground.sort()
        order = rng.sample(ground, n)
        k = rng.randint(1, 4)
        blocks = [order[i:i + k] for i in range(0, n, k)]
        b = rng.randrange(len(blocks))
        foreign = rng.choice([q for q in range(45) if q not in ground])
        if fault == "duplicated":
            blocks[b].append(rng.choice(ground))
        elif fault == "missing":
            blocks[b].pop(rng.randrange(len(blocks[b])))
        elif fault == "foreign":
            blocks[b].append(foreign)
        elif fault == "foreign for missing":
            blocks[b][rng.randrange(len(blocks[b]))] = foreign
        blocks = [tuple(blk) for blk in blocks]
        got = is_partition(blocks, ground)
        assert got == reference_is_partition(blocks, ground), (fault, blocks, ground)
        verdicts[fault, got is None] += 1
    assert verdicts["none", True] == 120
    for fault in PARTITION_FAULTS[1:]:
        assert verdicts[fault, False] == 120


RESOLUTION_FAULTS = (
    "none", "move a block", "drop a class", "duplicate a class",
    "over-use a block", "miss a target block", "foreign block",
)


def _mutated(res, fault, rng):
    classes = [list(cls) for cls in res.classes]
    a, b = rng.sample(range(len(classes)), 2)
    i = rng.randrange(len(classes[a]))
    if fault == "move a block":
        classes[b].append(classes[a].pop(i))
    elif fault == "drop a class":
        del classes[a]
    elif fault == "duplicate a class":
        classes.append(classes[a])
    elif fault == "over-use a block":
        classes[a][i] = rng.choice(classes[b])
    elif fault == "miss a target block":
        del classes[a][i]
    elif fault == "foreign block":
        classes[a][i] = tuple(sorted(rng.sample(res.ground, len(classes[a][i]))))
    return Resolution(
        ground=res.ground, classes=tuple(map(tuple, classes)), target=res.target
    )


def test_verify_resolution_matches_the_counter_reference():
    rng = random.Random(0)
    shipped = sorted(catalog.sqs22_resolutions().items()) + sorted(
        catalog.rdgdd24_resolutions().items()
    )
    failed = Counter()
    for case in range(700):
        fault = RESOLUTION_FAULTS[case % len(RESOLUTION_FAULTS)]
        point, res = rng.choice(shipped)
        bad = _mutated(res, fault, rng)
        rng.randrange(4)  # the draw of a witness cap, kept so the seeded cases stay the same
        got, want = verify_resolution(bad), reference_verify_resolution(bad)
        assert (got.passed, got.violations, got.counts) == (
            want.passed, want.violations, want.counts
        ), (fault, point)
        failed[fault] += not got.passed
    assert failed["none"] == 0
    for fault in RESOLUTION_FAULTS[1:]:
        assert failed[fault] == 100, fault


def sorted_verify_resolution(r):
    """verify_resolution as it stood before its set tests, every class and
    the union decided by sorting.  Kept as the reference for exact witness
    lists: the set tests must leave verdicts, violations and counts as
    this gives them."""
    rep = VerifyReport()
    rep.counts["classes"] = len(r.classes)
    rep.counts["blocks"] = len(r.target)
    ground = sorted(r.ground)
    for ci, cls in enumerate(r.classes):
        if sorted(itertools.chain.from_iterable(cls)) != ground:
            bad = is_partition(cls, r.ground)
            rep.flag(f"class {ci}: {bad[0]}", bad[1])
    if sorted(itertools.chain.from_iterable(r.classes)) != sorted(r.target):
        union = Counter()
        for cls in r.classes:
            union.update(cls)
        want = Counter(r.target)
        for b in (union - want):
            rep.flag("block not in target (or over-used)", b)
            break
        for b in (want - union):
            rep.flag("target block missing from classes", b)
            break
    return rep


def _set_test_edges(res):
    """(name, resolution, passes) for the cases a set test could misjudge."""
    c0, c1 = list(res.classes[0]), list(res.classes[1])
    g0, t0 = res.ground[0], res.target[0]
    rest = res.classes[2:]
    # a block of class 0 takes a point of another block of it: the same length
    b = next(i for i, blk in enumerate(c0) if c0[0][0] not in blk)
    repeat = c0[:b] + [tuple(sorted((c0[0][0],) + c0[b][1:]))] + c0[b + 1:]
    at = next(ci for ci, cls in enumerate(res.classes) if t0 in cls)
    twice = [cls + (t0,) if ci == at else cls for ci, cls in enumerate(res.classes)]
    return [
        ("a class repeats a point, same length",
         Resolution(res.ground, (tuple(repeat), tuple(c1)) + rest, res.target), False),
        ("the ground repeats an id", Resolution(res.ground + (g0,), res.classes, res.target), False),
        ("the ground repeats an id, class 0 another",
         Resolution(res.ground + (g0,), (tuple(c0) + ((res.ground[1],),), tuple(c1)) + rest,
                    res.target + ((res.ground[1],),)), False),
        ("the ground and every class repeat an id",
         Resolution(res.ground + (g0,), tuple(cls + ((g0,),) for cls in res.classes),
                    res.target + ((g0,),) * len(res.classes)), True),
        ("the target repeats a block",
         Resolution(res.ground, res.classes, res.target + (t0,)), False),
        ("the target and one class repeat a block",
         Resolution(res.ground, tuple(twice), tuple(sorted(res.target + (t0,)))), False),
        ("one block doubled, another missing",
         Resolution(res.ground, (tuple(c0), tuple([c0[0]] + c1[1:])) + rest, res.target), False),
    ]


@pytest.mark.parametrize("name", ["sqs22", "rdgdd24", "rdgdd42"])
def test_verify_resolution_matches_the_sorted_reference(name):
    rng = random.Random(name)
    shipped = sorted(catalog.RESOLUTIONS[name]().items())
    faults = ("none", "move a block", "drop a class", "duplicate a class")
    seen = Counter()
    for point, res in shipped:
        cases = [(fault, _mutated(res, fault, rng), fault == "none") for fault in faults]
        for case, bad, passes in cases + _set_test_edges(res):
            got, want = verify_resolution(bad), sorted_verify_resolution(bad)
            assert (got.passed, got.violations, got.counts) == (
                want.passed, want.violations, want.counts
            ), (case, point)
            assert got.passed == passes, (case, point)
            seen[case] += 1
    assert len(seen) == 11 and set(seen.values()) == {len(shipped)}


def test_verify_resolution_matches_the_sorted_reference_on_star_multisets(star28):
    # the star multiset M repeats every derived triple, so no set test can
    # decide it and the tallies decide it, at every star point of a construct
    rng = random.Random("sqs28")
    faults = ("none", "move a block", "over-use a block")
    for point, cert in sorted(star28.per_point.items()):
        ground, target = derived_frame(star28.design, point)
        res = Resolution(ground, cert.all_classes(), star_multiset(target, cert.special))
        for fault in faults:
            bad = _mutated(res, fault, rng)
            got, want = verify_resolution(bad), sorted_verify_resolution(bad)
            assert (got.passed, got.violations, got.counts) == (
                want.passed, want.violations, want.counts
            ), (fault, point)
            assert got.passed == (fault == "none"), (fault, point)


# ---------------------------------------------------------------------------
# label actions


def test_translate_design_by_automorphism_preserves_verdict():
    d = catalog.sqs22()
    there, back = mover(d.labels, Shift(5, 21)), mover(d.labels, Shift(16, 21))
    img = make_design(3, {4}, d.labels, map(there, d.blocks))
    assert verify_steiner(img).passed
    assert img.blocks == d.blocks  # +5 mod 21 is an automorphism of the cyclic SQS(22)
    assert [back(there(b)) for b in d.blocks] == list(d.blocks)
    assert there(d.blocks[0]) != d.blocks[0]


def test_translate_rejects_non_bijection():
    d = catalog.sqs8()
    with pytest.raises(ParameterError, match="not a bijection"):
        mover(d.labels, Shift(1, 6))  # 6 is not the point modulus
    with pytest.raises(ParameterError, match="outside the point set"):
        mover(d.labels, Shift(1, 8))


# ---------------------------------------------------------------------------
# admissibility


@pytest.mark.parametrize(
    "kind,v,expected",
    [
        ("SQS", 22, True),
        ("SQS", 12, False),
        ("SQS", 8, True),
        ("SQS", 112, True),
        ("KTS", 111, True),
        ("KTS", 21, True),
        ("KTS", 7, False),
    ],
)
def test_admissible(kind, v, expected):
    assert admissible(kind, v) is expected


def test_admissible_rejects_nonsense():
    with pytest.raises(ParameterError):
        admissible("SQS", 0)
    with pytest.raises(ParameterError):
        admissible("MOLS", 9)


def test_witness_list_is_capped():
    d = catalog.sqs22()
    empty = Design(d.t, d.sizes, d.labels, (), d.kind)
    rep = verify_steiner(empty)
    assert not rep.passed
    assert len(rep.violations) == MAX_WITNESSES == 16
