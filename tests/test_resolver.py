import itertools
import random
from collections import Counter

import pytest

from quadsys import ParameterError, catalog, derived_design, resolver, verify_resolution
from quadsys.resolver import (
    _Search,
    confirm_rds,
    derived_instance,
    find_parallel_class,
    find_resolution,
)


def sts9_blocks():
    """AG(2,3): lines of the 3x3 affine plane, an independent construction."""
    def third(a, b):
        ax, ay = divmod(a, 3)
        bx, by = divmod(b, 3)
        return ((-ax - bx) % 3) * 3 + ((-ay - by) % 3)

    return sorted({
        tuple(sorted((a, b, third(a, b))))
        for a, b in itertools.combinations(range(9), 2)
    })


def test_fano_has_no_parallel_class():
    sts7 = derived_design(catalog.sqs8(), "inf_0")
    assert find_parallel_class(sts7.blocks, range(7)) is None


def test_sts9_parallel_class_is_lex_least():
    cls = find_parallel_class(sts9_blocks(), range(9))
    assert cls == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]


def test_sts9_resolution():
    out = find_resolution(sts9_blocks(), range(9), budget=10**6)
    assert out.found
    assert len(out.resolution.classes) == 4
    assert verify_resolution(out.resolution).passed


def test_search_is_deterministic():
    a = find_resolution(sts9_blocks(), range(9), budget=10**6)
    b = find_resolution(sts9_blocks(), range(9), budget=10**6)
    assert a.resolution == b.resolution and a.nodes == b.nodes


def test_budget_exhaustion_is_a_distinct_outcome():
    d = catalog.sqs22()
    blocks, ground = derived_instance(d, 0)
    out = find_resolution(blocks, ground, budget=100)
    assert out.status == "exhausted"
    assert out.resolution is None
    assert out.nodes == 101


def test_derived_sts21_at_infinity_resolves_within_budget():
    d = catalog.sqs22()
    blocks, ground = derived_instance(d, "inf_0")
    out = find_resolution(blocks, ground, budget=10**7)
    assert out.found and out.nodes <= 10**7
    assert len(out.resolution.classes) == 10
    assert verify_resolution(out.resolution).passed


def test_sqs8_is_not_an_rds():
    report = confirm_rds(catalog.sqs8(), budget=10**6)
    assert set(report) == {str(n) for n in range(7)} | {"inf_0"}
    # 7 points in 3-point blocks: the divisibility shortcut decides it
    assert all(out.status == "none" and out.nodes == 0 for out in report.values())


def test_sqs16_is_an_rds_by_search():
    report = confirm_rds(catalog.sqs16(), budget=10**6)
    assert all(out.found for out in report.values())
    for out in report.values():
        assert verify_resolution(out.resolution).passed


def test_oracle_agrees_with_shipped_certificates():
    # wherever both a shipped and a searched resolution exist, both verify
    d = catalog.sqs22()
    shipped = catalog.sqs22_resolutions()
    for label in ("inf_0", "13"):
        assert verify_resolution(shipped[label]).passed
        blocks, ground = derived_instance(d, label)
        out = find_resolution(blocks, ground, budget=10**7)
        assert out.found
        assert verify_resolution(out.resolution).passed
        assert sorted(out.resolution.target) == sorted(shipped[label].target)


def test_oracle_confirms_shipped_gdd_resolution_independently():
    g = catalog.rdgdd24()
    d = g.design
    shipped = catalog.rdgdd24_resolutions()["inf_1"]
    assert verify_resolution(shipped).passed
    xid = d.point("inf_1")
    drop = set(g.groups[g.group_of[xid]])
    ground = [p for p in range(d.v) if p not in drop]
    blocks = [tuple(p for p in b if p != xid) for b in d.blocks if xid in b]
    out = find_resolution(blocks, ground, budget=10**7)
    assert out.found and len(out.resolution.classes) == 9
    assert verify_resolution(out.resolution).passed


def test_oracle_rejects_oversized_instances():
    with pytest.raises(ParameterError):
        find_resolution([(0, 1, 2)], range(48))


def test_confirm_rds_searches_the_derived_gdds_of_a_gdd(monkeypatch):
    grounds = []

    def recording(blocks, ground, budget):
        grounds.append(len(ground))
        return find_resolution(blocks, ground, budget)

    monkeypatch.setattr(resolver, "find_resolution", recording)
    g = catalog.rdgdd24()
    report = confirm_rds(g, budget=1)
    assert set(report) == {lab.text for lab in g.design.labels}
    assert len(report) == 24
    # budget 1 decides nothing; a 23-point ground would read "none" at once
    assert all(out.status == "exhausted" and out.nodes == 2 for out in report.values())
    assert grounds == [21] * 24


@pytest.mark.parametrize("label,nodes", [("0_0", 221_902), ("inf_1", 62_514)])
def test_derived_gdds_of_rdgdd24_resolve_in_pinned_node_counts(label, nodes):
    blocks, ground = derived_instance(catalog.rdgdd24(), label)
    out = find_resolution(blocks, ground, budget=10**6)
    assert out.found and out.nodes == nodes
    assert verify_resolution(out.resolution).passed


# ---------------------------------------------------------------------------
# the search order is pinned against the per-point kernel the bitmask one
# replaced: a bytearray cover, mutated and undone, with a left-point counter


class _Exhausted(Exception):
    pass


class ReferenceSearch:
    """Depth-first exact cover over a bytearray cover (reference kernel)."""

    def __init__(self, blocks, ground, budget, one_class=False):
        self.ground = tuple(sorted(ground))
        index = {p: n for n, p in enumerate(self.ground)}
        multiset = Counter(tuple(sorted(b)) for b in blocks)
        self.blocks = sorted(multiset)
        self.avail = [multiset[b] for b in self.blocks]
        self.iblocks = [tuple(index[p] for p in b) for b in self.blocks]
        self.incident = [[] for _ in self.ground]
        for bi, b in enumerate(self.iblocks):
            for p in b:
                self.incident[p].append(bi)
        self.budget = budget
        self.nodes = 0
        self.n = len(self.ground)
        self.one_class = one_class
        self.classes = []
        self.remaining = sum(self.avail)

    def run(self):
        sizes = {len(b) for b in self.blocks}
        if len(sizes) == 1 and self.n % next(iter(sizes)) != 0:
            return "none", None
        if not self.one_class and self.remaining == 0:
            return "found", []
        try:
            found = self._class_step(bytearray(self.n), self.n, [])
        except _Exhausted:
            return "exhausted", None
        if not found:
            return "none", None
        return "found", [[self.blocks[bi] for bi in cls] for cls in self.classes]

    def _class_step(self, covered, left, chosen, anchor_min=0):
        if left == 0:
            return self._on_class(chosen)
        pivot = covered.index(0)
        floor = anchor_min if not chosen else 0
        for bi in self.incident[pivot]:
            if bi < floor or self.avail[bi] == 0:
                continue
            b = self.iblocks[bi]
            if any(covered[p] for p in b):
                continue
            self.nodes += 1
            if self.nodes > self.budget:
                raise _Exhausted()
            self.avail[bi] -= 1
            for p in b:
                covered[p] = 1
            chosen.append(bi)
            if self._class_step(covered, left - len(b), chosen, anchor_min):
                return True
            chosen.pop()
            for p in b:
                covered[p] = 0
            self.avail[bi] += 1
        return False

    def _on_class(self, chosen):
        self.classes.append(list(chosen))
        if self.one_class:
            return True
        self.remaining -= len(chosen)
        if self.remaining == 0:
            return True
        if self._class_step(bytearray(self.n), self.n, [], chosen[0] + 1):
            return True
        self.remaining += len(chosen)
        self.classes.pop()
        return False


def _relabelled(rng, blocks, ground):
    image = list(ground)
    rng.shuffle(image)
    move = dict(zip(ground, image))
    return sorted(tuple(sorted(move[p] for p in b)) for b in blocks), tuple(ground)


def _differential_corpus():
    """(name, blocks, ground, budget): seeded relabelled derived instances,
    the small designs as they are, at budgets from 1 to 5,000."""
    rng = random.Random(0)
    small = [
        ("sts9", sts9_blocks(), tuple(range(9))),
        ("fano", derived_design(catalog.sqs8(), "inf_0").blocks, tuple(range(7))),
        ("sqs8", catalog.sqs8().blocks, tuple(range(8))),
    ]
    derived = []
    for name, obj, k in (("sqs16", catalog.sqs16(), 6),
                         ("sqs22", catalog.sqs22(), 4),
                         ("rdgdd24", catalog.rdgdd24(), 4)):
        labels = (obj.design if name == "rdgdd24" else obj).labels
        for x in rng.sample(range(len(labels)), k):
            blocks, ground = derived_instance(obj, x)
            blocks, ground = _relabelled(rng, blocks, ground)
            derived.append((f"{name}@{labels[x].text}", blocks, ground))
    corpus = []
    for name, blocks, ground in small + derived:
        for budget in (1, 2, rng.randint(3, 4_999), 5_000):
            corpus.append((name, blocks, ground, budget))
    return corpus


CORPUS = _differential_corpus()


def test_differential_corpus_reaches_every_verdict():
    statuses = Counter(find_resolution(b, g, budget).status for _, b, g, budget in CORPUS)
    assert set(statuses) == {"found", "none", "exhausted"}


def test_find_resolution_matches_the_reference_kernel():
    for name, blocks, ground, budget in CORPUS:
        ref = ReferenceSearch(blocks, ground, budget)
        status, classes = ref.run()
        out = find_resolution(blocks, ground, budget)
        case = f"{name} at budget {budget}"
        assert (out.status, out.nodes) == (status, ref.nodes), case
        if status == "found":
            assert out.resolution.classes == tuple(tuple(sorted(c)) for c in classes), case
        else:
            assert out.resolution is None, case


def test_find_parallel_class_matches_the_reference_kernel():
    for name, blocks, ground, budget in CORPUS:
        ref = ReferenceSearch(blocks, ground, budget, one_class=True)
        status, classes = ref.run()
        first = classes[0] if classes else None
        one = _Search(blocks, ground, budget, want=1)
        case = f"{name} at budget {budget}"
        assert (one.run(), one.nodes) == ((status, classes), ref.nodes), case
        if status == "exhausted":
            with pytest.raises(ParameterError):
                find_parallel_class(blocks, ground, budget)
        else:
            assert find_parallel_class(blocks, ground, budget) == first, case
