"""Canonical data model for block designs and their exhaustive verifiers.

Points carry structured labels (plain integers, pairs ``a_i``, infinity
marks ``inf_i``, or GF(16) elements) but are handled internally as dense
integer ids ``0..v-1``.  Blocks are sorted id tuples.  A design is a block
multiset with declared strength ``t`` and admitted block sizes ``K``; it
carries its groups, a partition of the points for a GDD and none for a
plain design, so one ``derived_design`` serves both.  ``lift`` moves a small
design on local points g*k+i onto block x Zg of a master, the one step
behind every filled or quadrupled design.  ``mover`` carries blocks round
a label action, the one step behind orbit development.  Verification is
exhaustive: every t-subset of the point set is counted, so a passing report
is a proof of the defining property, not a spot check.

The coverage kernel counts the t-subsets of every block by colex rank,
with an unrolled path for blocks of size 4 at t = 3, into a list for up to
``LIST_COUNTS_MAX`` t-sets and a bytearray beyond.  Observed and expected
counts are compared in C, a run of bytes at a time; only a run that
differs is XORed as integers, whose nonzero bytes are the witnesses,
lowest rank first.
``verify_gdd`` scans for blocks that meet a group twice only when coverage
does not already imply the answer: when a non-cross t-set is covered,
some block is shorter than t, or t < 2.  ``verify_resolution`` decides by
set tests, and by the tallies that name its witnesses where those cannot.
In an S(3, 4, v) each 3-set lies in one block, whose fourth point owns it,
so the derived designs at the v points partition the 3-sets:
``owner_table`` holds each 3-set's owner by colex rank, in one pass that is
also the Steiner proof, and a resolution of the derived design at x is
proved by ``owns`` of the ``section_ranks`` of its triples' ``class_ids``.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Callable, Iterable, Iterator, Sequence

Block = tuple[int, ...]

MAX_WITNESSES = 16


class DesignError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(DesignError):
    """Arguments violate a documented precondition."""


class DuplicateBlockError(DesignError):
    """Orbit development produced the same block twice."""


class TableError(DesignError):
    """A rule table does not match the design it is meant to cover."""


class DataIntegrityError(DesignError):
    """Shipped or supplied certificate data failed re-verification."""


class ConstructionError(DesignError):
    """An assembled object failed its own internal checks."""


# ---------------------------------------------------------------------------
# labels


@dataclass(frozen=True)
class Label:
    """Structured point label.

    kind "plain": the integer ``a``       -> text "a"
    kind "pair":  the pair ``(a, i)``     -> text "a_i"
    kind "inf":   infinity mark ``i``     -> text "inf_i"
    kind "f16":   GF(16) element ``a``    -> text "a^k" (0 and 1 are plain)
    """

    kind: str
    a: int
    i: int = 0

    @staticmethod
    def plain(a: int) -> "Label":
        return Label("plain", a)

    @staticmethod
    def pair(a: int, i: int) -> "Label":
        return Label("pair", a, i)

    @staticmethod
    def inf(i: int = 0) -> "Label":
        return Label("inf", 0, i)

    @staticmethod
    def f16(bits: int) -> "Label":
        return Label.plain(bits) if bits < 2 else Label("f16", bits)

    @property
    def text(self) -> str:
        if self.kind == "plain":
            return str(self.a)
        if self.kind == "pair":
            return f"{self.a}_{self.i}"
        if self.kind == "inf":
            return f"inf_{self.i}"
        from . import gf16

        return gf16.text(self.a)


def parse_label(text: str) -> Label:
    """Inverse of ``Label.text`` (GF(16) "0"/"1" parse as plain).

    Only canonical text is accepted: ValueError for anything ``Label.text``
    would not write back unchanged ("07", "inf", "a^0", "1_01", ...), so a
    label has exactly one spelling.
    """
    if text.startswith("inf_"):
        lab = Label.inf(int(text[4:]))
    elif text.startswith("a^"):
        from . import gf16

        lab = Label.f16(gf16.alpha_power(int(text[2:])))
    elif "_" in text:
        a, i = text.split("_")
        lab = Label.pair(int(a), int(i))
    else:
        lab = Label.plain(int(text))
    if lab.text != text:
        raise ValueError(f"non-canonical point label {text!r} (write {lab.text!r})")
    return lab


@dataclass(frozen=True)
class Shift:
    """Cyclic shift of the first label coordinate; infinity labels fixed.

    Models the automorphisms used throughout: ``Shift(p, 21)`` on plain
    labels, ``Shift(j, 7)`` on pair labels (the "mod (7,-)" action, second
    coordinate untouched), ``Shift(2k, 14)`` for the +2 action.
    """

    delta: int
    modulus: int

    def __call__(self, lab: Label) -> Label:
        if lab.kind == "plain":
            return Label.plain((lab.a + self.delta) % self.modulus)
        if lab.kind == "pair":
            return Label.pair((lab.a + self.delta) % self.modulus, lab.i)
        if lab.kind == "inf":
            return lab
        raise ParameterError(f"shift undefined for label kind {lab.kind!r}")


# ---------------------------------------------------------------------------
# designs


@dataclass(frozen=True)
class Design:
    """Block multiset with declared parameters (t, K, v).

    ``labels`` fixes the id <-> label bijection; ids are 0..v-1 in label
    sort order for canonically built designs.  ``blocks`` is stored sorted,
    the only canonical form.  ``groups`` partition the points of a GDD and
    are empty for a plain design.
    """

    t: int
    sizes: frozenset[int]
    labels: tuple[Label, ...]
    blocks: tuple[Block, ...]
    kind: str = "RAW"
    groups: tuple[tuple[int, ...], ...] = ()

    @property
    def v(self) -> int:
        return len(self.labels)

    @cached_property
    def label_index(self) -> dict[str, int]:
        """Point id by label text, in id order: ``list(label_index)`` is the
        labels' texts."""
        idx = {lab.text: i for i, lab in enumerate(self.labels)}
        if len(idx) != len(self.labels):
            raise ParameterError("labels are not distinct")
        return idx

    def point(self, label: Label | str | int) -> int:
        """Resolve a label, label text, or id to a point id."""
        if isinstance(label, int):
            if not 0 <= label < self.v:
                raise ParameterError(f"point id {label} out of range")
            return label
        text = label if isinstance(label, str) else label.text
        if text in self.label_index:
            return self.label_index[text]
        try:
            parse_label(text)
        except ValueError:
            raise ParameterError(f"malformed point label {text!r}") from None
        raise ParameterError(f"no point labelled {text}")

    @cached_property
    def incidence(self) -> tuple[tuple[Block, ...], ...]:
        """For each point id, the blocks through it, in block order: the
        tuples of ``blocks`` themselves, one pointer per (point, block) slot.
        Each point's list becomes a tuple in place, so no second copy is held."""
        inc: list = [[] for _ in range(self.v)]
        for b in self.blocks:
            for p in b:
                inc[p].append(b)
        for p, through in enumerate(inc):
            inc[p] = tuple(through)
        return tuple(inc)

    @cached_property
    def group_of(self) -> tuple[int, ...]:
        gof = [-1] * self.v
        for gi, cell in enumerate(self.groups):
            if not cell:
                raise ParameterError(f"group {gi} is empty")
            for p in cell:
                if gof[p] != -1:
                    raise ParameterError(f"point {p} in two groups")
                gof[p] = gi
        if any(g == -1 for g in gof):
            raise ParameterError("groups do not cover the point set")
        return tuple(gof)


def make_design(
    t: int,
    sizes: Iterable[int],
    labels: Sequence[Label],
    blocks: Iterable[Sequence[int]],
    kind: str = "RAW",
) -> Design:
    """Canonicalize and validate raw block data into a Design.

    A list or tuple of tuple blocks of one size is checked column by column
    (``_ascending_in_range``) and, when that passes, kept block for block.
    Otherwise each block is checked in turn, so a rejected one is named: a
    tuple of strictly ascending ids is kept as it is, not copied (it has no
    repeated point); any other block is sorted into a new tuple and checked
    for repeated points.  Every block is then checked for its size in
    ``sizes`` and for ids in ``0..v-1``.
    """
    labels = tuple(labels)
    sizes = frozenset(sizes)
    v = len(labels)
    if isinstance(blocks, (list, tuple)) and _ascending_in_range(blocks, sizes, v):
        return Design(t=t, sizes=sizes, labels=labels, blocks=tuple(sorted(blocks)), kind=kind)
    canon = []
    for b in blocks:
        if type(b) is tuple and all(map(operator.lt, b, b[1:])):
            cb = b
        else:
            cb = tuple(sorted(b))
            if len(set(cb)) != len(cb):
                raise ParameterError(f"repeated point in block {cb}")
        if len(cb) not in sizes:
            raise ParameterError(f"block {cb} has size outside {sorted(sizes)}")
        if cb and (cb[0] < 0 or cb[-1] >= v):
            raise ParameterError(f"block {cb} references unknown point ids")
        canon.append(cb)
    canon.sort()
    return Design(t=t, sizes=sizes, labels=labels, blocks=tuple(canon), kind=kind)


def _ascending_in_range(blocks: Sequence, sizes: frozenset[int], v: int) -> bool:
    """Whether ``blocks`` are tuples of one size k >= 1 in ``sizes``, each
    strictly ascending with ids in ``0..v-1``: decided a column at a time,
    each column below the next (which stops at the first unsorted block),
    then the first from 0 and the last below v, by iterators over the
    blocks, so no copy of them is made."""
    if set(map(type, blocks)) != {tuple}:
        return False
    lengths = set(map(len, blocks))
    if len(lengths) != 1:
        return False
    (k,) = lengths
    if k < 1 or k not in sizes:
        return False
    cols = [operator.itemgetter(j) for j in range(k)]
    return (
        all(all(map(operator.lt, map(lo, blocks), map(hi, blocks)))
            for lo, hi in zip(cols, cols[1:]))
        and min(map(cols[0], blocks)) >= 0
        and max(map(cols[-1], blocks)) < v
    )


def _getter(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The tuple of the items at ``positions``, as one call: an
    ``operator.itemgetter``, except that it also returns a tuple for one
    position (a 1-tuple) and for none (the empty tuple)."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    if positions:
        (k,) = positions
        return lambda m: (m[k],)
    return lambda m: ()


# bounded for any caller; the RDSQS(112) path lifts about 150 local lists
@lru_cache(maxsize=1024)
def _getters(blocks: tuple[Block, ...]) -> tuple[Callable[[Sequence], tuple], ...]:
    return tuple(map(_getter, blocks))


def lift_map(xs: Sequence[int], g: int) -> list[int]:
    """The map g*k+i -> g*xs[k]+i of local points onto xs x Zg, as a list."""
    rg = range(g)
    return [gx + i for gx in [g * x for x in xs] for i in rg]


def lift(blocks: Iterable[Block], xs: Sequence[int], g: int) -> tuple[Block, ...]:
    """Blocks on local points g*k+i (point k of a master block, fibre i)
    moved onto xs x Zg by ``lift_map``.  The map is increasing when xs is,
    so sorted blocks then lift to sorted blocks.

    Each local block is compiled to one getter, once per local block list
    (cached on the list), and the getters are applied to the map; a block
    of one point lifts to a 1-tuple."""
    m = lift_map(xs, g)
    return tuple([f(m) for f in _getters(tuple(blocks))])


def plain_labels(ns: Iterable[int]) -> tuple[Label, ...]:
    return tuple(map(Label.plain, ns))


class Gdd(Design):
    """The design ``design`` with the groups ``groups``."""

    def __init__(self, design: Design, groups: tuple[tuple[int, ...], ...]) -> None:
        super().__init__(design.t, design.sizes, design.labels, design.blocks, design.kind, groups)

    @property
    def design(self) -> Design:
        return self


@dataclass(frozen=True)
class Resolution:
    """An ordered list of parallel classes certifying resolvability.

    ``target`` is the exact block multiset the classes must exhaust;
    ``ground`` is the point set every class must partition.  Class order is
    significant and preserved (certificate data indexes classes by
    position).
    """

    ground: tuple[int, ...]
    classes: tuple[tuple[Block, ...], ...]
    target: tuple[Block, ...]


@dataclass
class VerifyReport:
    """Outcome of an exhaustive check: ``passed`` iff no violations.

    ``violations`` holds at most ``MAX_WITNESSES`` (kind, witness) pairs so
    badly corrupt inputs cannot blow up memory; ``counts`` carries observed
    vs expected block tallies for quick reporting.  ``require(label)``
    raises ``DataIntegrityError`` naming ``label`` unless ``passed``.
    """

    passed: bool = True
    violations: list[tuple[str, object]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def flag(self, kind: str, witness: object) -> None:
        self.passed = False
        if len(self.violations) < MAX_WITNESSES:
            self.violations.append((kind, witness))

    def require(self, label: str) -> "VerifyReport":
        if not self.passed:
            raise DataIntegrityError(f"{label} failed: {self.violations[:4]}")
        return self


# ---------------------------------------------------------------------------
# counting helpers


def expected_block_count(t: int, k: int, v: int) -> tuple[int, bool]:
    """Block count C(v,t)/C(k,t) of an S(t,k,v) and whether it is exact."""
    if t > k or k > v or t < 1:
        raise ParameterError(f"need t <= k <= v, got t={t} k={k} v={v}")
    num, den = math.comb(v, t), math.comb(k, t)
    return num // den, num % den == 0


def subset_rank(sub: Block) -> int:
    """Colexicographic rank of a sorted id tuple among all same-size tuples."""
    return sum(math.comb(p, j + 1) for j, p in enumerate(sub))


def subset_unrank(rank: int, t: int) -> Block:
    """Inverse of subset_rank."""
    out = []
    for j in range(t, 0, -1):
        p = j - 1
        while math.comb(p + 1, j) <= rank:
            p += 1
        out.append(p)
        rank -= math.comb(p, j)
    return tuple(reversed(out))


def _count(counts, blocks: Iterable[Block], tabs: Sequence[list[int]]) -> None:
    """Add 1 at the colex rank of every t-subset of every block, t = len(tabs).

    Blocks of size 4 at t = 3, the shape of every SQS and TD here, take an
    unrolled path: the ranks of abc, abd, acd and bcd share the partial sums
    ``a + C(b, 2)`` and ``C(c, 2) + C(d, 3)``.
    """
    other = blocks
    if len(tabs) == 3:
        _, t2, t3 = tabs
        other = []
        for blk in blocks:
            if len(blk) != 4:
                other.append(blk)
                continue
            a, b, c, d = blk
            ab = a + t2[b]
            cd = t2[c] + t3[d]
            counts[ab + t3[c]] += 1
            counts[ab + t3[d]] += 1
            counts[a + cd] += 1
            counts[b + cd] += 1
    if len(tabs) == 2:
        _, t2 = tabs
        for blk in other:
            for x, y in itertools.combinations(blk, 2):
                counts[x + t2[y]] += 1
    else:
        for blk in other:
            for sub in itertools.combinations(blk, len(tabs)):
                counts[sum(map(list.__getitem__, tabs, sub))] += 1


# Up to this many t-sets, counts go in a list (8 bytes a slot, about 20%
# faster to increment); above it, in a bytearray (1 byte a slot).
# C(112, 3) = 227,920 fits, so every SQS and GDD here takes the list.
LIST_COUNTS_MAX = 1 << 18


@lru_cache(maxsize=16)
def _rank_tables(v: int, t: int) -> tuple[list[int], ...]:
    """C(p, j) for p in 0..v-1, a list for each j in 1..t, which callers only
    read: the colex rank of a 3-set a < b < c is C(a, 1) + C(b, 2) + C(c, 3)."""
    return tuple([math.comb(p, j) for p in range(v)] for j in range(1, t + 1))


def _coverage(blocks: Sequence[Block], t: int, v: int) -> bytes:
    """How many blocks cover each t-subset, by colex rank, capped at 255."""
    n = math.comb(v, t)
    tabs = _rank_tables(v, t)
    counts = [0] * n if n <= LIST_COUNTS_MAX else bytearray(n)
    try:
        _count(counts, blocks, tabs)
        return bytes(counts)  # a list entry past 255 raises here
    except ValueError:  # some t-set is covered more than 255 times
        capped = bytearray(n)
        for blk in blocks:
            for sub in itertools.combinations(blk, t):
                r = sum(map(list.__getitem__, tabs, sub))
                if capped[r] < 255:
                    capped[r] += 1
        return bytes(capped)


_NONZERO = re.compile(rb"[^\x00]")
MISMATCH_RUN = 1 << 16


def _mismatches(counts: bytes, expected: bytes) -> Iterator[int]:
    """Ranks at which the two arrays differ, lowest first.

    Runs of ``MISMATCH_RUN`` bytes are compared in C.  Only a run that
    differs is XORed as two little-endian integers, whose nonzero bytes are
    the ranks, so a passing check builds no integers and a failing one holds
    one run.
    """
    for lo in range(0, len(counts), MISMATCH_RUN):
        a, b = counts[lo:lo + MISMATCH_RUN], expected[lo:lo + MISMATCH_RUN]
        if a != b:
            diff = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
            for m in _NONZERO.finditer(diff.to_bytes(len(a), "little")):
                yield lo + m.start()


# ---------------------------------------------------------------------------
# verifiers


def verify_steiner(d: Design) -> VerifyReport:
    """Check that every t-subset of points lies in exactly one block."""
    rep = VerifyReport()
    counts = _coverage(d.blocks, d.t, d.v)
    if len(d.sizes) == 1:
        (k,) = d.sizes
        if 1 <= d.t <= k <= d.v:  # else there is no S(t, k, v) to count blocks of
            expect, exact = expected_block_count(d.t, k, d.v)
            rep.counts["expected_blocks"] = expect if exact else -1
    rep.counts["blocks"] = len(d.blocks)
    for r in _mismatches(counts, b"\x01" * len(counts)):
        rep.flag("covered %d times" % counts[r], subset_unrank(r, d.t))
        if len(rep.violations) >= MAX_WITNESSES:
            break
    return rep


@lru_cache(maxsize=16)
def _expected_cross_coverage(
    v: int, t: int, groups: tuple[tuple[int, ...], ...]
) -> tuple[bytes, int]:
    """1 at the rank of every t-set meeting t distinct groups, else 0; and
    the little-endian integer with 0xff at the rank of every other t-set.

    Starts from all ones and zeroes only the t-sets holding two points of
    one group, each reached from every such pair it holds, so the work
    follows the non-cross t-sets rather than all C(v, t).
    """
    expected = bytearray(b"\x01") * math.comb(v, t)
    for cell in groups if t >= 2 else ():  # a smaller t-set holds no pair
        for pair in itertools.combinations(cell, 2):
            rest = [p for p in range(v) if p not in pair]
            for others in itertools.combinations(rest, t - 2):
                expected[subset_rank(sorted(pair + others))] = 0
    non_cross = expected.translate(bytes.maketrans(b"\x00\x01", b"\xff\x00"))
    return bytes(expected), int.from_bytes(non_cross, "little")


def verify_gdd(d: Design) -> VerifyReport:
    """Check the block/group intersection rule and exact cross coverage.

    At t >= 2, a block (sorted, distinct points) of at least t points that
    meets a group twice covers a non-cross t-set.  So the scan for such
    blocks runs only when a non-cross t-set is covered, some block is
    shorter than t, or t < 2, where every t-set is a cross set.  It flags
    its witnesses before the coverage witnesses.
    """
    rep = VerifyReport()
    rep.counts["blocks"] = len(d.blocks)
    gof = d.group_of  # raises ParameterError unless the groups partition the points
    expected, non_cross = _expected_cross_coverage(d.v, d.t, d.groups)
    counts = _coverage(d.blocks, d.t, d.v)
    covers_non_cross = counts != expected and int.from_bytes(counts, "little") & non_cross
    if d.t < 2 or covers_non_cross or min(map(len, d.blocks), default=d.t) < d.t:
        for b in d.blocks:
            hit = [gof[p] for p in b]
            if len(set(hit)) != len(hit):
                rep.flag("block meets a group twice", b)
    for r in _mismatches(counts, expected):
        c = counts[r]
        kind = "cross set covered %d times" % c if expected[r] else "non-cross set covered"
        rep.flag(kind, subset_unrank(r, d.t))
        if len(rep.violations) >= MAX_WITNESSES:
            break
    rep.counts["groups"] = len(d.groups)
    return rep


def owner_table(d: Design):
    """The owner of each 3-set of an S(3, 4, v) ``d`` by colex rank, the
    fourth point of the one block through it; None unless ``d`` has T 3, K
    {4}, C(v, 3)/4 blocks and no slot left at its sentinel, so that by
    pigeonhole each 3-set lies in exactly one block: the Steiner proof.  One
    byte a rank while v < 255, else two (``array('H')``)."""
    from array import array

    n = math.comb(d.v, 3)
    if d.t != 3 or d.sizes != {4} or not d.blocks or 4 * len(d.blocks) != n:
        return None
    _, t2, t3 = _rank_tables(d.v, 3)
    none = 255 if d.v < 255 else 65535  # no point's id
    owner = bytearray([none]) * n if none == 255 else array("H", [none]) * n
    for a, b, c, x in d.blocks:
        ab = a + t2[b]
        cx = t2[c] + t3[x]
        owner[ab + t3[c]] = x
        owner[ab + t3[x]] = c
        owner[a + cx] = b
        owner[b + cx] = a
    return None if none in owner else owner


def section_ranks(v: int, x: int, flat: Sequence[int] | None) -> "array | None":
    """The colex ranks of the triples ``flat[0:3]``, ``flat[3:6]``, ... of
    the ids ``flat``, as ``array('I')``, if each run of v - 1 ids (a class)
    is the points 0..v-1 other than x, each triple ascends, and the ranks
    are distinct and (v - 1)(v - 2)/6 in number; else (or if None) None.

    In an S(3, 4, v) with an ``owner_table``, the classes are a resolution
    of the derived design at x exactly when they pass here and x owns every
    rank (``owns``): the ranks are then as many as that design's triples,
    all distinct and all among them."""
    n = v - 1
    if not flat or n % 3 or len(flat) != n * (n - 1) // 2:
        return None
    from array import array

    runs, ranks = range(0, len(flat), n), array("I")
    try:  # as bytes: no id outside the ground, and no class that leaves one out
        ids, ground = bytes(flat), bytes(p for p in range(v) if p != x)
        fits = not ids.translate(None, ground) and not any(
            ground.translate(None, ids[i:i + n]) for i in runs)
    except ValueError:  # some id or point past 255 (or below 0)
        ids, ground = flat, set(range(v)) - {x}
        fits = all(set(flat[i:i + n]) == ground for i in runs)
    a, b, c = ids[0::3], ids[1::3], ids[2::3]
    if not (fits and all(map(operator.lt, a, b)) and all(map(operator.lt, b, c))):
        return None
    if isinstance(ground, set):
        _, t2, t3 = _rank_tables(v, 3)
        ranks.extend(map(operator.add, map(operator.add, a, map(t2.__getitem__, b)),
                         map(t3.__getitem__, c)))
    else:  # each rank a field of one int, its tables looked up a byte plane at a time
        total = 0
        for part, planes in zip((a, b, c), _rank_planes()):
            field = bytearray(ranks.itemsize * len(part))
            for k, plane in enumerate(planes):
                field[k::ranks.itemsize] = part.translate(plane)
            total += int.from_bytes(field, "little")
        ranks.frombytes(total.to_bytes(ranks.itemsize * len(a), "little"))
        if sys.byteorder == "big":
            ranks.byteswap()
    return ranks if len(set(ranks)) == len(ranks) else None


@lru_cache(maxsize=None)
def _rank_planes() -> tuple[tuple[bytes, ...], ...]:
    """For j = 1, 2, 3, a ``bytes.translate`` table of byte k < j of C(p, j), p < 256."""
    return tuple(tuple(bytes(math.comb(p, j) >> 8 * k & 255 for p in range(256)) for k in range(j))
                 for j in (1, 2, 3))


def class_ids(v: int, classes: Sequence[Sequence[Block]]) -> list[int] | None:
    """The ids of ``classes`` in order, flattened, if every block holds 3
    points and every class (v - 1)/3 blocks; else None."""
    blocks = reduce(operator.iconcat, classes, [])  # one extend a class
    if any(len(cls) != (v - 1) // 3 for cls in classes) or set(map(len, blocks)) - {3}:
        return None
    return reduce(operator.iconcat, blocks, [])


def owns(owner, x: int, ranks: Sequence[int] | None) -> bool:
    """Whether x owns every rank of ``ranks`` (None: not ranked) in ``owner``."""
    return ranks is not None and _getter(ranks)(owner).count(x) == len(ranks)


def is_partition(blocks: Sequence[Block], ground: Sequence[int]) -> tuple[str, object] | None:
    """Return a violation witness if ``blocks`` do not partition ``ground``,
    decided by tallying both: the first point covered twice or foreign, else
    the first uncovered one."""
    seen, want = Counter(itertools.chain.from_iterable(blocks)), Counter(ground)
    if seen == want:
        return None
    extra = seen - want
    if extra:
        return ("point covered twice or foreign", next(iter(extra)))
    return ("point uncovered", next(iter(want - seen)))


def verify_resolution(r: Resolution) -> VerifyReport:
    """Each class partitions the ground set; classes exhaust the target.

    Set tests decide what they can.  When the ground repeats no id, a class
    partitions it if its block sizes sum to the ground's size and its points
    make the ground's set.  The classes exhaust the target if their blocks
    are as many as the target's, and all distinct and each in it, or else
    sorted as it is (a multiset target).  Where a test fails, or cannot
    decide because the ground repeats an id, the tallies that name the
    witnesses (``is_partition``, ``Counter``) decide.
    """
    rep = VerifyReport()
    rep.counts["classes"] = len(r.classes)
    rep.counts["blocks"] = len(r.target)
    n = len(r.ground)
    points = set(r.ground)
    for ci, cls in enumerate(r.classes):
        if len(points) == n and sum(map(len, cls)) == n and points == set().union(*cls):
            continue
        bad = is_partition(cls, r.ground)
        if bad is not None:
            rep.flag(f"class {ci}: {bad[0]}", bad[1])
    used = set().union(*r.classes)
    size = sum(map(len, r.classes))
    if size == len(r.target) and (used.issubset(r.target) if size == len(used) else
                                  sorted(itertools.chain(*r.classes)) == sorted(r.target)):
        return rep
    union, want = Counter(itertools.chain.from_iterable(r.classes)), Counter(r.target)
    for b in (union - want):
        rep.flag("block not in target (or over-used)", b)
        break
    for b in (want - union):
        rep.flag("target block missing from classes", b)
        break
    return rep


# ---------------------------------------------------------------------------
# derivation and label actions


def derived_frame(d: Design, x: Label | str | int) -> tuple[tuple[int, ...], tuple[Block, ...]]:
    """(ground, target) of the derived design at x, in parent ids.

    ``target`` is the sorted multiset of blocks through x with x removed,
    cut out of each block by the one getter of its size and x's position
    (from one table when every block through x has the same size), and
    sorted in place once;
    ``ground`` is every point outside the group of x (every point but x
    when the design has no groups).
    """
    xid = d.point(x)
    gone = d.groups[d.group_of[xid]] if d.groups else (xid,)
    ground = tuple(p for p in range(d.v) if p not in gone)
    through = d.incidence[xid]
    sizes = set(map(len, through))
    if len(sizes) == 1:
        cut = _cuts(*sizes)
        punctured = [cut[b.index(xid)](b) for b in through]
    else:
        cuts = {k: _cuts(k) for k in sizes}
        punctured = [cuts[len(b)][b.index(xid)](b) for b in through]
    punctured.sort()
    return ground, tuple(punctured)


@lru_cache(maxsize=None)
def _cuts(k: int) -> tuple[Callable[[Block], Block], ...]:
    """For each position of a k-point block, the getter of its other points."""
    return tuple(_getter([j for j in range(k) if j != i]) for i in range(k))


def derived_design(d: Design, x: Label | str | int) -> Design:
    """The derived frame at x as a design on dense ids 0..|ground|-1:
    strength and sizes drop by one.  A design with groups gives a ``Gdd`` of
    kind GDD on the groups other than that of x.  The surviving points keep
    their original order and labels, so label-based lookups keep working."""
    if d.t < 1:
        raise ParameterError(f"a design of strength {d.t} has no derived design")
    ground, target = derived_frame(d, x)
    old_to_new = {p: n for n, p in enumerate(ground)}
    sub = make_design(
        t=d.t - 1,
        sizes={s - 1 for s in d.sizes},
        labels=[d.labels[p] for p in ground],
        blocks=[tuple(old_to_new[p] for p in b) for b in target],
        kind="GDD" if d.groups else {"SQS": "STS"}.get(d.kind, "RAW"),
    )
    if not d.groups:
        return sub
    groups = tuple(
        tuple(old_to_new[p] for p in cell)
        for cell in d.groups
        if all(p in old_to_new for p in cell)
    )
    return Gdd(design=sub, groups=groups)


derived_gdd = derived_design  # the name the benchmark imports


def mover(labels: Sequence[Label], action) -> Callable[[Block], Block]:
    """The map a label permutation induces on blocks of ids into ``labels``:
    a block goes to the sorted tuple of its points' images."""
    index = {lab: i for i, lab in enumerate(labels)}
    perm = []
    for lab in labels:
        img = action(lab)
        if img not in index:
            raise ParameterError(f"action maps {lab.text} outside the point set")
        perm.append(index[img])
    if len(set(perm)) != len(perm):
        raise ParameterError("action is not a bijection on the labels")
    return lambda b: tuple(sorted(map(perm.__getitem__, b)))


def admissible(kind: str, v: int) -> bool:
    """Existence congruence: SQS iff v = 2,4 (mod 6); KTS iff v = 3 (mod 6)."""
    if v < 1:
        raise ParameterError("order must be positive")
    if kind.upper() == "SQS":
        return v % 6 in (2, 4)
    if kind.upper() == "KTS":
        return v % 6 == 3
    raise ParameterError(f"unknown design kind {kind!r}")
