"""Independent resolvability oracle: depth-first exact cover.

Used to confirm resolutions without trusting shipped certificate data:
classes are grown one block at a time, always extending at the least
uncovered point and trying its incident unused blocks in canonical order,
which makes the search deterministic and the first answer
lexicographically least.  One search serves both entry points: it stops
after one class for ``find_parallel_class`` and once every block is used
for ``find_resolution``.  A node budget separates "provably none" from
"ran out of budget"; the two are never conflated.

The state of the class being grown is one integer bitmask over the
ground ids.  Every block carries its own mask, so the least uncovered
point is the lowest zero bit, a candidate conflicts iff its mask meets the
cover, and a step recurses on ``covered | mask`` with nothing to undo; a
class is complete when the cover is full.  The masks set only the cost of
a node, never the search: candidate order, node counts and verdicts follow
from the rules above alone, and the tests pin them against a per-point
reference kernel.

The oracle is confined to instances of at most 45 points: that covers
every derived design shipped here, and anything larger is verified
against constructed certificates instead of searched.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Block, Design, ParameterError, Resolution, derived_frame

MAX_ORACLE_POINTS = 45
DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class SearchOutcome:
    """status is "found", "none" (exhaustive proof), or "exhausted"."""

    status: str
    resolution: Resolution | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "found"


class _Budget(Exception):
    pass


class _Search:
    """Depth-first search for ``want`` classes (a resolution when None)."""

    def __init__(self, blocks: Iterable[Block], ground: Sequence[int], budget: int,
                 want: int | None = None):
        self.ground = tuple(sorted(ground))
        if len(self.ground) > MAX_ORACLE_POINTS:
            raise ParameterError(
                f"oracle confined to {MAX_ORACLE_POINTS} points, got {len(self.ground)}"
            )
        index = {p: n for n, p in enumerate(self.ground)}
        multiset = Counter(tuple(sorted(b)) for b in blocks)
        self.blocks = sorted(multiset)
        self.avail = [multiset[b] for b in self.blocks]
        # per ground id, the (block index, block mask) pairs through it,
        # in ascending block index: the canonical candidate order
        self.incident: list[list[tuple[int, int]]] = [[] for _ in self.ground]
        for bi, b in enumerate(self.blocks):
            ids = [index[p] for p in b]
            mask = sum(1 << p for p in ids)
            for p in ids:
                self.incident[p].append((bi, mask))
        self.budget = budget
        self.nodes = 0
        self.n = len(self.ground)
        self.full = (1 << self.n) - 1
        self.want = want
        self.classes: list[list[int]] = []
        self.remaining = sum(self.avail)

    def run(self) -> tuple[str, list[list[Block]] | None]:
        sizes = {len(b) for b in self.blocks}
        if len(sizes) == 1 and self.n % sizes.pop():
            return "none", None  # one block size, and it does not divide the ground
        if self.want is None and not self.remaining:
            return "found", []
        try:
            found = self._class_step(0, [])
        except _Budget:
            return "exhausted", None
        if not found:
            return "none", None
        return "found", [[self.blocks[bi] for bi in cls] for cls in self.classes]

    def _class_step(self, covered: int, chosen: list[int], anchor_min: int = 0) -> bool:
        """Extend the current class; True once the search is done.

        The first block of a class (its anchor, through the least ground
        point) is restricted to indices >= anchor_min: successive classes
        carry strictly increasing anchors, which kills the class
        permutation symmetry without losing any resolution (every class
        contains exactly one block through the least point).
        """
        if covered == self.full:
            return self._on_class(chosen)
        pivot = (~covered & (covered + 1)).bit_length() - 1
        floor = anchor_min if not chosen else 0
        avail = self.avail
        for bi, mask in self.incident[pivot]:
            if bi < floor or mask & covered or not avail[bi]:
                continue
            self.nodes += 1
            if self.nodes > self.budget:
                raise _Budget()
            avail[bi] -= 1
            chosen.append(bi)
            if self._class_step(covered | mask, chosen, anchor_min):
                return True
            chosen.pop()
            avail[bi] += 1
        return False

    def _on_class(self, chosen: list[int]) -> bool:
        """Keep a class; True once ``want`` are kept or every block is used."""
        self.classes.append(list(chosen))
        self.remaining -= len(chosen)
        if not self.remaining or len(self.classes) == self.want:
            return True
        if self._class_step(0, [], chosen[0] + 1):
            return True
        self.remaining += len(chosen)
        self.classes.pop()
        return False


def find_parallel_class(
    blocks: Iterable[Block], ground: Sequence[int], budget: int = DEFAULT_BUDGET
) -> list[Block] | None:
    """Lexicographically least parallel class, or None if there is none."""
    status, classes = _Search(blocks, ground, budget, want=1).run()
    if status == "exhausted":
        raise ParameterError(f"parallel-class search exceeded {budget} nodes")
    return classes[0] if classes else None


def find_resolution(
    blocks: Iterable[Block], ground: Sequence[int], budget: int = DEFAULT_BUDGET
) -> SearchOutcome:
    """A full resolution, a proof of non-resolvability, or budget exhaustion."""
    blocks = tuple(blocks)  # read twice: by the search and for the target
    search = _Search(blocks, ground, budget)
    status, classes = search.run()
    resolution = None
    if status == "found":
        resolution = Resolution(
            ground=tuple(sorted(ground)),
            classes=tuple(tuple(sorted(cls)) for cls in classes),
            target=tuple(sorted(Counter(tuple(sorted(b)) for b in blocks).elements())),
        )
    return SearchOutcome(status=status, resolution=resolution, nodes=search.nodes)


def derived_instance(d: Design, x) -> tuple[list[Block], tuple[int, ...]]:
    """(blocks, ground) of the derived design at x, in parent ids.

    For a GDD the whole group of x leaves the ground set.
    """
    ground, target = derived_frame(d, x)
    return list(target), ground


def confirm_rds(d: Design, budget: int = DEFAULT_BUDGET) -> dict[str, SearchOutcome]:
    """Search a resolution of the derived design at every point.

    For a GDD each search runs on the derived GDD (the point's whole group
    leaves the ground).  The object is resolvable at every point iff every
    outcome is "found"; any "exhausted" entry leaves the question open
    rather than answering it.
    """
    out = {}
    for xid in range(d.v):
        blocks, ground = derived_instance(d, xid)
        out[d.labels[xid].text] = find_resolution(blocks, ground, budget)
    return out
