"""Quadrupling construction: an RDSQS(4v) from a star-certified SQS(v).

The engine is a fixed template: the Boolean SQS(16) on GF(16) (zero-sum
quadruples), whose 35 translation orbits split into 7 rows of 5, each row
a resolvable S(2,4,16).  Inside it sit a parallel class P of four groups
(the orbit of {0,1,a,a^4}), a 2-resolvable TD(3,4,4) on those groups (the
16 distinguished orbits, resolving into four TD(2,4,4) rows), and a
remainder that coincides with the two-column blocks cut out by the
one-factorization F1,F2,F3 of Z4.  Everything is renamed once to
Z4 x Z4 coordinates and re-verified from scratch at template build time;
``core.lift`` then moves template blocks onto block x Z4, as the catalog
moves its TD(3,4,3) onto block x Z3.

For an input SQS(v) on points X, the output design on X x Z4 is

    union of TD(3,4,4) copies over all blocks,  +  two-column blocks over
    all point pairs,  +  the v column quadruples,

and the per-point parallel classes of the derived KTS(4v-1) are assembled
from the template's derived classes, steered by the star certificate's
class structure and a deterministic first/second-occurrence ledger.
Every assembled resolution is proved by ``core``'s owner route where it is
used (``construct_rdsqs_4v``, the ``construct`` command); nothing rests on
the construction being correct on paper.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import gf16
from .core import (
    Block,
    ConstructionError,
    DataIntegrityError,
    Design,
    Gdd,
    Label,
    ParameterError,
    Resolution,
    VerifyReport,
    _getters,
    class_ids,
    derived_frame,
    lift,
    lift_map,
    make_design,
    owner_table,
    owns,
    section_ranks,
    verify_gdd,
    verify_resolution,
    verify_steiner,
)
from .star import StarCertificate, StarPointCertificate

# one-factorization of Z4: F[s] is a perfect matching on {0,1,2,3}
FACTORIZATION = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)

# Base-block table of the Boolean SQS(16), one row per S(2,4,16).
# Elements are alpha-power codes: -1 is the zero element, k >= 0 is a^k.
# The first block of the first row generates the group parallel class; the
# blocks at _TD_ROWS generate the TD(3,4,4) on those groups.
_ROW_BASES = (
    ((-1, 0, 1, 4), (-1, 2, 3, 6), (-1, 5, 7, 13), (-1, 10, 11, 14), (-1, 8, 9, 12)),
    ((-1, 0, 2, 8), (-1, 1, 7, 14), (-1, 4, 6, 12), (-1, 3, 5, 11), (-1, 9, 10, 13)),
    ((-1, 0, 3, 14), (-1, 2, 4, 10), (-1, 1, 12, 13), (-1, 5, 6, 9), (-1, 7, 8, 11)),
    ((-1, 0, 5, 10), (-1, 1, 6, 11), (-1, 4, 9, 14), (-1, 2, 7, 12), (-1, 3, 8, 13)),
    ((-1, 0, 6, 13), (-1, 3, 4, 7), (-1, 1, 8, 10), (-1, 2, 9, 11), (-1, 5, 12, 14)),
    ((-1, 0, 11, 12), (-1, 1, 3, 9), (-1, 4, 5, 8), (-1, 6, 7, 10), (-1, 2, 13, 14)),
    ((-1, 0, 7, 9), (-1, 1, 2, 5), (-1, 4, 11, 13), (-1, 6, 8, 14), (-1, 3, 10, 12)),
)
# (row, column) positions in _ROW_BASES of the TD-generating base blocks,
# one line per row of the TD(3,4,4) 2-resolution (a resolvable TD(2,4,4))
_TD_ROWS = (
    ((0, 1), (0, 2), (0, 3), (0, 4)),
    ((1, 3), (3, 3), (1, 4), (6, 3)),
    ((2, 3), (2, 4), (5, 4), (6, 4)),
    ((3, 4), (4, 3), (4, 4), (5, 3)),
)
# renaming of GF(16) onto Z4 x Z4: row a lists the elements named a_0..a_3
_RENAMING = (
    (-1, 0, 1, 4),
    (2, 8, 5, 10),
    (3, 14, 9, 7),
    (6, 13, 11, 12),
)


def _elem(code: int) -> int:
    return 0 if code == -1 else gf16.alpha_power(code)


def _orbit(block: frozenset[int]) -> list[frozenset[int]]:
    """Distinct translates of a block under the additive group."""
    out = []
    for t in range(16):
        img = frozenset(gf16.add(e, t) for e in block)
        if img not in out:
            out.append(img)
    return out


@dataclass(frozen=True)
class Sqs16Template:
    """The Boolean SQS(16) in Z4 x Z4 coordinates (point 4a+i is a_i).

    ``row_classes[r]`` holds row r as 5 orbit parallel classes; rows 1..6
    in table order provide the derived class indices 0..5 used by the
    quadrupling construction, row 0 (the group-carrying row) is index 6.
    ``td_derived[p][j]`` are the 4 derived triples of TD row j at point p;
    ``e_derived[p][j]`` the 5 derived triples of template row (j+1 mod 7)
    at p, with ``e_derived[p][6]`` containing ``degenerate[p]``, the column
    triple through p.
    """

    blocks: tuple[Block, ...]
    row_classes: tuple[tuple[tuple[Block, ...], ...], ...]
    group_blocks: tuple[Block, ...]
    td_blocks: tuple[Block, ...]
    td_row_classes: tuple[tuple[tuple[Block, ...], ...], ...]
    two_column_blocks: tuple[Block, ...]
    td_derived: tuple[tuple[tuple[Block, ...], ...], ...]
    e_derived: tuple[tuple[tuple[Block, ...], ...], ...]
    degenerate: tuple[Block, ...]


def _z_renaming() -> dict[int, int]:
    """GF(16) element -> Z4 x Z4 point 4a+i, as listed in _RENAMING."""
    rename = {
        _elem(code): 4 * a + i
        for a, row in enumerate(_RENAMING)
        for i, code in enumerate(row)
    }
    if len(rename) != 16:
        raise ConstructionError("renaming is not a bijection")
    return rename


def _orbit_classes(bases, rename: dict[int, int]) -> tuple[tuple[Block, ...], ...]:
    """One sorted parallel class per base block: its renamed orbit."""
    return tuple(
        tuple(
            sorted(
                tuple(sorted(rename[e] for e in blk))
                for blk in _orbit(frozenset(_elem(c) for c in base))
            )
        )
        for base in bases
    )


def _punctured(rows, p: int) -> tuple[tuple[Block, ...], ...]:
    """Per row of classes: the sorted triples its blocks through p leave."""
    return tuple(
        tuple(
            sorted(
                tuple(q for q in blk if q != p) for cls in row for blk in cls if p in blk
            )
        )
        for row in rows
    )


@lru_cache(maxsize=None)
def template() -> Sqs16Template:
    rename = _z_renaming()
    row_classes = tuple(_orbit_classes(row, rename) for row in _ROW_BASES)
    td_row_classes = tuple(tuple(row_classes[r][c] for r, c in row) for row in _TD_ROWS)
    td_positions = {pos for row in _TD_ROWS for pos in row}

    td_blocks: list[Block] = []
    two_column: list[Block] = []
    for r, row in enumerate(row_classes):
        for c, cls in enumerate(row):
            if (r, c) in td_positions:
                td_blocks.extend(cls)
            elif (r, c) != (0, 0):
                two_column.extend(cls)

    # rows 1..6 take derived class indices 0..5, the group-carrying row 0 is 6
    e_rows = row_classes[1:] + row_classes[:1]
    return Sqs16Template(
        blocks=tuple(sorted(b for row in row_classes for cls in row for b in cls)),
        row_classes=row_classes,
        group_blocks=row_classes[0][0],
        td_blocks=tuple(sorted(td_blocks)),
        td_row_classes=td_row_classes,
        two_column_blocks=tuple(sorted(two_column)),
        td_derived=tuple(_punctured(td_row_classes, p) for p in range(16)),
        e_derived=tuple(_punctured(e_rows, p) for p in range(16)),
        degenerate=tuple(
            tuple(q for q in range(4 * (p // 4), 4 * (p // 4) + 4) if q != p)
            for p in range(16)
        ),
    )


@lru_cache(maxsize=None)
def verify_template() -> VerifyReport:
    """Re-prove every structural claim the construction relies on."""
    rep = VerifyReport()
    tpl = template()

    rename = _z_renaming()
    zero_sum_z = sorted(
        tuple(sorted(rename[e] for e in b)) for b in boolean_sqs16().blocks
    )
    if list(tpl.blocks) != zero_sum_z:
        rep.flag("developed blocks differ from the zero-sum quadruples", None)
    if len(tpl.blocks) != 140:
        rep.flag("block count", len(tpl.blocks))

    labels = tuple(Label.pair(a, i) for a in range(4) for i in range(4))
    columns = tuple(tuple(range(4 * a, 4 * a + 4)) for a in range(4))
    if tuple(sorted(tpl.group_blocks)) != columns:
        rep.flag("group orbit is not the four columns", tpl.group_blocks)

    def resolves(what: str, frame, classes) -> None:
        ground, target = frame
        sub = verify_resolution(Resolution(tuple(ground), tuple(classes), tuple(target)))
        if not sub.passed:
            rep.flag(f"{what} are not a resolution", sub.violations[:1])

    for r, row in enumerate(tpl.row_classes):
        sub = verify_steiner(make_design(2, {4}, labels, itertools.chain(*row), kind="RAW"))
        if not sub.passed:
            rep.flag(f"row {r} is not an S(2,4,16)", sub.violations[:1])
    # every orbit is a parallel class (so each row is resolved by its own
    # orbits), and the 35 of them use up the 140 blocks
    resolves("row orbits", (range(16), tpl.blocks), (c for row in tpl.row_classes for c in row))

    td = Gdd(design=make_design(3, {4}, labels, tpl.td_blocks, kind="TD"), groups=columns)
    sub = verify_gdd(td)
    if not sub.passed:
        rep.flag("distinguished orbits are not a TD(3,4,4)", sub.violations[:1])
    for r, row in enumerate(tpl.td_row_classes):
        flat = make_design(2, {4}, labels, itertools.chain(*row), kind="TD")
        sub = verify_gdd(Gdd(design=flat, groups=columns))
        if not sub.passed:
            rep.flag(f"TD row {r} is not a TD(2,4,4)", sub.violations[:1])
    resolves("TD row orbits", (range(16), tpl.td_blocks),
             (c for row in tpl.td_row_classes for c in row))

    if list(tpl.two_column_blocks) != sorted(two_column_blocks(range(4))):
        rep.flag("remainder orbits differ from the two-column blocks", None)

    sqs = make_design(3, {4}, labels, tpl.blocks, kind="SQS")
    for p in range(16):
        # the derived classes at p resolve the derived SQS(16) and TD(3,4,4)
        resolves(f"derived classes at {p}", derived_frame(sqs, p), tpl.e_derived[p])
        resolves(f"derived TD classes at {p}", derived_frame(td, p), tpl.td_derived[p])
        if tpl.degenerate[p] not in tpl.e_derived[p][6]:
            rep.flag("column triple missing from derived class 6", p)
    return rep


# ---------------------------------------------------------------------------
# public pieces


def boolean_sqs16() -> Design:
    """The Boolean SQS(16): all zero-sum quadruples of GF(16)."""
    labels = tuple(Label.f16(b) for b in range(16))
    quads = itertools.combinations(range(16), 4)
    blocks = [b for b in quads if b[0] ^ b[1] ^ b[2] ^ b[3] == 0]
    return make_design(3, {4}, labels, blocks, kind="SQS")


def rdtd_blocks(block: Block) -> list[Block]:
    """The TD(3,4,4) copy on block x Z4, groups in sorted block order.

    Points of the ambient 4v-point design are numbered 4*x+i for x a point
    id of the input design and i in Z4.
    """
    if len(block) != 4:
        raise ParameterError("TD copies exist only over 4-point blocks")
    return list(lift(template().td_blocks, sorted(block), 4))


def two_column_blocks(points: Iterable[int]) -> list[Block]:
    """Blocks {(x,a),(x,b),(y,c),(y,d)} with both edges in one factor, each
    ascending as it is built (x < y, and each edge of a factor ascends)."""
    return [(4 * x + a, 4 * x + b, 4 * y + c, 4 * y + d)
            for x, y in itertools.combinations(sorted(points), 2)
            for factor in FACTORIZATION for a, b in factor for c, d in factor]


def assemble_design(cert: StarCertificate) -> Design:
    """The SQS(4v): TD copies over blocks + two-column blocks + columns."""
    d = cert.design
    labels = tuple(Label.pair(m, j) for m in range(d.v) for j in range(4))
    blocks = [q for b in d.blocks for q in rdtd_blocks(b)] + two_column_blocks(range(d.v))
    blocks += (tuple(range(4 * x, 4 * x + 4)) for x in range(d.v))
    return make_design(3, {4}, labels, blocks, kind="SQS")


# ---------------------------------------------------------------------------
# the assembly


def occurrence_map(pc: StarPointCertificate) -> dict[tuple[int, int, Block], int]:
    """First/second occurrence of each non-special triple, in (group, class)
    lexicographic order over the certificate's class list."""
    seen: Counter[Block] = Counter()
    occ: dict[tuple[int, int, Block], int] = {}
    for k, grp in enumerate(pc.groups):
        for l, cls in enumerate(grp.classes):
            for tri in cls:
                if tri == grp.common:
                    continue
                n = seen[tri]
                if n > 1:
                    raise ConstructionError(
                        f"triple {tri} occurs more than twice outside the special class"
                    )
                occ[(k, l, tri)] = n
                seen[tri] = n + 1
    return occ


class QuadrupleAssembly:
    """An SQS(4v) and the assembly of one resolution per point.

    ``point_classes`` only assembles; the owner route on the ``owner`` table,
    run where they are used, is their proof.  The four fibres (x, 0..3) of
    a star point x share one plan, worked out from x's certificate when a
    point of x is first asked for; only the current x's plan is held.
    Construction is deterministic: given the same certificate, every block
    list, class list, and report is identical between runs.
    """

    def __init__(self, cert: StarCertificate):
        self.cert = cert
        self.design = assemble_design(cert)
        tpl = template()
        # per template point, the getters of its derived TD rows, and of its
        # derived classes 0..5 and 6 less the column triple
        self._td = tuple(tuple(map(_getters, rows)) for rows in tpl.td_derived)
        self._e = tuple(
            tuple(map(_getters, rows[:6])) + (_getters(tuple(b for b in rows[6] if b != col)),)
            for rows, col in zip(tpl.e_derived, tpl.degenerate)
        )
        self._plan_x = -1
        self._plan: tuple = ()
        self.owner = None  # the design's ``owner_table``, set by ``checked_assembly``

    def _plan_for(self, x: int) -> tuple:
        """The plan the four fibres of star point x share, worked out once
        per x: for fibre i, the steps of each class of the derived
        resolution at (x, i), in class order, the last class without the
        column triple.  A step is a ``core.lift_map`` of an SQS(v) block
        through x and the ``_getters`` of the local blocks it lifts, at
        template point 4 * (x's position in that block) + i.

        Certificate class l of the group on common triple c gives classes
        2l and 2l+1.  Each of its triples other than c makes a block with x
        and feeds TD rows 2o and 2o+1 there (o its occurrence); the block
        c + x feeds derived template classes 2l and 2l+1, and class 6, less
        the column triple, to the last class."""
        if x != self._plan_x:
            pc = self.cert.per_point[x]
            occ = occurrence_map(pc)
            fibres = [([], []) for _ in range(4)]

            def step(tri):  # the map of the block tri + x, and x's template point there
                bb = sorted(tri + (x,))
                return lift_map(bb, 4), 4 * bb.index(x)

            for k, grp in enumerate(pc.groups):
                m4, z4 = step(grp.common)
                # per class: (map, template point, row 2o) of each triple but c
                lifts = [[(*step(tri), 2 * occ[(k, l, tri)]) for tri in cls if tri != grp.common]
                         for l, cls in enumerate(grp.classes)]
                for i, (classes, last) in enumerate(fibres):
                    e = self._e[z4 + i]
                    for l, steps in enumerate(lifts):
                        for r in (0, 1):
                            cls = [(m, self._td[zp + i][o + r]) for m, zp, o in steps]
                            cls.append((m4, e[2 * l + r]))
                            classes.append(tuple(cls))
                    last.append((m4, e[6]))
            self._plan_x = x
            self._plan = tuple((tuple(c), tuple(f)) for c, f in fibres)
        return self._plan

    def point_classes(self, p: int) -> tuple[tuple[Block, ...], ...]:
        """The 2v-1 classes of the derived design at point p, unproved: the
        getters of each step of the plan of p's fibre applied to its map."""
        x, i = divmod(p, 4)
        by_class, last_steps = self._plan_for(x)[i]
        classes = [tuple(sorted([f(m) for m, fs in steps for f in fs])) for steps in by_class]
        last = [f(m) for m, fs in last_steps for f in fs]
        last.append(tuple(q for q in range(4 * x, 4 * x + 4) if q != p))
        last.sort()
        classes.append(tuple(last))
        return tuple(classes)

    def point_resolution(self, p: int) -> Resolution:
        """``point_classes`` at p against the derived frame at p."""
        ground, target = derived_frame(self.design, p)
        return Resolution(ground=ground, classes=self.point_classes(p), target=target)


def checked_assembly(cert: StarCertificate) -> QuadrupleAssembly:
    """The SQS(4v), assembled once the template and the certificate are
    proven, and proven an SQS by its ``owner`` table (else ``verify_steiner`` names why)."""
    verify_template().require("SQS(16) template")
    cert.report.require("star certificate")
    asm = QuadrupleAssembly(cert)
    asm.owner = owner_table(asm.design)
    if asm.owner is None:
        verify_steiner(asm.design).require(f"SQS({asm.design.v})")
    return asm


def construct_rdsqs_4v(cert: StarCertificate) -> QuadrupleAssembly:
    """``checked_assembly`` plus all 4v derived resolutions proved by the
    owner route (``class_ids``, ``section_ranks``, ``owns``); fails loudly."""
    asm = checked_assembly(cert)
    v = asm.design.v
    for p in range(v):
        if not owns(asm.owner, p, section_ranks(v, p, class_ids(v, asm.point_classes(p)))):
            raise DataIntegrityError(f"derived resolution at {asm.design.labels[p].text} failed")
    return asm
