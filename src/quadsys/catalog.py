"""Generators for the concrete designs shipped with the package.

Small quadruple systems are developed from base blocks under a cyclic
label action by ``develop``, which always builds an SQS: t = 3, K = {4}
(short orbits detected by iteration, duplicates across orbits are a hard
error).  The two group divisible designs are built by expanding every
block of a quadruple-system master into a transversal design on
block x Z3, where the transversal design is cut out by a signed congruence
on the second coordinates; ``audit_rules`` gives each master block its
table row, or the default congruence on its points.  Each congruence's
TD(3,4,3) is built and proved once on local points, and ``core.lift``
moves it onto every block it fills, as the quadrupling moves its template
onto block x Z4.  Large tabular data (derived-design resolutions, the
28-point base blocks and star certificate) ships as text files under data/,
one section for every point, and is re-verified by the callers; nothing is
trusted because it was checked in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import formats, quadruple
from .core import (
    Block,
    ConstructionError,
    Design,
    DuplicateBlockError,
    Gdd,
    Label,
    ParameterError,
    Resolution,
    Shift,
    TableError,
    lift,
    make_design,
    mover,
    plain_labels,
    verify_gdd,
    verify_resolution,
)
from .star import StarCertificate


# ---------------------------------------------------------------------------
# orbit development


def develop(
    labels: Sequence[Label], bases: Sequence[tuple[Label, ...]], action: Shift
) -> Design:
    """The SQS on ``labels`` whose blocks are the orbits of ``bases`` under
    ``action``, each block appearing exactly once."""
    index = {lab: i for i, lab in enumerate(labels)}
    move = mover(labels, action)
    seen: dict[Block, tuple[Label, ...]] = {}
    blocks: list[Block] = []
    for base in bases:
        start = tuple(sorted(index[lab] for lab in base))
        b = start
        while True:
            if b in seen:
                raise DuplicateBlockError(
                    f"block {b} generated by both {seen[b]} and {base}"
                )
            seen[b] = base
            blocks.append(b)
            b = move(b)
            if b == start:
                break
    return make_design(3, {4}, labels, blocks, kind="SQS")


# ---------------------------------------------------------------------------
# congruence-rule transversal designs and the filling construction


@dataclass(frozen=True)
class CongruenceRule:
    """Blocks {(a0,x),(a1,y),(a2,z),(a3,u)} with c0*x+c1*y+c2*z+c3*u = m(x).

    The tuple order is the table's, not sorted: the congruence is
    order-sensitive.  ``rhs`` maps the first coordinate x to m; constant
    right-hand sides are stored as constant maps.
    """

    points: tuple[Label, ...]
    coeffs: tuple[int, int, int, int]
    rhs: tuple[int, int, int]


def expand_label(lab: Label, j: int) -> Label:
    """The copy of a master point in fibre j (plain a -> a_j, inf -> inf_j)."""
    if lab.kind == "plain":
        return Label.pair(lab.a, j)
    if lab.kind == "inf":
        return Label.inf(j)
    raise ParameterError(f"cannot expand label kind {lab.kind!r}")


def _fibres(v: int) -> tuple[tuple[int, ...], ...]:
    """The groups {x} x Z3 of points 3x+j."""
    return tuple((3 * x, 3 * x + 1, 3 * x + 2) for x in range(v))


@lru_cache(maxsize=None)
def congruence_td(coeffs: tuple[int, ...], rhs: tuple[int, ...]) -> tuple[Block, ...]:
    """The 27-block TD(3,4,3) a congruence cuts out, proved once.

    Local point 3k+j is the rule's k-th point in fibre j; ``lift`` moves the
    blocks onto any block x Z3.
    """
    if any(c not in (1, -1) for c in coeffs):
        raise ParameterError("congruence coefficients must be +1 or -1")
    c0, c1, c2, c3 = coeffs
    blocks = [
        # c3 = +-1 is its own inverse mod 3
        (x, 3 + y, 6 + z, 9 + c3 * (rhs[x] - c0 * x - c1 * y - c2 * z) % 3)
        for x, y, z in itertools.product(range(3), repeat=3)
    ]
    labels = [Label.pair(k, j) for k in range(4) for j in range(3)]
    td = Gdd(design=make_design(3, {4}, labels, blocks, kind="TD"), groups=_fibres(4))
    report = verify_gdd(td)
    if not report.passed:  # a TD iff x -> rhs[x] - c0*x is onto Z3
        raise ConstructionError(f"congruence rule is not a TD: {report.violations[:2]}")
    return td.blocks


def audit_rules(
    d: Design, table: tuple[CongruenceRule, ...], default: CongruenceRule | None
) -> dict[Block, CongruenceRule]:
    """The rule of every block: its table row (set equality) or else
    ``default`` on its points; any inconsistency is an error."""
    blocks = {frozenset(d.labels[p] for p in b): b for b in d.blocks}
    if len(blocks) != len(d.blocks):
        raise TableError("design has repeated blocks")
    rows: dict[Block, CongruenceRule] = {}
    for ri, rule in enumerate(table):
        b = blocks.get(frozenset(rule.points))
        if b is None:
            raise TableError(f"row {ri} ({[l.text for l in rule.points]}) is not a block")
        if b in rows:
            raise TableError(f"row {ri} duplicates an earlier row")
        rows[b] = rule
    rules = {}
    for b in d.blocks:
        rule = rows.get(b)
        if rule is None:
            if default is None:
                raise TableError(f"block {b} matches no row")
            rule = CongruenceRule(tuple(d.labels[p] for p in b), default.coeffs, default.rhs)
        rules[b] = rule
    return rules


def fill_gdd(master: Design, rules: dict[Block, CongruenceRule]) -> Gdd:
    """Replace every master block by its rule's TD(3,4,3) on block x Z3.

    Point 3x+j is master point x in fibre j.  The result is a GDD(t, 4, 3v)
    of type 3^v with groups {x} x Z3; its defining property is certified
    separately by verify_gdd.  A right-hand side is reduced mod 3 first, so
    equal congruences share one cached, proved TD.
    """
    labels = [expand_label(lab, j) for lab in master.labels for j in range(3)]
    index = master.label_index
    blocks: list[Block] = []
    for b in master.blocks:
        rule = rules[b]
        td = congruence_td(rule.coeffs, tuple(m % 3 for m in rule.rhs))
        blocks.extend(lift(td, [index[p.text] for p in rule.points], 3))
    design = make_design(master.t, {4}, labels, blocks, kind="GDD")
    return Gdd(design=design, groups=_fibres(master.v))


# ---------------------------------------------------------------------------
# the shipped designs


_INF = Label.inf(0)


@lru_cache(maxsize=None)
def sqs8() -> Design:
    labels = plain_labels(range(7)) + (_INF,)
    bases = ((_INF, *plain_labels((0, 1, 3))), plain_labels((0, 1, 2, 5)))
    return develop(labels, bases, Shift(1, 7))


_SQS14_BASES = (
    (0, 1, 2, 3), (0, 3, 5, 9), (0, 5, 6, 13), (0, 3, 4, 13), (1, 7, 11, 13),
    (0, 2, 7, 9), (0, 1, 6, 7), (0, 3, 7, 10), (0, 3, 6, 11), (0, 2, 11, 13),
    (0, 2, 4, 8), (0, 1, 4, 5), (1, 6, 10, 12),
)


@lru_cache(maxsize=None)
def sqs14() -> Design:
    bases = tuple(map(plain_labels, _SQS14_BASES))
    return develop(plain_labels(range(14)), bases, Shift(2, 14))


_SQS22_BASES = (
    (0, 1, 5, None), (0, 1, 2, 4), (0, 2, 5, 13), (0, 1, 9, 18), (0, 1, 11, 16),
    (0, 3, 9, None), (0, 2, 7, 9), (0, 3, 7, 16), (0, 1, 6, 10), (0, 2, 15, 18),
    (0, 2, 10, None), (0, 1, 7, 12), (0, 1, 13, 17), (0, 2, 6, 12), (0, 3, 10, 14),
    (0, 7, 14, None), (0, 1, 8, 14), (0, 1, 15, 19), (0, 2, 8, 11),
)


@lru_cache(maxsize=None)
def sqs22() -> Design:
    labels = plain_labels(range(21)) + (_INF,)
    bases = tuple(
        tuple(_INF if n is None else Label.plain(n) for n in b) for b in _SQS22_BASES
    )
    return develop(labels, bases, Shift(1, 21))


@lru_cache(maxsize=None)
def sqs16() -> Design:
    return quadruple.boolean_sqs16()


@lru_cache(maxsize=None)
def sqs28() -> Design:
    """Developed from the shipped 117 base blocks under +1 mod 7 on a_i."""
    raw = formats.parse_design(formats.read_data("sqs28_base.blocks"))
    bases = tuple(tuple(raw.labels[p] for p in b) for b in raw.blocks)
    return develop(raw.labels, bases, Shift(1, 7))


# ---------------------------------------------------------------------------
# congruence tables


def _rule(points, coeffs, rhs) -> CongruenceRule:
    rhs = (rhs, rhs, rhs) if isinstance(rhs, int) else tuple(rhs)
    return CongruenceRule(points=tuple(points), coeffs=tuple(coeffs), rhs=rhs)


@lru_cache(maxsize=None)
def rule_table_24() -> tuple[CongruenceRule, ...]:
    def shift(ds, i):
        return plain_labels((d + i) % 7 for d in ds)

    return (
        *(_rule((_INF, *shift((0, 1, 3), i)), (1, 1, 1, 1), (0, 2, 1)) for i in (0, 1)),
        *(_rule((_INF, *shift((0, 1, 3), i)), (1, 1, 1, 1), 0) for i in (2, 3, 4, 5, 6)),
        *(_rule(shift((0, 1, 2, 5), i), (1, 1, -1, -1), 0) for i in (0, 2, 6)),
        *(_rule(shift((0, 1, 2, 5), i), (1, 1, 1, 1), 0) for i in (1, 3)),
        _rule(plain_labels((4, 5, 6, 2)), (1, 1, -1, 1), (0, 2, 1)),
        _rule(plain_labels((5, 6, 0, 3)), (1, 1, -1, 1), 0),
    )


_TABLE_42_SUM_102 = ((4, 6, 8, 12), (2, 5, 7, 11), (8, 11, 12, 7))
_TABLE_42_SUM_210 = ((0, 2, 7, 9), (10, 12, 3, 5))
_TABLE_42_DIFF_1 = (
    (8, 9, 12, 13), (4, 6, 11, 13), (11, 3, 7, 9),
    (4, 5, 11, 10), (6, 8, 5, 3), (10, 13, 9, 0),
    (12, 3, 7, 1), (9, 4, 6, 0), (12, 4, 9, 1),
)
_TABLE_42_DIFF_2 = (
    (13, 4, 10, 8), (12, 5, 8, 1), (12, 2, 11, 1),
    (12, 9, 11, 0), (6, 12, 5, 11), (12, 13, 3, 2),
    (4, 7, 9, 13), (6, 9, 5, 10),
)


@lru_cache(maxsize=None)
def rule_table_42() -> tuple[CongruenceRule, ...]:
    return (
        *(_rule(plain_labels(tup), (1, 1, 1, 1), (1, 0, 2)) for tup in _TABLE_42_SUM_102),
        *(_rule(plain_labels(tup), (1, 1, 1, 1), (2, 1, 0)) for tup in _TABLE_42_SUM_210),
        *(_rule(plain_labels(tup), (1, 1, 1, -1), 1) for tup in _TABLE_42_DIFF_1),
        *(_rule(plain_labels(tup), (1, 1, 1, -1), 2) for tup in _TABLE_42_DIFF_2),
    )


_DEFAULT_SUM0 = CongruenceRule(points=(), coeffs=(1, 1, 1, 1), rhs=(0, 0, 0))


@lru_cache(maxsize=None)
def rdgdd24() -> Gdd:
    master = sqs8()
    rules = audit_rules(master, rule_table_24(), default=None)
    return fill_gdd(master, rules)


@lru_cache(maxsize=None)
def rdgdd42() -> Gdd:
    master = sqs14()
    rules = audit_rules(master, rule_table_42(), default=_DEFAULT_SUM0)
    return fill_gdd(master, rules)


# ---------------------------------------------------------------------------
# shipped resolutions and certificates


def _verified(res: dict[str, Resolution]) -> dict[str, Resolution]:
    """Ingested resolution data is never trusted, only re-proven."""
    for point, r in res.items():
        verify_resolution(r).require(f"shipped resolution at {point}")
    return res


def _framed(name: str) -> dict[str, Resolution]:
    """The shipped ``<name>_derived.res``, each section framed at its point."""
    design = GENERATORS[name]()
    raw = formats.parse_resolution(formats.read_data(f"{name}_derived.res"), design)
    return {
        point: formats.resolution_for_point(design, point, classes)
        for point, classes in raw.items()
    }


@lru_cache(maxsize=None)
def rdgdd24_resolutions() -> dict[str, Resolution]:
    return _verified(_framed("rdgdd24"))


@lru_cache(maxsize=None)
def rdgdd42_resolutions() -> dict[str, Resolution]:
    return _verified(_framed("rdgdd42"))


@lru_cache(maxsize=None)
def sqs22_resolutions() -> dict[str, Resolution]:
    return _verified(_framed("sqs22"))


@lru_cache(maxsize=None)
def sqs28_star() -> StarCertificate:
    """The shipped 28-point star certificate, proven."""
    d = sqs28()
    points = formats.parse_star(formats.read_data("sqs28_star.star"), d)
    cert = StarCertificate(d, {c.point: c for c in points.values()})
    cert.report.require("star certificate")
    return cert


GENERATORS = {
    "sqs8": sqs8,
    "sqs14": sqs14,
    "sqs16": sqs16,
    "sqs22": sqs22,
    "sqs28": sqs28,
    "rdgdd24": rdgdd24,
    "rdgdd42": rdgdd42,
}

# the designs that ship with a resolution at every point, and its loader
RESOLUTIONS = {
    "sqs22": sqs22_resolutions,
    "rdgdd24": rdgdd24_resolutions,
    "rdgdd42": rdgdd42_resolutions,
}
