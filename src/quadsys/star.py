"""Star certificates: per-point resolution data for the quadrupling input.

A star certificate for an SQS(v) with v = 1 (mod 3) fixes, at every point
x, a distinguished parallel class P'_x of derived triples plus a partition
of the multiset M (each P'_x triple three times, every other derived
triple twice) into v-1 parallel classes, grouped in threes that share
their P'_x triple.  ``verify_star_point`` checks all of that exhaustively
against the derived block multiset, so a certificate that verifies is a
proof.  The v-1 classes are a resolution of M, so the partition and
multiset part of the check is ``core.verify_resolution``, the same check
every other resolution goes through; the group structure (commons, the
special class) is checked beside it.

Certificates are expressed in the ids of the ambient design; classes are
kept in certificate order because the quadrupling construction indexes
them by (group, class) position.  A star file lists every point: the
certificate is the file's point certificates as read, and a point the file
leaves out fails ``verify_star``.  A certificate keeps its ``verify_star``
report, so every caller that requires the proof shares one run of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    Block,
    Design,
    Resolution,
    VerifyReport,
    admissible,
    derived_frame,
    is_partition,
    verify_resolution,
    verify_steiner,
)


@dataclass(frozen=True)
class StarGroup:
    """Three parallel classes sharing one common triple."""

    common: Block
    classes: tuple[tuple[Block, ...], ...]


@dataclass(frozen=True)
class StarPointCertificate:
    point: int
    special: tuple[Block, ...]
    groups: tuple[StarGroup, ...]

    def all_classes(self) -> tuple[tuple[Block, ...], ...]:
        """The v-1 classes in (group, class) order."""
        return tuple(cls for grp in self.groups for cls in grp.classes)


@dataclass(frozen=True)
class StarCertificate:
    design: Design
    per_point: dict[int, StarPointCertificate]

    @cached_property
    def report(self) -> VerifyReport:
        """``verify_star`` of this certificate, run once (``per_point`` stays fixed)."""
        return verify_star(self)


def star_multiset(target: tuple[Block, ...], special: tuple[Block, ...]) -> tuple[Block, ...]:
    """M, sorted: each derived triple twice, each special triple once more."""
    return tuple(sorted(target + target + special))


def verify_star_point(d: Design, cert: StarPointCertificate) -> VerifyReport:
    rep = VerifyReport()
    ground, target = derived_frame(d, cert.point)
    n = (d.v - 1) // 3

    bad = is_partition(cert.special, ground)
    if bad is not None:
        rep.flag(f"special class: {bad[0]}", bad[1])
    derived = set(target)
    for b in cert.special:
        if b not in derived:
            rep.flag("special triple not a derived block", b)

    if len(cert.groups) != n:
        rep.flag("group count", len(cert.groups))
    if sorted(grp.common for grp in cert.groups) != sorted(cert.special):
        rep.flag("common triples do not equal the special class", None)
    for gi, grp in enumerate(cert.groups):
        for li, cls in enumerate(grp.classes):
            if grp.common not in cls:
                rep.flag(f"group {gi} class {li} misses its common triple", grp.common)

    # the v-1 classes, in (group, class) order, are a resolution of M
    sub = verify_resolution(
        Resolution(ground, cert.all_classes(), star_multiset(target, cert.special))
    )
    for kind, witness in sub.violations:
        rep.flag(kind, witness)
    rep.counts["classes"] = sub.counts["classes"]
    rep.counts["multiset"] = sub.counts["blocks"]
    return rep


def verify_star(cert: StarCertificate, steiner: VerifyReport | None = None) -> VerifyReport:
    """Full certificate check: SQS + admissibility + every point.

    ``steiner`` is a ``verify_steiner`` report of ``cert.design`` already in
    hand; without one the design is checked here.
    """
    rep = VerifyReport()
    d = cert.design
    if d.v % 3 != 1 or not admissible("SQS", d.v):
        rep.flag("order not admissible for a star certificate", d.v)
    if steiner is None:
        steiner = verify_steiner(d)
    if not steiner.passed:
        rep.flag("underlying design is not Steiner", steiner.violations[:1])
    missing = set(range(d.v)) - set(cert.per_point)
    for p in sorted(missing):
        rep.flag("point without certificate", d.labels[p].text)
    for p, pc in sorted(cert.per_point.items()):
        if not 0 <= p < d.v:
            rep.flag("certificate for a point outside the design", p)
            continue
        if pc.point != p:
            rep.flag("certificate filed under wrong point", p)
            continue
        sub = verify_star_point(d, pc)
        if not sub.passed:
            rep.flag(f"point {d.labels[p].text}", sub.violations[:2])
    rep.counts["points"] = len(cert.per_point)
    rep.counts["blocks"] = len(d.blocks)
    return rep
