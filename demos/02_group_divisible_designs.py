#!/usr/bin/env python3
"""Group divisible designs built by filling a quadruple system.

Every block A of a master SQS is replaced by a transversal design on
A x Z3 whose blocks {(a0,x),(a1,y),(a2,z),(a3,u)} satisfy a signed
congruence like x+y-z-u = 0 (mod 3).  ``congruence_td`` builds each
congruence's TD(3,4,3) on local points 3k+j (the rule's k-th point in
fibre j) and proves it once; ``fill_gdd`` lifts it onto every block that
uses it.  The per-block rules are chosen so that the derived design at
every point of the result is resolvable; those resolutions ship as data
files and are re-verified from scratch here.
"""

from quadsys import catalog, derived_design, verify_gdd, verify_resolution
from quadsys.catalog import congruence_td, rule_table_24

rule = rule_table_24()[0]
td = congruence_td(rule.coeffs, rule.rhs)
print("one congruence rule cuts out a TD(3,4,3), proved when built:",
      len(td), "blocks on", len({p for b in td for p in b}), "local points,",
      "first block", td[0])

for name, points in (("rdgdd24", 24), ("rdgdd42", 42)):
    g = catalog.GENERATORS[name]()
    rep = verify_gdd(g)
    print(f"\n{name}: {len(g.blocks)} blocks, "
          f"type {'3^%d' % len(g.groups)}, cross coverage={rep.passed}")

    sub = derived_design(g, g.labels[0].text)
    print(f"  derived at {g.labels[0].text}: "
          f"{len(sub.blocks)} triples on {sub.v} points, "
          f"verified={verify_gdd(sub).passed}")

    res = (catalog.rdgdd24_resolutions() if points == 24
           else catalog.rdgdd42_resolutions())
    bad = [pt for pt, r in res.items() if not verify_resolution(r).passed]
    shape = {(len(r.classes), len(r.classes[0])) for r in res.values()}
    print(f"  shipped derived resolutions at all {len(res)} points: "
          f"{'all verify' if not bad else bad}, class shape {shape}")
