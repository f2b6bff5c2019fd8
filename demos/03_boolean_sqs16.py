#!/usr/bin/env python3
"""The Boolean SQS(16) and the structure the quadrupling engine lives on.

Points are GF(16); blocks are the quadruples summing to zero.  Each block
is a coset of a 2-dimensional subspace, so its four translates partition
the field, and the 35 orbits arrange into 7 rows of 5 with each row a
resolvable S(2,4,16).  One orbit is a parallel class of "groups"; 16
distinguished orbits form a TD(3,4,4) on those groups that 2-resolves
into four TD(2,4,4) rows; the 18 remaining orbits are exactly the blocks
with two points in one group and two in another, cut out by a
one-factorization of Z4.
"""

from quadsys import boolean_sqs16, gf16, verify_steiner
from quadsys.quadruple import template, two_column_blocks, verify_template

d = boolean_sqs16()
print("zero-sum quadruples:", len(d.blocks), "...",
      "exact cover:", verify_steiner(d).passed)
print("labels use the field text form, e.g.",
      ", ".join(d.labels[b].text for b in (0, 1, 2, 9)))

a = gf16.ALPHA
print("\nalpha^4 = alpha + 1:", gf16.alpha_power(4) == gf16.add(a, 1),
      "| alpha^15 =", gf16.text(gf16.alpha_power(15)))

tpl = template()
rep = verify_template()
print("\ntemplate structure re-verified from scratch:", rep.passed)
print("  rows:", len(tpl.row_classes), "x",
      sum(len(c) for c in tpl.row_classes[0]), "blocks, each a resolvable S(2,4,16)")
print("  group parallel class:", tpl.group_blocks)
print("  TD(3,4,4):", len(tpl.td_blocks), "blocks in",
      len(tpl.td_row_classes), "resolvable TD(2,4,4) rows")
print("  two-column remainder:", len(tpl.two_column_blocks), "blocks ==",
      len(two_column_blocks(range(4))), "from the one-factorization")

p = 6  # the point 1_2 in column coordinates
print(f"\nderived classes at point {p}: 7 classes of 5 triples;")
print("  class 6 holds the column triple", tpl.degenerate[p])
