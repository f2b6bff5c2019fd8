#!/usr/bin/env python3
"""The star certificate: per-point class systems on the 28-point system.

At every point x the certificate fixes a distinguished parallel class of
derived triples, then partitions the multiset M (distinguished triples
three times, all other derived triples twice) into 27 parallel classes
grouped in threes, each group sharing its distinguished triple.  The
certificate of every point ships as data, and nothing is trusted because
it was checked in: the certificate is proved once, by verify_star, before
the catalog hands it out.
"""

from collections import Counter

from quadsys import catalog, derived_frame, verify_star, verify_star_point
from quadsys.star import star_multiset

d = catalog.sqs28()
print("28-point system:", len(d.blocks), "blocks from 117 base blocks x 7 shifts")

cert = catalog.sqs28_star()
print("certificate points:", len(cert.per_point), "(every point of the shipped file)")

x = d.point("0_0")
pc = cert.per_point[x]
target = derived_frame(d, x)[1]
m = star_multiset(target, pc.special)
print(f"\nat point 0_0: {len(target)} derived triples, |M| = {len(m)}",
      "= 27 classes x 9 triples")
print("distinguished class:",
      " ".join("{" + ",".join(d.labels[p].text for p in b) + "}" for b in pc.special[:3]),
      "...")

counts = Counter()
for grp in pc.groups:
    for cls in grp.classes:
        counts.update(cls)
dist = Counter(counts.values())
print("triple multiplicities over the 27 classes:", dict(dist),
      "(3 = distinguished, 2 = the rest)")

rep = verify_star(cert)
print("\nfull certificate verification:", "PASS" if rep.passed else rep.violations[:3])
print("per-point check at 3_2:",
      verify_star_point(d, cert.per_point[d.point("3_2")]).passed)
