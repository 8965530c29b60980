"""Find labelings the constructions cannot produce.

Mixed-parity shapes (and coprime odd ones) have no direct construction;
whether they are all supermagic is open.  The exact search settles small
instances: unit propagation forces the fourth label at any vertex with
three, and sum-range pruning cuts the rest.  Results are deterministic
for a fixed seed.
"""

import sys

from torusmagic import FOUND, SearchConfig, search, verify

print("ascending value order, no restarts:")
for n, m in [(3, 4), (3, 5)]:
    out = search(n, m)
    if out.status != FOUND:
        sys.exit(f"C_{n} x C_{m}: expected a labeling, search ended {out.status}")
    report = verify(out.labeling)
    print(f"  C_{n} x C_{m}: found in {out.stats.nodes} nodes "
          f"({out.stats.elapsed:.2f}s), constant {report.constant}")
    print(f"  prunes: {dict(sorted(out.stats.prunes.items()))}")

print("\n(3,6) is harder; seeded-random order with Luby restarts:")
# a seed means seeded-random value order with Luby restarts
cfg = SearchConfig(node_budget=20_000_000, time_budget=300.0, seed=1)
out = search(3, 6, cfg)
print(f"  status {out.status}: {out.stats.nodes} nodes, "
      f"{out.stats.restarts} restarts, {out.stats.elapsed:.1f}s")
if out.status == "found":
    print(f"  horizontal labels:\n{out.labeling.h}")
    print(f"  vertical labels:\n{out.labeling.v}")
