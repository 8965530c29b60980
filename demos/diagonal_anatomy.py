"""Look inside the construction: diagonals, corners, partial weights.

The edge set of C_n x C_m splits into gcd(n,m) "diagonal" cycles that
alternate horizontal and vertical edges.  The constructions hand each
diagonal a block of labels so that the two-label corners take only five
values, and consecutive diagonals pair up to the magic constant at every
vertex.
"""

from collections import Counter

from torusmagic import (
    EdgeRef,
    construct,
    decompose,
    diagonal_of_edge,
    dims,
    expected_corner_table,
    plan_for,
)

d = dims(3, 9)
print(f"C_3 x C_9: gcd = {d.d} diagonals, each of length 2*lcm = {2 * d.l}")

plan = plan_for(d)
print(f"construction start columns: {plan.start_cols} "
      "(diagonal 1 starts at column d+1 so the last seam closes)\n")

lab = construct(3, 9)
for diag in decompose(d, list(plan.start_cols)):
    rows, h_cols, v_cols = diag.indices()  # h_k at (rows, h_cols), v_k at (rows, v_cols)
    h = lab.h[rows, h_cols].tolist()
    v = lab.v[rows, v_cols].tolist()
    print(f"D{diag.index} h-labels: {h}")
    print(f"   v-labels: {v}")

table = expected_corner_table(d)
print("\npartial weight distribution over all corners:")
for value, count in sorted(Counter(table.entries.values()).items()):
    name = {d.q: "2nm", d.q + 1: "2nm+1", d.q + 2: "2nm+2",
            d.q + d.l: "2nm+l (exceptional HV)",
            d.q - d.l + 2: "2nm-l+2 (exceptional VH)"}[value]
    print(f"  {value:3d} = {name}: {count} corners")

e = EdgeRef("H", 1, 1)
j, k, orient = diagonal_of_edge(e, d)
print(f"\nevery edge knows its place: {e} is step {k} ({orient}) of diagonal {j}")
