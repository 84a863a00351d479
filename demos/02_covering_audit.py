"""Covering the upper half-plane with equal-area phase-space cells.

Scales are sliced into geometric intervals I_l = [e^(delta*l), e^(delta*(l+1)))
and each slice is cut into x-intervals of width delta^2 / |I_l|, so every
cell V[k, l] has area exactly delta^2.  Rescaling the rotated golden
lattice by beta(delta) = delta / sqrt(2 + alpha) turns each cell into a
rectangle of the critical area 2 + alpha in lattice coordinates, which
pins the number of lattice points per cell into the window [1, 12].
"""

from goldwave import ALPHA_FLOAT, audit_cover, beta_for_delta, cell, cell_index

delta = 0.5
beta = beta_for_delta(delta)
print(f"delta = {delta}, beta(delta) = {beta:.6f}")
print(f"check: delta^2 / beta^2 = {delta**2 / beta**2:.6f} "
      f"(should equal 2 + alpha = {2 + ALPHA_FLOAT:.6f})")

print()
print("A few cells; areas are delta^2 regardless of aspect ratio:")
for k, l in ((0, 0), (3, -4), (-5, 4)):
    r = cell(delta, k, l)
    print(f"  (k, l) = ({k:2d}, {l:2d})  ->  x in [{r.a:9.3f}, {r.b:9.3f}), "
          f"s in [{r.c:7.3f}, {r.d:7.3f}), area = {r.area:.4f}")

x, s = 3.7, 0.22
k, l = cell_index((x, s), delta)
print(f"\nThe point (x, s) = ({x}, {s}) lives in cell (k, l) = ({k}, {l})")

print()
print("Audit of the count-per-cell window over a big block of cells:")
audit = audit_cover(delta, beta=beta, k_range=(-200, 200), l_range=(-20, 20))
print(f"  cells audited : {audit.cells_checked}")
print(f"  count range   : [{audit.min_count}, {audit.max_count}] "
      f"(guarantee: within [1, 12])")
print(f"  histogram     : {audit.histogram}")

print()
print("With a deliberately oversized beta the lattice is too sparse and")
print("empty cells appear; the audit reports them instead of hiding them:")
bad = audit_cover(delta, beta=10.0, k_range=(-20, 20), l_range=(-3, 3))
print(f"  empty cells: {bad.histogram.get(0, 0)} of {bad.cells_checked}, "
      f"first few: {bad.empty_cells[:5]}")
