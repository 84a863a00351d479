"""Counting points of the rotated lattice in rectangles.

The lattice sends an integer pair (n, m) to (n - m*alpha, m + n*alpha)
where alpha = (sqrt(5) - 1) / 2, optionally rescaled by a factor beta in
the first coordinate.  Because alpha is the "most irrational" number, the
points spread remarkably evenly: every rectangle of area 2 + alpha holds
at least one point, and no rectangle of area 1 / (3 + 2*alpha) holds two.

This script walks through the counting API and checks both thresholds
empirically on random rectangles.
"""

import numpy as np

from goldwave import (
    ALPHA_FLOAT,
    LatticeSpec,
    Rect,
    audit_max_count,
    audit_min_count,
    count_in_rect,
    enumerate_in_rect,
)
from goldwave.lattice import lattice_coords

spec = LatticeSpec(beta=1)

print("A small window around the origin:")
idx = enumerate_in_rect(spec, Rect(-2.0, 2.0, -2.0, 2.0))
for (n, m), x, s in zip(idx.tolist(), *lattice_coords(*idx.T)):
    print(f"  (n, m) = ({n:3d}, {m:3d})  ->  (x, s) = ({x:+.6f}, {s:+.6f})")

print()
print("Counts grow with area at rate area / det, det = 2 - alpha:")
for half in (5.0, 20.0, 80.0):
    rect = Rect(-half, half, -half, half)
    n = count_in_rect(spec, rect)
    print(f"  [{-half:6.1f}, {half:6.1f})^2  ->  {n:6d} points "
          f"(density x area = {rect.area / (2 - ALPHA_FLOAT):8.1f})")

print()
print("Randomized audits of the two critical areas:")
rng_trials = 20_000
low = audit_min_count(2.0 + ALPHA_FLOAT, rng_trials, seed=1)
print(f"  area 2 + alpha      : min count over {rng_trials} rects = "
      f"{low.min_count} (must stay >= 1)")
high = audit_max_count(1.0 / (3.0 + 2.0 * ALPHA_FLOAT), rng_trials, seed=1)
print(f"  area 1 / (3+2alpha) : max count over {rng_trials} rects = "
      f"{high.max_count} (must stay <= 1)")

print()
print("Shrink the large area by 10% and the guarantee breaks; the audit")
print("finds an empty rectangle and reports it as a witness:")
broken = audit_min_count(0.9 * (2.0 + ALPHA_FLOAT), rng_trials, seed=1)
print(f"  min count = {broken.min_count}, witness rect = "
      f"{np.round(broken.witness_min.edges(), 4).tolist()}")
