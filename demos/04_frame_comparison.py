"""Empirical frame bounds: golden-lattice sampling versus dyadic sampling.

A sample set in the time-scale half-plane induces an analysis operator
f -> (<f, psi_(x,s)>) on a finite signal model.  If the induced frame
operator is well conditioned on a frequency band, the samples capture
every band-limited signal stably, and the ratio B/A of the frame bounds
measures how stably.  This script estimates bounds for golden-lattice
sample sets at several densities and compares each against a dyadic grid
matched to the same number of points.
"""

import numpy as np

from goldwave import (
    Rect,
    SignalModel,
    cauchy_wavelet,
    compare_schemes,
    dyadic_sample_set,
    estimate_bounds,
    golden_sample_set,
)
from goldwave.framelab import guard_band

w = cauchy_wavelet(6.0)
model = SignalModel.zeros(1024, 1024.0)
region = Rect(0.0, 1024.0, 0.1 / 2.0**6, 0.1)
band = guard_band(w, region, model)
print(f"model: {model.length} samples over {model.duration:.0f} time units")
print(f"sampling region: x in [0, {region.b:.0f}), s in [{region.c:.5f}, {region.d}]")
print(f"guarded frequency band: bins {band[0]}..{band[1]}")

print("\nGolden sets at three densities (delta is the covering parameter;")
print("smaller delta means a denser set):")
for delta in (1.0, 0.5, 0.25):
    sset = golden_sample_set(delta, region)
    est = estimate_bounds(sset, w, model, band)
    print(f"  delta = {delta:4.2f}: {len(sset):5d} points, "
          f"A = {est.lower:8.3f}, B = {est.upper:8.3f}, B/A = {est.ratio:8.3f}")

print("\nA dyadic grid with a comparable point budget:")
dy = dyadic_sample_set(2.0**0.25, 2.0, region)
est = estimate_bounds(dy, w, model, band)
print(f"  a = 2^(1/4), b = 2: {len(dy):5d} points, "
      f"A = {est.lower:8.3f}, B = {est.upper:8.3f}, B/A = {est.ratio:8.3f}")

print("\nHead-to-head at matched density (dyadic time step tuned so the")
print("point counts agree within 2%):")
rows = compare_schemes([0.5, 0.35], w, model, region, band)
hdr = f"{'delta':>6} {'scheme':>8} {'points':>7} {'A':>9} {'B':>9} {'B/A':>9}"
print("  " + hdr)
for r in rows:
    print(f"  {r['delta']:6.2f} {r['scheme']:>8} {r['points']:7d} "
          f"{r['A']:9.3f} {r['B']:9.3f} {r['ratio']:9.3f}")
print("\nAt equal budgets the golden sets stay markedly better conditioned:")
print("the lattice never aligns with any dyadic grid, so its points avoid")
print("the clustering that inflates B and starves A on the dyadic side.")
