"""Phase-space covering by equal-area half-open rectangles.

The upper half-plane (x, s), s > 0, is tiled by cells

    V[k, l] = [delta**2 * k / |I_l|, delta**2 * (k+1) / |I_l|) x I_l,
    I_l = [exp(delta*l), exp(delta*(l+1))),

each of area delta**2.  Scaling the golden lattice by
beta(delta) = delta / sqrt(2 + alpha) turns each cell, in lattice
coordinates, into a rectangle of area exactly 2 + alpha, so the rectangle
point-count bounds put every per-cell count of beta*Gamma in [1, 12].
``audit_cover`` verifies this cell by cell over finite index ranges; the
statement for all of Z**2 follows mathematically but is not machine-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .goldenring import ALPHA_FLOAT
from .lattice import _DEFAULT_CAP, EnumerationCapError, Rect, count_rects

__all__ = [
    "CoverAudit",
    "cell",
    "cell_index",
    "beta_for_delta",
    "audit_cover",
]


def _check_delta(delta: float) -> None:
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")


def _row(delta: float, l: int) -> tuple[float, float, float]:
    """The scale interval [s_lo, s_hi) of row l and the width of its cells."""
    s_lo, s_hi = math.exp(delta * l), math.exp(delta * (l + 1))
    return s_lo, s_hi, delta * delta / (s_hi - s_lo)


def cell(delta: float, k: int, l: int) -> Rect:
    """The covering cell with indices (k, l)."""
    _check_delta(delta)
    s_lo, s_hi, w = _row(delta, l)
    return Rect(k * w, (k + 1) * w, s_lo, s_hi)


def cell_index(point: tuple[float, float], delta: float) -> tuple[int, int]:
    """Indices of the cell whose ``cell`` rectangle contains (x, s); requires s > 0."""
    _check_delta(delta)
    x, s = point
    if not (math.isfinite(x) and math.isfinite(s)):
        raise ValueError(f"point must be finite, got {point}")
    if not s > 0:
        raise ValueError(f"point must lie in the upper half-plane, got s={s}")
    # the rounded quotients may miss by one at an edge: step against the
    # edges exactly as cell() computes them
    l = math.floor(math.log(s) / delta)
    s_lo, s_hi, w = _row(delta, l)
    if s < s_lo:
        l -= 1
        s_lo, s_hi, w = _row(delta, l)
    elif s >= s_hi:
        l += 1
        s_lo, s_hi, w = _row(delta, l)
    k = math.floor(x / w)
    if x < k * w:
        k -= 1
    elif x >= (k + 1) * w:
        k += 1
    return k, l


def beta_for_delta(delta: float) -> float:
    """Isotropic lattice scale making each cell hold between 1 and 12 points.

    Rescaling a cell of area delta**2 by 1/beta gives an axis-parallel
    rectangle of area delta**2 / beta**2; the point-count bounds pin the
    count to [1, 12] exactly when that area is 2 + alpha, i.e. for
    beta = delta / sqrt(2 + alpha).  Any smaller beta keeps every cell
    nonempty (the minimum-area bound is monotone in area).
    """
    _check_delta(delta)
    return delta / math.sqrt(2.0 + ALPHA_FLOAT)


@dataclass(frozen=True)
class CoverAudit:
    """Per-cell point counts of beta*Gamma over a finite cell range."""

    delta: float
    beta: float
    k_range: tuple[int, int]
    l_range: tuple[int, int]
    min_count: int
    max_count: int
    # the first 100 empty cells in (l, k) order; histogram[0] counts them all
    empty_cells: list[tuple[int, int]] = field(default_factory=list)
    cells_checked: int = 0
    histogram: dict[int, int] = field(default_factory=dict)


def audit_cover(
    delta: float,
    beta: float | None = None,
    k_range: tuple[int, int] = (-200, 200),
    l_range: tuple[int, int] = (-20, 20),
) -> CoverAudit:
    """Count beta*Gamma points in every cell with k, l in the given closed
    index ranges.  beta defaults to beta_for_delta(delta).

    All cells go to ``count_rects`` as one batch, whose closed-form reduced
    bases make rows at large |l|, of extreme aspect ratio, as cheap as
    central rows.  Raises EnumerationCapError for more cells than the
    enumeration cap, or for a row whose cells leave the double-precision range.
    """
    _check_delta(delta)
    if beta is None:
        beta = beta_for_delta(delta)
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    k_lo, k_hi = k_range
    l_lo, l_hi = l_range
    if k_lo > k_hi or l_lo > l_hi:
        raise ValueError(f"empty index range: k in {list(k_range)}, l in {list(l_range)}")
    cells = (k_hi - k_lo + 1) * (l_hi - l_lo + 1)
    if cells > _DEFAULT_CAP or max(-k_lo, k_hi) >= 2**52:
        raise EnumerationCapError(
            f"{cells} cells with k in [{k_lo}, {k_hi}] exceed cap {_DEFAULT_CAP} or 2**52"
        )
    rows = []
    for l in range(l_lo, l_hi + 1):
        try:
            s_lo, s_hi, width = _row(delta, l)
        except (OverflowError, ZeroDivisionError):
            width = math.inf
        if not 0 < width < math.inf:
            raise EnumerationCapError(f"cells of row l={l} leave the double-precision range")
        rows.append((width, s_lo, s_hi))
    width, s_lo, s_hi = np.array(rows).T
    ks = np.arange(k_lo, k_hi + 2, dtype=float)  # cell edges k*w, row by row, with no other copy
    counts = count_rects(beta, np.outer(width, ks[:-1]).ravel(), np.outer(width, ks[1:]).ravel(),
                         np.repeat(s_lo, ks.size - 1), np.repeat(s_hi, ks.size - 1))
    empty = [(k_lo + int(i) % (k_hi - k_lo + 1), l_lo + int(i) // (k_hi - k_lo + 1))
             for i in np.flatnonzero(counts == 0)[:100]]
    values, freqs = np.unique(counts, return_counts=True)
    return CoverAudit(
        delta=delta,
        beta=float(beta),
        k_range=(k_lo, k_hi),
        l_range=(l_lo, l_hi),
        min_count=int(counts.min()),
        max_count=int(counts.max()),
        empty_cells=empty,
        cells_checked=cells,
        histogram={int(v): int(f) for v, f in zip(values, freqs)},
    )
