"""Independent reference computations for the benchmark's output checks.

Nothing here imports goldwave.  Lattice membership is decided with plain
integer norm tests in Z[sqrt 5]; atoms use the closed-form Cauchy profile;
frame bounds come from a dense Hermitian eigensolve.  All of it runs outside
the timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln

ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
DET = 1.0 + ALPHA * ALPHA

# An exact edge is a triple (e0, e1, den) standing for (e0 + e1*alpha) / den,
# with integers e0, e1 and den > 0.
Edge = tuple[int, int, int]


def edge(value: float | Fraction | int) -> Edge:
    """Exact edge for a rational value (floats are exact binary rationals)."""
    f = Fraction(value)
    return (f.numerator, 0, f.denominator)


def edge_value(e: Edge) -> float:
    return (e[0] + e[1] * ALPHA) / e[2]


def sign_z_alpha(a: int, b: int) -> int:
    """Exact sign of a + b*alpha.

    a + b*alpha = ((2a - b) + b*sqrt(5)) / 2; with x = 2a - b and y = b the
    sign of x + y*sqrt(5) is read off the signs of x and y, or, when they
    differ, from the integer norm x**2 - 5*y**2, which is never zero.
    """
    x, y = 2 * a - b, b
    if x >= 0 and y >= 0:
        return int(x > 0 or y > 0)
    if x <= 0 and y <= 0:
        return -1
    norm = x * x - 5 * y * y
    if x > 0:
        return 1 if norm > 0 else -1
    return 1 if norm < 0 else -1


def _exact_inside(n: int, m: int, beta: Fraction, edges: tuple[Edge, ...]) -> bool:
    """Half-open membership of beta*(n - m*alpha, m + n*alpha), exactly."""
    p, q = beta.numerator, beta.denominator
    (a0, a1, ad), (b0, b1, bd), (c0, c1, cd), (d0, d1, dd) = edges

    def x_minus(e0, e1, den):  # sign of beta*x - e
        return sign_z_alpha(p * den * n - q * e0, -p * den * m - q * e1)

    def s_minus(e0, e1, den):  # sign of beta*s - e
        return sign_z_alpha(p * den * m - q * e0, p * den * n - q * e1)

    return (
        x_minus(a0, a1, ad) >= 0
        and x_minus(b0, b1, bd) < 0
        and s_minus(c0, c1, cd) >= 0
        and s_minus(d0, d1, dd) < 0
    )


def lattice_points(beta: Fraction, edges: tuple[Edge, Edge, Edge, Edge]) -> list[tuple[int, int]]:
    """Sorted index pairs (n, m) of beta*Gamma inside [a, b) x [c, d).

    Scans every row m of the rectangle's index box, over the n-window that
    row can reach, padded by two cells on each side.  Candidates far from
    every edge are classified in float64; the rest by the exact test.
    """
    bf = float(beta)
    a, b, c, d = (edge_value(e) / bf for e in edges)
    m_lo = math.floor((c - ALPHA * b) / DET) - 2
    m_hi = math.ceil((d - ALPHA * a) / DET) + 2
    ms = np.arange(m_lo, m_hi + 1, dtype=np.int64)
    lo = np.maximum(a + ms * ALPHA, (c - ms) / ALPHA)
    hi = np.minimum(b + ms * ALPHA, (d - ms) / ALPHA)
    n_lo = np.floor(lo).astype(np.int64) - 2
    widths = np.maximum(np.ceil(hi).astype(np.int64) + 2 - n_lo + 1, 0)
    rows = np.repeat(np.arange(ms.size), widths)
    n = n_lo[rows] + (np.arange(rows.size) - np.repeat(np.cumsum(widths) - widths, widths))
    m = ms[rows]
    x = n - m * ALPHA
    s = m + n * ALPHA
    margin = 1e-9 * (1.0 + np.abs(x) + np.abs(s))
    clear_in = (x >= a + margin) & (x < b - margin) & (s >= c + margin) & (s < d - margin)
    doubtful = (
        (np.abs(x - a) <= margin) | (np.abs(x - b) <= margin)
        | (np.abs(s - c) <= margin) | (np.abs(s - d) <= margin)
    )
    points = [(int(i), int(j)) for i, j in zip(n[clear_in & ~doubtful], m[clear_in & ~doubtful])]
    points += [
        (int(i), int(j))
        for i, j in zip(n[doubtful], m[doubtful])
        if _exact_inside(int(i), int(j), beta, edges)
    ]
    return sorted(points)


def golden_points(beta: float, region: tuple[float, float, float, float]) -> np.ndarray:
    """(x, s) rows of beta*Gamma inside a float region."""
    idx = lattice_points(Fraction(beta), tuple(edge(v) for v in region))
    if not idx:
        return np.zeros((0, 2))
    n, m = np.array(idx, dtype=np.float64).T
    return np.column_stack([beta * (n - m * ALPHA), beta * (m + n * ALPHA)])


def dyadic_points(a: float, b: float, region: tuple[float, float, float, float]) -> np.ndarray:
    """(l*b/a**j, a**j) rows inside a region whose left edge is 0."""
    x0, x1, s0, s1 = region
    if x0 != 0.0:
        raise ValueError("the dyadic reference assumes a region starting at x = 0")
    rows = []
    j = math.floor(math.log(s0) / math.log(a)) - 1
    while a**j < s1:
        s = a**j
        if s >= s0:
            step = b / s
            ls = np.arange(math.ceil(x1 / step))
            rows.append(np.column_stack([ls * step, np.full(ls.size, s)]))
        j += 1
    return np.vstack(rows) if rows else np.zeros((0, 2))


def match_dyadic_b(target: int, a: float, region, rel_tol: float = 0.02) -> float:
    """Translation step whose dyadic count matches ``target`` within
    ``rel_tol``, by geometric bisection of b over [1e-6, 1e6] (the search
    documented for density-matched comparisons)."""
    lo, hi = 1e-6, 1e6
    best_b, best_err = None, math.inf
    for _ in range(200):
        b = math.sqrt(lo * hi)
        count = len(dyadic_points(a, b, region))
        err = (count - target) / target
        if abs(err) < best_err:
            best_b, best_err = b, abs(err)
        if abs(err) <= rel_tol:
            return b
        if count > target:
            lo = b
        else:
            hi = b
    return best_b


# ---------------------------------------------------------------------------
# Cauchy wavelet, atoms and frame bounds


def cauchy_constant(p: float) -> float:
    """c with integral of (c*xi**p*exp(-xi))**2 / xi over xi > 0 equal to 1:
    c**2 * Gamma(2p) / 2**(2p) = 1."""
    return math.exp(0.5 * (2 * p * math.log(2.0) - gammaln(2 * p)))


def cauchy_atoms(p: float, points: np.ndarray, bins: np.ndarray, duration: float) -> np.ndarray:
    """Atom coefficients (T*s)**-0.5 * G(xi_j/s) * exp(-2*pi*i*x*xi_j) of the
    normalized Cauchy wavelet of order p, one row per (x, s) point."""
    xi = np.asarray(bins, dtype=float)[None, :] / duration
    x = points[:, :1]
    s = points[:, 1:]
    u = xi / s
    g = cauchy_constant(p) * u**p * np.exp(-u)
    return g * np.exp(-2j * np.pi * x * xi) / np.sqrt(duration * s)


def guard_band(p: float, smin: float, smax: float, n: int, duration: float,
               guard_octaves: float = 2.0) -> tuple[int, int]:
    """Bins whose frequency lies guard_octaves inside the scale range, for a
    Cauchy wavelet peaking at xi = p."""
    g = 2.0**guard_octaves
    j_lo = max(1, math.ceil(smin * g * p * duration))
    j_hi = min(n // 2 - 2, math.floor(smax / g * p * duration))
    return j_lo, j_hi


def frame_bounds(points: np.ndarray, band: tuple[int, int], duration: float,
                 p: float = 6.0) -> tuple[float, float]:
    """Extreme eigenvalues of the band-restricted frame operator M^H M."""
    bins = np.arange(band[0], band[1] + 1)
    m = cauchy_atoms(p, points, bins, duration)
    ev = np.linalg.eigvalsh(m.conj().T @ m)
    return float(ev[0]), float(ev[-1])


# ---------------------------------------------------------------------------
# Cauchy decay conditions, on the grid the wavelet check documents


def cauchy_decay(p: float, xi_min: float = 1e-6, xi_max: float = 80.0, n: int = 8193,
                 tail_fraction: float = 0.01) -> dict:
    """Tail sups of the weighted quantities G, xi*G', xi*G'' - G' and the
    weighted L2 integral, for the normalized Cauchy profile of order p."""
    c = cauchy_constant(p)
    u = np.linspace(math.log(xi_min), math.log(xi_max), n)
    xi = np.exp(u)
    e = np.exp(-xi)
    g = c * xi**p * e
    d1 = c * e * xi ** (p - 1) * (p - xi)
    d2 = c * e * xi ** (p - 2) * (p * (p - 1) - 2 * p * xi + xi**2)
    weight = np.maximum(xi**3, xi**-3.0)
    ntail = max(int(tail_fraction * n), 4)
    tails = {}
    for name, q in (("c0_decay_order_0", g), ("c0_decay_order_1", xi * d1),
                    ("c0_decay_order_2", xi * d2 - d1)):
        wq = weight * np.abs(q)
        tails[name] = (float(wq[:ntail].max()), float(wq[-ntail:].max()))
    # integral of max(xi**10, xi**-10) * G**2 over (0, inf), split at xi = 1:
    # c**2 * [lower_gamma(2p-9, 2) / 2**(2p-9) + upper_gamma(2p+11, 2) / 2**(2p+11)]
    l2 = c * c * (
        math.exp(gammaln(2 * p - 9) - (2 * p - 9) * math.log(2.0)) * gammainc(2 * p - 9, 2.0)
        + math.exp(gammaln(2 * p + 11) - (2 * p + 11) * math.log(2.0)) * gammaincc(2 * p + 11, 2.0)
    )
    integrand = np.maximum(xi**10, xi**-10.0) * g**2 * xi
    peak = integrand.max()
    l2_tails_ok = bool(integrand[:ntail].max() < 1e-9 * peak and integrand[-ntail:].max() < 1e-9 * peak)
    return {"tails": tails, "l2": float(l2), "l2_tails_ok": l2_tails_ok}
