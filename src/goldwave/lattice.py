"""The golden rotated lattice and exact rectangle point counting.

The lattice is Gamma = A Z**2 with generator A = [[1, -alpha], [alpha, 1]],
alpha the inverse golden ratio.  The point with index (n, m) has coordinates
(n - m*alpha, m + n*alpha), both elements of Z[alpha], so membership in a
rectangle with rational (or Z[alpha]) edges can be decided exactly.

Counting has one engine.  ``count_rects`` takes the reduced basis of every
rectangle, in the frame where it is a square, in closed form from the unit
phi of Z[phi], and as candidates the small integer box that this basis maps
onto a parallelogram covering the rectangle; rectangles with equally shaped
boxes are checked together.  A rectangle of any aspect ratio thus costs
about as many candidates as a square of its area.
``enumerate_in_rect`` lists the indices of one rectangle's points from the
same box, as one int64 array.
``audit_min_count`` / ``audit_max_count`` run randomized plus
lattice-anchored adversarial ensembles of fixed-area rectangles and report
the extreme counts with reproducing witnesses.

Boundary policy: membership at half-open edges uses exact sign tests when the
rectangle edges and beta are rational or Z[alpha]-valued; otherwise IEEE
comparisons, with no epsilon, of the compensated float64 coordinates of
``lattice_coords``.  Randomized audits draw edges from continuous
distributions, so float ties occur with probability zero.  Indices stay
below 2**52, where those coordinates are exact; a rectangle that needs
larger ones, or more candidates than the cap, raises EnumerationCapError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .goldenring import ALPHA_FLOAT, GoldenNumber, fibonacci

__all__ = [
    "Rect",
    "LatticeSpec",
    "CountAudit",
    "EnumerationCapError",
    "enumerate_in_rect",
    "count_in_rect",
    "count_rects",
    "audit_min_count",
    "audit_max_count",
    "diophantine_gap",
    "diophantine_bound_holds",
]


def _alpha_double_double() -> tuple[float, float]:
    """alpha as an unevaluated double-double sum hi + lo, |lo| ~ 1e-17."""
    bits = 200
    root = math.isqrt(5 << (2 * bits))  # floor(sqrt(5) * 2**bits)
    fix = (root - (1 << bits)) // 2  # floor(alpha * 2**bits)
    hi = float(Fraction(fix, 1 << bits))
    lo = float(Fraction(fix, 1 << bits) - Fraction(hi))
    return hi, lo


_ALPHA_HI, _ALPHA_LO = _alpha_double_double()
_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_prod(a: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact product a*b = p + err for float64 inputs (Dekker two-product)."""
    p = a * b
    ca = _SPLIT * a
    a_hi = ca - (ca - a)
    a_lo = a - a_hi
    cb = _SPLIT * b
    b_hi = cb - (cb - b)
    b_lo = b - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def lattice_coords(n: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float coordinates (n - m*alpha, m + n*alpha), compensated.

    The products m*alpha and n*alpha are formed exactly via two-products
    against a double-double alpha, so the massive cancellation that occurs in
    thin covering cells at large scale offsets (indices ~1e13 cancelling to
    widths ~1e-13) loses no precision.  Valid for |n|, |m| < 2**52.
    """
    nf = np.asarray(n, dtype=np.float64)
    mf = np.asarray(m, dtype=np.float64)
    p, e = _two_prod(mf, _ALPHA_HI)
    x = (nf - p) - (e + mf * _ALPHA_LO)
    p2, e2 = _two_prod(nf, _ALPHA_HI)
    s = (mf + p2) + (e2 + nf * _ALPHA_LO)
    return x, s

# Exact edge values: integers, rationals, elements of Z[alpha], or a pair
# (g, q) standing for g / q with g in Z[alpha] and q a positive integer.
ExactEdge = int | Fraction | GoldenNumber | tuple[GoldenNumber, int]

_DEFAULT_CAP = 100_000_000  # candidates per call
_INDEX_LIMIT = 2.0**52  # lattice_coords is exact for smaller indices
_BOX_TOL = 1e-12  # relative widening of the candidate boxes, ~4500 ulps
_BLOCK = 1 << 16  # candidates checked per vectorized step


class EnumerationCapError(RuntimeError):
    """Candidates over the enumeration cap, or lattice indices beyond 2**52."""


def _edge_float(e: ExactEdge) -> float:
    if isinstance(e, GoldenNumber):
        return e.to_float()
    if isinstance(e, tuple):
        g, q = e
        return g.to_float() / q
    return float(e)


@dataclass(frozen=True)
class Rect:
    """Axis-parallel half-open rectangle [a, b) x [c, d).

    ``exact`` optionally carries the edges as exact values (int, Fraction,
    GoldenNumber or a pair (g, q)), enabling exact membership tests; they
    are stored as (g, q) pairs.  The float fields are always populated and
    are the embedding of the exact edges when present.
    """

    a: float
    b: float
    c: float
    d: float
    exact: tuple[ExactEdge, ExactEdge, ExactEdge, ExactEdge] | None = None

    def __post_init__(self):
        if self.exact is not None:
            exact = tuple(map(_as_golden_ratio, self.exact))
            object.__setattr__(self, "exact", exact)
            (ga, qa), (gb, qb), (gc, qc), (gd, qd) = exact
            if (gb * qa - ga * qb).sign() <= 0 or (gd * qc - gc * qd).sign() <= 0:
                raise ValueError(f"invalid rectangle {self}")
        elif not (self.a < self.b and self.c < self.d):
            raise ValueError(f"invalid rectangle {self}")

    @classmethod
    def from_exact(cls, a: ExactEdge, b: ExactEdge, c: ExactEdge, d: ExactEdge) -> Rect:
        return cls(
            _edge_float(a), _edge_float(b), _edge_float(c), _edge_float(d),
            exact=(a, b, c, d),
        )

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def height(self) -> float:
        return self.d - self.c

    @property
    def area(self) -> float:
        return self.width * self.height

    def edges(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def _as_golden_ratio(e: ExactEdge) -> tuple[GoldenNumber, int]:
    """Represent an exact edge as g / q with q > 0."""
    if isinstance(e, GoldenNumber):
        return e, 1
    if isinstance(e, tuple):
        g, q = e
        if not (isinstance(g, GoldenNumber) and isinstance(q, int) and q > 0):
            raise TypeError(f"edge pair must be (GoldenNumber, positive int), got {e!r}")
        return g, q
    if isinstance(e, Fraction):
        return GoldenNumber(e.numerator, 0), e.denominator
    return GoldenNumber(int(e), 0), 1


@dataclass(frozen=True)
class LatticeSpec:
    """Isotropically scaled lattice beta * Gamma.

    ``beta`` may be a Fraction for exact membership work; floats are fine for
    audits where edges are drawn from continuous distributions.
    """

    beta: float | Fraction = 1.0

    def __post_init__(self):
        if not 0 < float(self.beta) < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")

    @property
    def beta_fraction(self) -> Fraction | None:
        if isinstance(self.beta, (int, Fraction)):
            return Fraction(self.beta)
        return None


# ---------------------------------------------------------------------------
# the counting engine: reduced bases, candidate boxes, membership


_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_MAX_POWER = 75  # F_76 < 2**52 < F_77
# F_i at position i + 76 for |i| <= 76, with F_{-i} = (-1)**(i+1) * F_i
_FIB = np.array([fibonacci(abs(i)) * (-1 if i < 0 and i % 2 == 0 else 1)
                 for i in range(-_MAX_POWER - 1, _MAX_POWER + 2)], dtype=np.int64)


def _reduced_bases(k: np.ndarray) -> np.ndarray:
    """Index bases u, shape (2, 2, N), with u[:, 0] and u[:, 1] the index
    columns (n, m) of a reduced basis of the lattice in the frame
    (x*k, s/k), for every factor k at once.

    With k = sqrt(h/w) that frame turns a w x h rectangle into a square.
    Multiplication by the unit phi maps Gamma onto itself: the indices
    V @ (n, m), V = [[1, -1], [-1, 0]], give the point (phi*x, -alpha*s).
    So the frame at k holds, up to the sign of s, the lattice of the frame
    at k*phi**-j under V**-j.  The unit basis is reduced (|mu| <= 1/2) for
    phi**(-1/2) <= k <= phi**(1/2), so V**-j, j = rint(log_phi k), is reduced
    at k; its entries are F_{1-j}, -F_{-j}, -F_{-j}, F_{-1-j}.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.rint(np.log(k) / math.log(_PHI))
    if not (np.abs(j) <= _MAX_POWER).all():
        raise EnumerationCapError("reduced basis needs lattice indices beyond 2**52")
    t = _MAX_POWER + 1 - j.astype(np.int64)  # the position of F_{-j}
    return np.array([[_FIB[t + 1], -_FIB[t]], [-_FIB[t], _FIB[t - 1]]])


def _boxes(beta: float, a, b, c, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced index bases u and candidate boxes (lo, size) of the rectangles
    [a, b) x [c, d): every point of beta*Gamma in rectangle r has indices
    u[..., r] @ (i, j) with lo[:, r] <= (i, j) < lo[:, r] + size[:, r].

    The box bounds the preimage of the rectangle under the reduced basis,
    widened by a relative tolerance far above float rounding.  All outputs
    are int64 arrays.  Raises EnumerationCapError when the boxes hold more
    than the cap of candidates in total or reach indices beyond 2**52,
    where ``lattice_coords`` stops being exact.
    """
    edges = np.stack([a, b, c, d])
    if not (0 < beta < math.inf and np.isfinite(edges).all() and (a < b).all() and (c < d).all()):
        raise ValueError(f"need finite beta > 0 (got {beta}) and finite edges, a < b, c < d")
    # widths beyond the float range and the huge boxes that go with them
    # overflow to inf; the checks below turn that into EnumerationCapError
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        k = np.sqrt(d - c) / np.sqrt(b - a)
        u = _reduced_bases(k)
        x, s = lattice_coords(u[0], u[1])
        (x0, x1), (s0, s1) = x * k, s / k
        inv = np.array([[s1, -x1], [-s0, x0]]) / (x0 * s1 - x1 * s0)
        # the rectangle's corners in the frame, then in index space
        corners = np.stack([edges[[0, 1, 0, 1]] * (k / beta), edges[[2, 2, 3, 3]] / (k * beta)])
        q = np.einsum("ijr,jcr->icr", inv, corners)
        tol = _BOX_TOL * np.abs(q).max(axis=(0, 1))
        lo = np.ceil(q.min(axis=1) - tol)
        size = np.floor(q.max(axis=1) + tol) - lo + 1
        total = np.sum(size[0] * size[1])
        # bound on the int64 products below, which may cancel to small indices
        reach = (np.abs(u) * np.maximum(np.abs(lo), np.abs(lo + size))).sum(axis=1)
        lo, size = lo.astype(np.int64), size.astype(np.int64)
    if not total <= _DEFAULT_CAP:
        raise EnumerationCapError(
            f"candidate boxes of {total:.3g} cells exceed cap {_DEFAULT_CAP}"
        )
    # indices are linear over a box, so its corners bound them
    i, j = np.stack([lo, lo + np.maximum(size - 1, 0)]).transpose(1, 0, 2)
    if not ((reach < 2.0**62).all() and all(
            (np.abs(row[0] * i[:, None] + row[1] * j) < _INDEX_LIMIT).all() for row in u)):
        raise EnumerationCapError("candidate box needs lattice indices beyond 2**52")
    return u, lo, size


def _candidates(u, lo, ni: int, nj: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (n, m) of boxes of ni x nj candidates from corners lo, one
    row per box."""
    di, dj = np.divmod(np.arange(ni * nj), nj)
    ii = lo[0][:, None] + di
    jj = lo[1][:, None] + dj
    n = u[0, 0][:, None] * ii + u[0, 1][:, None] * jj
    m = u[1, 0][:, None] * ii + u[1, 1][:, None] * jj
    return n, m


def _blocks(beta: float, a, b, c, d):
    """The candidates of the rectangles [a, b) x [c, d) in blocks of about
    ``_BLOCK``: yields (owner, n, m, keep), the indices of candidates of the
    rectangles ``owner``, one row each, and their float membership.

    Boxes are cut along i into pieces of at most ``_BLOCK`` candidates (or
    one row), so memory stays bounded, and pieces of one shape are checked
    together.
    """
    u, lo, size = _boxes(beta, a, b, c, d)
    rows = np.maximum(_BLOCK // np.maximum(size[1], 1), 1)
    pieces = -(-size[0] // rows) * (size[1] > 0)
    owner = np.repeat(np.arange(a.size), pieces)
    i_off = (np.arange(owner.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)) * rows[owner]
    lo = lo[:, owner] + [[1], [0]] * i_off
    size = np.stack([np.minimum(rows[owner], size[0, owner] - i_off), size[1, owner]])
    shape = size[0] * (size[1].max(initial=0) + 1) + size[1]
    for key in np.unique(shape):
        group = np.flatnonzero(shape == key)
        ni, nj = size[:, group[0]]
        per_block = max(1, _BLOCK // (ni * nj))
        for start in range(0, group.size, per_block):
            r = group[start:start + per_block]
            o = owner[r]
            n, m = _candidates(u[..., o], lo[:, r], ni, nj)
            x, s = lattice_coords(n, m)
            x *= beta
            s *= beta
            keep = (x >= a[o, None]) & (x < b[o, None]) & (s >= c[o, None]) & (s < d[o, None])
            yield o, n, m, keep


def _exact_keep(n, m, rect: Rect, beta: Fraction) -> np.ndarray:
    """Exact membership of the candidates (n, m) in ``rect``, by sign tests:
    with beta = p/r and an edge g/q, beta*v - g/q has the sign of
    p*q*v - r*g, all denominators positive."""
    (ta, ga), (tb, gb), (tc, gc), (td, gd) = (
        (beta.numerator * q, g * beta.denominator) for g, q in rect.exact)

    def member(i: int, j: int) -> bool:
        x, s = GoldenNumber(i, -j), GoldenNumber(j, i)
        return ((x * ta - ga).sign() >= 0 and (x * tb - gb).sign() < 0
                and (s * tc - gc).sign() >= 0 and (s * td - gd).sign() < 0)

    keep = list(map(member, n.ravel().tolist(), m.ravel().tolist()))
    return np.array(keep, dtype=bool).reshape(n.shape)


def enumerate_in_rect(spec: LatticeSpec, rect: Rect) -> np.ndarray:
    """Indices of all points of beta*Gamma inside ``rect``, half-open
    membership: an int64 array of shape (k, 2), rows (n, m) in
    lexicographic order.

    Candidates come from the rectangle's box (the one-rectangle case of
    ``count_rects``).  Exact sign tests decide membership when the rectangle
    has exact edges and beta is rational; otherwise IEEE comparisons of the
    compensated float64 coordinates.
    """
    beta_frac = spec.beta_fraction
    exact = rect.exact is not None and beta_frac is not None
    found = [np.zeros((0, 2), dtype=np.int64)]
    for _, n, m, keep in _blocks(float(spec.beta), *(np.array([e]) for e in rect.edges())):
        if exact:
            keep = _exact_keep(n, m, rect, beta_frac)
        found.append(np.column_stack([n[keep], m[keep]]))
    idx = np.concatenate(found)
    return idx[np.lexsort((idx[:, 1], idx[:, 0]))]


def count_in_rect(spec: LatticeSpec, rect: Rect) -> int:
    """Cardinality of beta*Gamma intersected with ``rect``."""
    return len(enumerate_in_rect(spec, rect))


def count_rects(beta: float, a, b, c, d) -> np.ndarray:
    """Counts of beta*Gamma in the rectangles [a, b) x [c, d), given as 1-D
    arrays of edges, by the float membership of ``enumerate_in_rect``.

    Every rectangle's reduced basis is a power of the unit's index matrix,
    so each costs about as many candidates as a square of its area,
    whatever its aspect ratio.
    """
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    counts = np.zeros(a.size, dtype=np.int64)
    for owner, _, _, keep in _blocks(beta, a, b, c, d):
        np.add.at(counts, owner, keep.sum(axis=1))
    return counts


# ---------------------------------------------------------------------------
# randomized / adversarial audits


@dataclass(frozen=True)
class CountAudit:
    """Evidence record for a rectangle-count ensemble."""

    trials: int
    area: float
    min_count: int
    max_count: int
    witness_min: Rect
    witness_max: Rect
    seed: int
    histogram: dict[int, int] = field(default_factory=dict)


def _random_rects(rng, area, trials, aspect_range, center_range):
    r_lo, r_hi = aspect_range
    rho = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=trials))
    w = np.sqrt(area * rho)
    h = area / w
    a = rng.uniform(-center_range, center_range, size=trials)
    c = rng.uniform(-center_range, center_range, size=trials)
    return a, a + w, c, c + h


def _anchored_rects(rng, area, count, aspect_range, anchor_mode):
    """Rectangles with lattice points on (or just off) their boundary.

    The extremal configurations for both point-count bounds have lattice
    points on the rectangle boundary, so the adversarial sweep anchors edges
    at lattice coordinates, with small nudges probing both sides of the
    half-open boundary.
    """
    r_lo, r_hi = aspect_range
    rho = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=count))
    w = np.sqrt(area * rho)
    h = area / w
    idx = rng.integers(-400, 401, size=(count, 4))
    gx = idx[:, 0] - idx[:, 1] * ALPHA_FLOAT
    gs = idx[:, 2] + idx[:, 3] * ALPHA_FLOAT
    nudge_x = rng.choice([-1e-9, 0.0, 1e-9], size=count)
    nudge_s = rng.choice([-1e-9, 0.0, 1e-9], size=count)
    if anchor_mode == "min":
        # open right/top edges at lattice coordinates
        b = gx + nudge_x
        d = gs + nudge_s
        return b - w, b, d - h, d
    # closed left/bottom edges at lattice coordinates
    a = gx + nudge_x
    c = gs + nudge_s
    return a, a + w, c, c + h


def _run_audit(area, trials, seed, aspect_range, center_range, anchor_mode):
    if not 0 < area < math.inf:
        raise ValueError(f"area must be positive and finite, got {area}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    r_lo, r_hi = aspect_range
    if not (0 < r_lo <= r_hi < math.inf):
        raise ValueError(f"invalid aspect range {aspect_range}")
    if not 0 <= center_range <= _INDEX_LIMIT:
        raise ValueError(f"center range must lie in [0, 2**52], got {center_range}")
    n_sweep = max(trials // 10, 100)
    # every rectangle costs at least one candidate: refuse before drawing any
    if trials + n_sweep > _DEFAULT_CAP:
        raise EnumerationCapError(
            f"{trials + n_sweep} rectangles exceed the cap {_DEFAULT_CAP} of candidates"
        )
    rng = np.random.default_rng(seed)
    # sides beyond the float range come out inf or 0; count_rects rejects them
    with np.errstate(over="ignore", divide="ignore"):
        ra, rb, rc, rd = _random_rects(rng, area, trials, aspect_range, center_range)
        sa, sb, sc, sd = _anchored_rects(rng, area, n_sweep, aspect_range, anchor_mode)
    a = np.concatenate([ra, sa])
    b = np.concatenate([rb, sb])
    c = np.concatenate([rc, sc])
    d = np.concatenate([rd, sd])
    counts = count_rects(1.0, a, b, c, d)
    i_min = int(counts.argmin())
    i_max = int(counts.argmax())
    values, freqs = np.unique(counts, return_counts=True)
    return CountAudit(
        trials=int(counts.size),
        area=float(area),
        min_count=int(counts[i_min]),
        max_count=int(counts[i_max]),
        witness_min=Rect(float(a[i_min]), float(b[i_min]), float(c[i_min]), float(d[i_min])),
        witness_max=Rect(float(a[i_max]), float(b[i_max]), float(c[i_max]), float(d[i_max])),
        seed=seed,
        histogram={int(v): int(f) for v, f in zip(values, freqs)},
    )


def audit_min_count(
    area: float,
    trials: int,
    seed: int = 0,
    aspect_range: tuple[float, float] = (1e-3, 1e3),
    center_range: float = 1e3,
) -> CountAudit:
    """Randomized + boundary-anchored search for the minimum point count over
    rectangles of the given area.  Deterministic given the seed."""
    return _run_audit(area, trials, seed, aspect_range, center_range, "min")


def audit_max_count(
    area: float,
    trials: int,
    seed: int = 0,
    aspect_range: tuple[float, float] = (1e-3, 1e3),
    center_range: float = 1e3,
) -> CountAudit:
    """Randomized + boundary-anchored search for the maximum point count over
    rectangles of the given area.  Deterministic given the seed."""
    return _run_audit(area, trials, seed, aspect_range, center_range, "max")


# ---------------------------------------------------------------------------
# Diophantine structure


def diophantine_gap(n: int, m: int) -> float:
    """|n*alpha + m|, evaluated without catastrophic cancellation.

    Uses |n*alpha + m| = |m**2 - m*n - n**2| / |m - n*phi|: the numerator is
    the exact integer field norm, the denominator has no cancellation.  The
    result is >= 1 / ((3 + 2*alpha) * |n|) for every nonzero n.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    norm = abs(m * m - m * n - n * n)
    return norm / abs(m - n * _PHI)


def diophantine_bound_holds(n: int, m: int) -> bool:
    """Exact test of |n*alpha + m| * (3 + 2*alpha) * |n| >= 1."""
    if n == 0:
        raise ValueError("n must be nonzero")
    g = GoldenNumber(m, n)
    sgn = g.sign()
    lhs = GoldenNumber(3, 2) * (g * (sgn * abs(n)))
    return (lhs - GoldenNumber(1, 0)).sign() >= 0
