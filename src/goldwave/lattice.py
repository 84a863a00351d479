"""The golden rotated lattice and exact rectangle point counting.

The lattice is Gamma = A Z**2 with generator A = [[1, -alpha], [alpha, 1]],
alpha the inverse golden ratio.  The point with index (n, m) has coordinates
(n - m*alpha, m + n*alpha), both elements of Z[alpha], so membership in a
rectangle with rational (or Z[alpha]) edges can be decided exactly.

Counting has one engine.  ``count_rects`` takes the reduced basis of every
rectangle, in the frame where it is a square, in closed form from the unit
phi of Z[phi], and as candidates the small integer box that this basis maps
onto a parallelogram covering the rectangle; rectangles with equally shaped
boxes, found by one stable sort, are checked together.  A rectangle of any
aspect ratio thus costs about as many candidates as a square of its area.
``enumerate_in_rect`` lists one rectangle's points, as one int64 index
array, from the same box, margins and decider, worked out on Python floats.
``audit_min_count`` / ``audit_max_count`` run randomized plus
lattice-anchored adversarial ensembles of fixed-area rectangles and report
the extreme counts with reproducing witnesses.

Boundary policy: membership is exact, for the rectangle and the scale as
given.  A float edge or a float beta is read as the dyadic rational it is;
an exact edge (``Rect.exact``) and a Fraction beta are used as they are.
A float filter decides most candidates.  It compares each candidate's
plain float coordinates, taken in the reduced frame of its box, with the
edges moved in and out by a margin M of at least three times the proven
error of those coordinates (see ``_blocks``): a candidate inside every
moved-in edge is in, one beyond a moved-out edge is out.  Only the few
within M of an edge reach the decider, ``_exact_keep``: sign tests in
Z[alpha], which count a point on a closed edge and leave out one on an
open edge.  Indices stay below 2**52; a rectangle that needs larger ones,
or more candidates than the cap, raises EnumerationCapError.
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
    "diophantine_bound_holds",
]


# floor(alpha * 2**200) / 2**200, from floor(sqrt(5) * 2**200)
_ALPHA_200 = Fraction((math.isqrt(5 << 400) - (1 << 200)) // 2, 1 << 200)
# alpha as an unevaluated double-double sum hi + lo, |lo| ~ 1e-17
_ALPHA_HI = float(_ALPHA_200)
_ALPHA_LO = float(_ALPHA_200 - Fraction(_ALPHA_HI))
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
_BOX_TOL = 11 * 2.0**-53  # widening of the candidate boxes per unit of q (see _boxes)
_BLOCK = 1 << 13  # candidates checked per vectorized step


class EnumerationCapError(RuntimeError):
    """Candidates over the enumeration cap, or lattice indices beyond 2**52."""


def _edge_float(e: ExactEdge) -> float:
    if isinstance(e, (GoldenNumber, tuple)):
        g, q = _as_golden_ratio(e)
        return g.to_float() / q
    return float(e)


@dataclass(frozen=True)
class Rect:
    """Axis-parallel half-open rectangle [a, b) x [c, d).

    ``exact`` optionally carries the edges as exact values (int, Fraction,
    GoldenNumber or a pair (g, q)), stored as (g, q) pairs; membership is
    then decided for them.  The float fields are always populated and are
    the embedding of the exact edges when present; without ``exact`` they
    are the edges, read as the dyadic rationals they are.
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
            valid = (gb * qa - ga * qb).sign() > 0 and (gd * qc - gc * qd).sign() > 0
        else:
            valid = self.a < self.b and self.c < self.d
        if not valid:
            raise ValueError(f"invalid rectangle [{self.a}, {self.b}) x [{self.c}, {self.d}): "
                             "need a < b and c < d")

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


def _as_golden_ratio(e: ExactEdge | float) -> tuple[GoldenNumber, int]:
    """Represent an exact edge, or a float as the dyadic rational it is, as
    g / q with q > 0 (a float's own as_integer_ratio beats Fraction's)."""
    if isinstance(e, GoldenNumber):
        return e, 1
    if isinstance(e, tuple):
        g, q = e
        if not (isinstance(g, GoldenNumber) and isinstance(q, int) and q > 0):
            raise TypeError(f"edge pair must be (GoldenNumber, positive int), got {e!r}")
        return g, q
    num, den = (e if isinstance(e, float) else Fraction(e)).as_integer_ratio()
    return GoldenNumber(num, 0), den


@dataclass(frozen=True)
class LatticeSpec:
    """Isotropically scaled lattice beta * Gamma.

    ``beta`` may be a float, read as the dyadic rational it is, or an int
    or Fraction; membership is decided exactly for that value.
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
# Reduced bases.  Multiplication by the unit phi maps Gamma onto itself:
# the indices V @ (n, m), V = [[1, -1], [-1, 0]], give the point (phi*x,
# -alpha*s).  The unit basis is reduced (|mu| <= 1/2) in the frame (x*k,
# s/k) for phi**(-1/2) <= k <= phi**(1/2), so V**-p is reduced in the
# frame at k = phi**p, up to the sign of s.
# Tables over the powers p, |p| <= 75, at the position p + 75: the index
# basis V**-p, shape (2, 2, 151), whose columns u[:, 0] and u[:, 1] are
# index pairs (n, m), with entries F_{1-p}, -F_{-p}, -F_{-p}, F_{-1-p};
# the largest row sum of |V**-p|, which bounds the indices of a box;
# phi**-p and (-phi)**p, the scales of V**-p in x and in s, and phi**p and
# (-alpha)**p, those of its box times beta, all correctly rounded
_POWERS = np.arange(-_MAX_POWER, _MAX_POWER + 1)
_T = _MAX_POWER + 1 - _POWERS  # the position of F_{-p} in _FIB
_BASES = np.array([[_FIB[_T + 1], -_FIB[_T]], [-_FIB[_T], _FIB[_T - 1]]])
_ROW_SUM = np.abs(_BASES).sum(axis=1).max(axis=0).astype(float)
_UNIT_X = np.array([float(int(n) - int(m) * _ALPHA_200) for n, m in _BASES[:, 0].T])
_UNIT_S = np.array([float(int(m) + int(n) * _ALPHA_200) for n, m in _BASES[:, 1].T])
_BOX_X, _BOX_S = np.abs(_UNIT_S), np.copysign(_UNIT_X, _UNIT_S)
_MARGIN = 2.0**-48  # the float filter's margin per unit of its error scale
_DET = 1.0 + ALPHA_FLOAT**2  # det A
# the tables as Python numbers, one tuple per position, for one rectangle
_ENTRIES = list(zip(_BOX_X.tolist(), _BOX_S.tolist(), _ROW_SUM.tolist(), _UNIT_X.tolist(),
                    _UNIT_S.tolist(), _BASES.reshape(4, -1).T.tolist()))


def _positions(p: np.ndarray) -> np.ndarray:
    """Table positions p + 75 of the powers p; EnumerationCapError beyond
    |p| = 75, where the bases need indices of 2**52 or more."""
    if not (np.abs(p) <= _MAX_POWER).all():
        raise EnumerationCapError("reduced basis needs lattice indices beyond 2**52")
    return p.astype(np.intp) + _MAX_POWER


def _check_indices(u, i0, j0, ni, nj) -> None:
    """Raise EnumerationCapError unless every candidate (i, j) of the boxes
    i0 <= i < i0 + ni, j0 <= j < j0 + nj has indices u @ (i, j) below 2**52
    and |i|, |j| below 2**62, where int64 sums stay exact.  Both are linear
    over a box, so its corners bound them, here exactly, in Python ints."""
    for (u00, u01, u10, u11), *box in zip(u.reshape(4, -1).T.tolist(), i0, j0, ni, nj):
        i0, j0, ni, nj = map(int, box)
        corners = [(i, j) for i in (i0, i0 + max(ni - 1, 0)) for j in (j0, j0 + max(nj - 1, 0))]
        if any(max(abs(i), abs(j)) >= 2**62 or max(abs(u00 * i + u01 * j),
                                                   abs(u10 * i + u11 * j)) >= _INDEX_LIMIT
               for i, j in corners):
            raise EnumerationCapError("candidate box needs lattice indices beyond 2**52")


def _boxes(beta: float, a, b, c, d):
    """Candidate boxes of the rectangles [a, b) x [c, d): the positions t
    of their reduced bases u = ``_BASES[..., t]`` in the tables, the boxes
    (lo, size) and bounds q: every point of beta*Gamma in rectangle r has
    indices u[..., r] @ (i, j) with lo[:, r] <= (i, j) < lo[:, r] +
    size[:, r], and while q[r] < 2**51 every candidate of the box has |i|,
    |j| <= q[r] and |n|, |m| <= ``_ROW_SUM[t[r]]`` * q[r].

    u = V**-p, p = rint(log_phi sqrt(h/w)) for a w x h rectangle, maps the
    point of (i, j) to the point of (i, j) times (phi**-p, (-alpha)**-p).
    So the box is the integer hull of i = (X + alpha*S)/D, j = (S -
    alpha*X)/D, D = 1 + alpha**2, over X in [a, b)*Kx, S in [c, d)*Ks, Kx =
    phi**p/beta, Ks = (-alpha)**p/beta.  Both are monotone in X and S, as
    is their rounding, so each extreme lies at one corner, as I_lo = (X_a +
    alpha*S_lo)/D.  Let u = 2**-53 and Q the largest exact |corner|.
    ``_BOX_X`` and ``_BOX_S`` are correctly rounded, and A = fl(alpha) and
    ``_DET`` within 0.8u of alpha and 0.4u of D.  So kx and ks are within
    2u of Kx and Ks, x_a = fl(a*kx) and the like within 3u, fl(A*s_lo)
    within 4.7u, the sum adds u*D*|I_lo| and the division 1.4u*|I_lo|:
    i_lo is within (2.9*|X_a| + 4.7*alpha*|S_lo|)*u/D + 2.4u*|I_lo| of
    I_lo.  (X_a, S_lo) is the point of (I_lo, j) for a j in [J_lo, J_hi],
    so |X_a| <= |I_lo| + alpha*|j| and |S_lo| <= |j| + alpha*|I_lo|, which
    puts that under 9.2u*Q, as for the other corners.  With q the largest
    float |corner|, Q <= (1 + 9.3u)*q, and fl(i_lo - tol) rounds by at most
    u*(q + tol), so tol = 11u*q (``_BOX_TOL``) keeps the box around the
    exact one.  Results below 2**-1022 round by up to 2**-1075; in kx or ks
    times an edge below 2**1024, that moves a corner by under 2**-50, which
    tol adds.  Inf or nan corners, from overflow, exceed the cap.

    Boxes whose index bound reaches 2**51 get the exact corner check.  t,
    lo and size are integer arrays, q is float.  Raises EnumerationCapError
    when the boxes hold more than the cap of candidates in total or reach
    indices beyond 2**52, where ``lattice_coords`` stops being exact.
    Working memory: at most about 12 floats per rectangle besides the edges
    (see ``count_rects``).
    """
    # widths beyond the float range and the huge boxes that go with them
    # overflow to inf; the checks below turn that into EnumerationCapError
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w, h = b - a, d - c
        # w > 0 is a < b, and given a < b the extremes of a and b bound both
        if not (0 < beta < math.inf and (w > 0).all() and (h > 0).all()
                and a.min(initial=0) > -math.inf and b.max(initial=0) < math.inf
                and c.min(initial=0) > -math.inf and d.max(initial=0) < math.inf):
            raise ValueError(
                f"need finite beta > 0 (got {beta}) and finite edges, a < b, c < d")
        t = _positions(np.rint(np.log(np.sqrt(h) / np.sqrt(w)) / math.log(_PHI)))
        del w, h
        # from here on, a result reuses the array of an input read for the last time
        kx, ks = _BOX_X[t] / beta, _BOX_S[t] / beta
        x_b, s_d = b * kx, d * ks
        x_a, s_c = np.multiply(a, kx, out=kx), np.multiply(c, ks, out=ks)
        s_lo, s_hi = np.minimum(s_c, s_d), np.maximum(s_c, s_d, out=s_d)
        i_lo = np.add(x_a, ALPHA_FLOAT * s_lo, out=s_c)
        j_lo = np.subtract(s_lo, ALPHA_FLOAT * x_b, out=s_lo)
        i_hi = np.add(x_b, ALPHA_FLOAT * s_hi, out=x_b)
        j_hi = np.subtract(s_hi, ALPHA_FLOAT * x_a, out=s_hi)
        del x_a, kx
        for v in (i_lo, j_lo, i_hi, j_hi):
            v /= _DET
        q = np.maximum(np.maximum(-i_lo, i_hi), np.maximum(-j_lo, j_hi))
        tol = q * _BOX_TOL + 2.0**-50
        # i_lo, j_lo become the first corners of the boxes, i_hi, j_hi their sizes
        for lo, hi in ((i_lo, i_hi), (j_lo, j_hi)):
            np.ceil(np.subtract(lo, tol, out=lo), out=lo)
            np.floor(np.add(hi, tol, out=hi), out=hi)
            hi -= lo
            hi += 1
        total = np.sum(i_hi * j_hi)
        q += tol + 1
    if not total <= _DEFAULT_CAP:
        raise EnumerationCapError(
            f"candidate boxes of {total:.3g} cells exceed cap {_DEFAULT_CAP}"
        )
    far = np.flatnonzero(~(_ROW_SUM[t] * q < 2.0**51))
    if far.size:
        _check_indices(_BASES[..., t[far]], i_lo[far], j_lo[far], i_hi[far], j_hi[far])
    return t, np.array([i_lo, j_lo], np.int64), np.array([i_hi, j_hi], np.int64), q


def _filter(beta: float, unit_x, unit_s, row_sum, q):
    """The float filter of ``_blocks`` for boxes of bound q and bases with
    unit scales unit_x, unit_s and row sums row_sum, elementwise: the scales
    kx, ks of x~ and s~, the margins mx, ms, and whether its bound holds."""
    kx, ks = beta * unit_x, beta * unit_s
    mq = (2 * _MARGIN) * q  # 2**-48 * L per unit of beta times the scale
    usable = (q < 2.0**51) & (beta * (row_sum * q) < 2.0**1022) & (beta >= 2.0**-960)
    return kx, ks, mq * kx + 2.0**-1070, mq * abs(ks) + 2.0**-1070, usable


def _blocks(beta: float, a, b, c, d):
    """The candidates of the rectangles [a, b) x [c, d) in blocks of about
    ``_BLOCK``: yields (owner, t, lo, nj, keep, near), one column per box
    of nj columns: the rectangles ``owner``, the table positions t and
    corners lo of their boxes, and masks of the candidates that the float
    filter puts inside for sure (``keep``) and of those it leaves open
    (``near``).

    Rectangles with an empty box are skipped.  Boxes are cut along i into
    pieces of at most ``_BLOCK`` candidates (or one row), so memory stays
    bounded, and pieces of one shape, found by one stable sort, are checked
    together.  Each block forms the thresholds of its own edges.

    The float filter.  The candidate (i, j) of a box of power p is the
    point x = phi**-p*(i - alpha*j), s = (-phi)**p*(j + alpha*i), and the
    filter takes x~ = fl(fl(beta*P)*fl(i - fl(A*j))), A = fl(alpha) and
    P = phi**-p correctly rounded, and s~ alike.  Let u = 2**-53, |i|, |j|
    <= Q and L = 2*beta*phi**-p*Q >= |beta*x|.  fl(A*j) is within u*phi*Q
    of alpha*j, the difference adds u*|x| and the two scalings 3u, so
    |x~ - beta*x| <= 4.1u*L.  The value that decides is beta*x for the
    beta that the decider reads: the float beta itself, or a rational beta
    whose float is within u*|beta| of it, which adds u*L.  So x~ is within
    E = 5.1u*L (+ 2**-1072 for subnormal results) of the deciding value,
    and the margin M = 2**-48*L + 2**-1070 is at least 3E.  An edge e gets
    the thresholds fl(e - M) and fl(e + M), which rounding moves by at most
    u*(|e| + M).  If that is at most M - E, x~ >= fl(e + M) puts the
    deciding value at or above e and x~ < fl(e - M) puts it below.
    Otherwise |e| > 2M/(3u) - M > 20L lies beyond x~ and the deciding
    value, and e and both its thresholds compare alike with either.  So a
    candidate inside all four inner thresholds is in, one beyond an outer
    threshold is out, and only the rest are ``near``.  A float edge is its
    own deciding value; an exact edge adds to its margin three times the
    distance to its float value (see ``enumerate_in_rect``).  Boxes where
    this bound does not hold are all near: |i| or |j| of 2**51 or more,
    where i and j may not be exact, K = beta*max(|n|, |m|) >= 2**1022,
    where x~ may overflow, or beta < 2**-960, where beta*P may be
    subnormal.  ``_filter`` gives the scales, margins and that rule.
    """
    t, lo, size, q = _boxes(beta, a, b, c, d)
    owner = np.flatnonzero(size[0] * size[1])
    lo, size = np.take(lo, owner, axis=1), np.take(size, owner, axis=1)
    if (size[0] * size[1]).max(initial=0) > _BLOCK:
        # cut along i: pieces of `rows` rows, the last one shorter
        rows = np.maximum(_BLOCK // size[1], 1)
        pieces = -(-size[0] // rows)
        first = np.repeat(np.cumsum(pieces) - pieces, pieces)
        owner, rows, lo, size = (np.repeat(v, pieces, axis=-1) for v in (owner, rows, lo, size))
        i_off = (np.arange(owner.size) - first) * rows
        lo[0] += i_off
        size[0] = np.minimum(rows, size[0] - i_off)
    width = int(size[1].max(initial=0)) + 1
    key = size[0] * width + size[1]
    # numpy sorts 16-bit keys stably by radix
    order = np.argsort(key.astype(np.int16) if key.max(initial=0) < 2**15 else key, kind="stable")
    key, owner, lo = key[order], owner[order], np.take(lo, order, axis=1)
    del order, size
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    # the float filter: scales and margins per box, thresholds per block
    t, q = t[owner], q[owner]
    # scales and margins of the boxes left unusable below may overflow
    with np.errstate(over="ignore"):
        kx, ks, mx, ms, usable = _filter(beta, _UNIT_X[t], _UNIT_S[t], _ROW_SUM[t], q)
    del q
    if not usable.all():
        # every candidate near; zero scales keep x~ and s~ finite
        mx[~usable] = ms[~usable] = np.inf
        kx[~usable] = ks[~usable] = 0.0
    for start, stop in zip(starts, [*starts[1:], owner.size]):
        ni, nj = divmod(int(key[start]), width)
        di, dj = np.divmod(np.arange(ni * nj, dtype=float)[:, None], nj)
        step = max(1, _BLOCK // (ni * nj))
        for first in range(start, stop, step):
            r = slice(first, min(first + step, stop))
            o, mx_r, ms_r = owner[r], mx[r], ms[r]
            i, j = lo[0, r] + di, lo[1, r] + dj
            x = ALPHA_FLOAT * j
            np.subtract(i, x, out=x)
            x *= kx[r]
            s = ALPHA_FLOAT * i
            s += j
            s *= ks[r]
            ea, eb, ec, ed = a[o], b[o], c[o], d[o]
            keep = (x >= ea + mx_r) & (x < eb - mx_r) & (s >= ec + ms_r) & (s < ed - ms_r)
            near = keep | (x < ea - mx_r) | (x > eb + mx_r) | (s < ec - ms_r) | (s > ed + ms_r)
            yield o, t[r], lo[:, r], nj, keep, ~near


def _exact_keep(beta: Fraction, n, m, rects) -> np.ndarray:
    """Membership of the candidates (n, m) of beta*Gamma, each in its own
    rectangle [a, b) x [c, d) (``rects``: one tuple of four edges per
    candidate, exact edges or floats, see ``_as_golden_ratio``), by exact
    sign tests in Z[alpha]: with beta = p/r and an edge g/q, beta*v - g/q
    has the sign of p*q*v - r*g, all denominators positive."""
    p, r = beta.numerator, beta.denominator

    def at_least(v0: int, v1: int, edge) -> bool:  # beta*(v0 + v1*alpha) >= edge
        g, q = _as_golden_ratio(edge)
        return GoldenNumber(p * q * v0 - r * g.a, p * q * v1 - r * g.b).sign() >= 0

    def member(i: int, j: int, e) -> bool:  # e = (a, b, c, d)
        return (at_least(i, -j, e[0]) and not at_least(i, -j, e[1])
                and at_least(j, i, e[2]) and not at_least(j, i, e[3]))

    return np.array(list(map(member, n.tolist(), m.tolist(), rects)), dtype=bool)


def enumerate_in_rect(spec: LatticeSpec, rect: Rect) -> np.ndarray:
    """Indices of all points of beta*Gamma inside ``rect``, half-open
    membership: an int64 array of shape (k, 2), rows (n, m) in
    lexicographic order.

    The one-rectangle case of ``count_rects`` on Python floats, numpy only
    over the box's candidates, in pieces of at most ``_BLOCK``: the box of
    ``_boxes``, the filter of ``_blocks`` and ``_exact_keep`` for the exact
    edges if any and beta as given.  An exact edge g/q, g in Z[alpha], has
    a float value within 2**-51*(|g.a| + |g.b|)/q of it (``to_float`` may
    cancel): three times that widens its margin, and four times that moves
    it out for the box, so the exact edges alone make the rectangle valid.
    """
    edges = tuple(map(float, rect.edges()))
    if rect.exact is None and not all(map(math.isfinite, edges)):
        raise ValueError("need finite edges, got [{}, {}) x [{}, {})".format(*edges))
    slack = (0.0,) * 4 if rect.exact is None else tuple(
        2.0**-49 * (abs(g.a) / q + abs(g.b) / q) for g, q in rect.exact)
    a, b, c, d = (e + side * m for e, side, m in zip(edges, (-1, 1, -1, 1), slack))
    beta = float(spec.beta)
    ratio = math.sqrt(d - c) / math.sqrt(b - a) if b - a > 0 and d - c > 0 else math.nan
    p = round(math.log(ratio) / math.log(_PHI)) if 0 < ratio < math.inf else math.inf  # as np.rint
    if not abs(p) <= _MAX_POWER:
        raise EnumerationCapError("reduced basis needs lattice indices beyond 2**52")
    box_x, box_s, row_sum, unit_x, unit_s, (u00, u01, u10, u11) = _ENTRIES[p + _MAX_POWER]
    kx, ks = box_x / beta, box_s / beta
    s_lo, s_hi = sorted((c * ks, d * ks))
    i_lo, i_hi = (a * kx + ALPHA_FLOAT * s_lo) / _DET, (b * kx + ALPHA_FLOAT * s_hi) / _DET
    j_lo, j_hi = (s_lo - ALPHA_FLOAT * (b * kx)) / _DET, (s_hi - ALPHA_FLOAT * (a * kx)) / _DET
    q = max(-i_lo, i_hi, -j_lo, j_hi)
    tol = q * _BOX_TOL + 2.0**-50
    try:
        i0, j0 = math.ceil(i_lo - tol), math.ceil(j_lo - tol)
        ni, nj = math.floor(i_hi + tol) + 1 - i0, math.floor(j_hi + tol) + 1 - j0
        cells = float(ni * nj)
    except (OverflowError, ValueError):  # inf or nan corners, or cells beyond the float range
        cells = math.inf
    if not cells <= _DEFAULT_CAP:
        raise EnumerationCapError(f"candidate boxes of {cells:.3g} cells exceed cap {_DEFAULT_CAP}")
    q += tol + 1
    if not row_sum * q < 2.0**51:
        _check_indices(_BASES[..., [p + _MAX_POWER]], [i0], [j0], [ni], [nj])
    kx, ks, mx, ms, usable = _filter(beta, unit_x, unit_s, row_sum, q)
    if not usable:  # every candidate near
        kx, ks, mx, ms = 0.0, 0.0, math.inf, math.inf
    lo, hi = ([e + side * (m + extra) for e, m, extra in zip(edges, (mx, mx, ms, ms), slack)]
              for side in (-1, 1))
    j = j0 + np.arange(nj, dtype=float)
    aj = ALPHA_FLOAT * j
    found = [np.zeros((0, 2), dtype=np.int64)]
    rows = _BLOCK // max(nj, 1) or 1
    for first in range(i0, i0 + ni, rows):
        i = first + np.arange(min(rows, i0 + ni - first), dtype=float)[:, None]
        x = (i - aj) * kx
        s = (ALPHA_FLOAT * i + j) * ks
        keep = (x >= hi[0]) & (x < lo[1]) & (s >= hi[2]) & (s < lo[3])
        near = ~(keep | (x < lo[0]) | (x > hi[1]) | (s < lo[2]) | (s > hi[3]))
        # (n, m) = basis @ (i, j); int64 products may wrap, the sums are indices < 2**52
        n0, m0 = u00 * first + u01 * j0, u10 * first + u11 * j0
        for mask in (keep, near) if near.any() else (keep,):
            di, dj = np.nonzero(mask)
            n, m = n0 + u00 * di + u01 * dj, m0 + u10 * di + u11 * dj
            inside = slice(None) if mask is keep else _exact_keep(
                Fraction(spec.beta), n, m, [rect.exact or edges] * n.size)
            found.append(np.column_stack([n[inside], m[inside]]))
    idx = np.concatenate(found)
    return idx[np.lexsort((idx[:, 1], idx[:, 0]))]


def count_in_rect(spec: LatticeSpec, rect: Rect) -> int:
    """Cardinality of beta*Gamma intersected with ``rect``."""
    return len(enumerate_in_rect(spec, rect))


def count_rects(beta: float, a, b, c, d) -> np.ndarray:
    """Counts of beta*Gamma in the rectangles [a, b) x [c, d), given as 1-D
    arrays of float edges, with the membership of ``enumerate_in_rect``.

    Every rectangle's reduced basis is a power of the unit's index matrix,
    so each costs about as many candidates as a square of its area,
    whatever its aspect ratio.  The float filter of ``_blocks`` decides
    all candidates but the few near an edge, which ``_exact_keep`` decides
    for the edges and beta read as dyadic rationals, and each block adds
    its counts to those of its rectangles.

    Working memory: about 18 floats per rectangle besides the edges, plus
    a few arrays of ``_BLOCK``.  The peak sets the time of a warm call too:
    the allocator gives freed heap back, and each call faults it in again.
    """
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    counts = np.zeros(a.size, dtype=np.int64)
    for owner, t, lo, nj, keep, near in _blocks(beta, a, b, c, d):
        inside = keep.sum(axis=0)
        if near.any():
            # the indices (n, m) of the near candidates: one column per box
            cand, rows = np.nonzero(near)
            i, j = lo[0, rows] + cand // nj, lo[1, rows] + cand % nj
            u = np.take(_BASES, t[rows], axis=2)
            n, m = u[0, 0] * i + u[0, 1] * j, u[1, 0] * i + u[1, 1] * j
            o = owner[rows]
            kept = _exact_keep(Fraction(beta), n, m, zip(*(e[o].tolist() for e in (a, b, c, d))))
            inside += np.bincount(rows[kept], minlength=owner.size)
        # the pieces of one cut box may share a block
        np.add.at(counts, owner, inside)
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
        a, b, c, d = map(np.concatenate, zip(
            _random_rects(rng, area, trials, aspect_range, center_range),
            _anchored_rects(rng, area, n_sweep, aspect_range, anchor_mode)))
    # a side far below the spacing of floats at the centre range rounds to
    # 0 (a + w == a), and one beyond the float range overflows
    for side, edge, lo, hi in (("width", "left", a, b), ("height", "lower", c, d)):
        length = hi - lo
        bad = ~((length > 0) & (length < math.inf))
        if bad.any():
            k = int(bad.argmax())
            how = "rounds to 0" if length[k] == 0 else "leaves the float range"
            raise FloatingPointError(f"area {area}: the {side} of the rectangle with "
                                     f"{edge} edge {float(lo[k])!r} {how}")
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


def diophantine_bound_holds(n: int, m: int) -> bool:
    """Exact test of |n*alpha + m| * (3 + 2*alpha) * |n| >= 1."""
    if n == 0:
        raise ValueError("n must be nonzero")
    g = GoldenNumber(m, n)
    sgn = g.sign()
    lhs = GoldenNumber(3, 2) * (g * (sgn * abs(n)))
    return (lhs - GoldenNumber(1, 0)).sign() >= 0
