import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldwave.covering import beta_for_delta, cell
from goldwave.goldenring import ALPHA_FLOAT, GoldenNumber, fibonacci
from goldwave.lattice import (
    LatticeSpec,
    Rect,
    audit_max_count,
    audit_min_count,
    count_in_rect,
    count_rects,
    diophantine_bound_holds,
    enumerate_in_rect,
    lattice_coords,
)
from goldwave.lattice import (
    _BASES,
    _BLOCK,
    EnumerationCapError,
    _anchored_rects,
    _blocks,
    _boxes,
    _positions,
    _random_rects,
)

AREA_MIN = 2.0 + ALPHA_FLOAT  # smallest area forcing a point
AREA_MAX = 1.0 / (3.0 + 2.0 * ALPHA_FLOAT)  # largest area capping at one point


def index_set(idx: np.ndarray) -> set:
    """The rows (n, m) of an enumeration, as a set of int pairs."""
    return set(map(tuple, idx.tolist()))


def dyadic(e: float) -> tuple[GoldenNumber, int]:
    """A float edge as the pair (g, q) of the dyadic rational g/q it is."""
    f = Fraction(e)
    return GoldenNumber(f.numerator, 0), f.denominator


def exact_member(beta: Fraction, n: int, m: int, edges) -> bool:
    """Exact membership of the point (n, m) of beta*Gamma in [a, b) x [c, d),
    the edges given as pairs (g, q) standing for g/q, g in Z[alpha].

    With beta = p/r, beta*v >= g/q is the sign of the golden integer
    p*q*v - r*g, for x = n - m*alpha and s = m + n*alpha.
    """
    p, r = beta.numerator, beta.denominator

    def at_least(v, edge):
        g, q = edge
        return (v * (p * q) - g * r).sign() >= 0

    x, s = GoldenNumber(n, -m), GoldenNumber(m, n)
    ea, eb, ec, ed = edges
    return (at_least(x, ea) and not at_least(x, eb)
            and at_least(s, ec) and not at_least(s, ed))


def exact_inside(beta, n, m, a, b, c, d) -> np.ndarray:
    """Membership of the points (n, m) of beta*Gamma, each in its own
    rectangle [a, b) x [c, d) (arrays of float edges, one per point), with
    the float edges and beta read as the dyadic rationals they are.

    A float pre-screen on the compensated coordinates decides the points
    farther from every edge than 1e-14 of the coordinate plus
    1e-25*beta*max(|n|, |m|), far above the error of those coordinates
    (under 4e-16 of the coordinate plus 2**-100*beta*max(|n|, |m|)); every
    other point gets exact_member.
    """
    n, m = np.asarray(n), np.asarray(m)
    x, s = lattice_coords(n, m)
    x, s = beta * x, beta * s
    cancel = 1e-25 * beta * np.maximum(np.abs(n), np.abs(m)) + 1e-300
    tx, ts = 1e-14 * np.abs(x) + cancel, 1e-14 * np.abs(s) + cancel
    inside = (x - tx >= a) & (x + tx < b) & (s - ts >= c) & (s + ts < d)
    outside = (x + tx < a) | (x - tx >= b) | (s + ts < c) | (s - ts >= d)
    a, b, c, d = (np.broadcast_to(e, n.shape) for e in (a, b, c, d))
    frac = Fraction(beta)
    for k in np.flatnonzero(~(inside | outside)).tolist():
        edges = [dyadic(float(e[k])) for e in (a, b, c, d)]
        inside[k] = exact_member(frac, int(n[k]), int(m[k]), edges)
    return inside


def brute_force(beta: Fraction, rect: Rect, radius: int) -> set:
    """Independent integer-box scan with exact membership tests of the
    float edges, read as exact rationals.

    The box is first screened in float: a pair is skipped only when it lies
    more than 1e-6 outside the rectangle, far above the ~1e-11 float error
    of these coordinates, and every pair that is kept gets the exact test.
    """
    edges = [dyadic(e) for e in rect.edges()]
    box = np.arange(-radius, radius + 1)
    ns, ms = np.meshgrid(box, box, indexing="ij")
    x = float(beta) * (ns - ms * ALPHA_FLOAT)
    s = float(beta) * (ms + ns * ALPHA_FLOAT)
    tol = 1e-6
    near = ((x >= rect.a - tol) & (x < rect.b + tol)
            & (s >= rect.c - tol) & (s < rect.d + tol))
    return {(n, m) for n, m in zip(ns[near].tolist(), ms[near].tolist())
            if exact_member(beta, n, m, edges)}


def test_lattice_coords_accuracy():
    # near-cancellation pairs: coordinates of convergent points are tiny but
    # must come out correctly rounded at double precision
    n, m = fibonacci(30), fibonacci(31)
    x, s = lattice_coords(np.array([n]), np.array([m]))
    exact = n - m * (math.isqrt(5 << 200) - (1 << 100)) / (1 << 101)
    assert abs(x[0] - (n - m * ALPHA_FLOAT)) < 1e-6  # raw float would be fine here
    # against high-precision reference
    import decimal

    decimal.getcontext().prec = 60
    alpha_ref = (decimal.Decimal(5).sqrt() - 1) / 2
    ref = decimal.Decimal(n) - decimal.Decimal(m) * alpha_ref
    assert abs(decimal.Decimal(float(x[0])) - ref) <= abs(ref) * decimal.Decimal("1e-12")


def test_rect_validation():
    # the message gives the edges and the rule, not the dataclass repr
    with pytest.raises(ValueError, match=r"^invalid rectangle \[1\.0, 0\.0\) x \[0\.0, 1\.0\): "
                                         r"need a < b and c < d$"):
        Rect(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 1.0, 1.0, 1.0)
    # an infinite edge makes a Rect, but neither counting path takes it
    with pytest.raises(ValueError, match="finite"):
        count_rects(1.0, np.zeros(1), np.full(1, math.inf), np.zeros(1), np.ones(1))
    with pytest.raises(ValueError, match="finite"):
        enumerate_in_rect(LatticeSpec(1.0), Rect(0.0, math.inf, 0.0, 1.0))
    with pytest.raises(TypeError, match="positive int"):
        Rect.from_exact((GoldenNumber(1, 0), 0), 1, 0, 1)
    # nor does an audit whose aspect range is inverted
    with pytest.raises(ValueError, match="aspect range"):
        audit_min_count(2.7, 10, aspect_range=(5.0, 1.0))
    r = Rect(-0.5, 0.5, -0.5, 0.5)
    assert r.area == pytest.approx(1.0)


def test_origin_rect_contains_origin():
    pts = enumerate_in_rect(LatticeSpec(beta=1), Rect(-0.5, 0.5, -0.5, 0.5))
    assert pts.tolist() == [[0, 0]]


def test_exact_membership_at_irrational_edge():
    # [1, 1 + eps) x [alpha, alpha + eps) must contain the point (n, m) = (1, 0)
    # whose coordinates are exactly (1, alpha); float edges cannot express that
    eps = Fraction(1, 10**9)
    alpha = GoldenNumber(0, 1)
    alpha_plus_eps = (GoldenNumber(1, 10**9), 10**9)  # (1 + 1e9*alpha) / 1e9
    rect = Rect.from_exact(1, 1 + eps, alpha, alpha_plus_eps)
    pts = enumerate_in_rect(LatticeSpec(beta=Fraction(1)), rect)
    assert pts.tolist() == [[1, 0]]
    # shifted to exclude the closed corner: empty
    rect2 = Rect.from_exact(1 - eps, 1, alpha, alpha_plus_eps)
    assert count_in_rect(LatticeSpec(beta=Fraction(1)), rect2) == 0


def test_known_count_unit_square_block():
    # [0, 10) x [0, 10): exhaustively verified integer-box count
    spec = LatticeSpec(beta=Fraction(1))
    rect = Rect.from_exact(0, 10, 0, 10)
    pts = enumerate_in_rect(spec, rect)
    assert len(pts) == 73
    assert index_set(pts) == brute_force(Fraction(1), rect, 25)


@given(st.integers(-40, 40), st.integers(-40, 40))
@settings(max_examples=60)
def test_group_invariance_exact(dn, dm):
    # translating the window by a lattice vector preserves the count exactly
    spec = LatticeSpec(beta=Fraction(1))
    base = Rect.from_exact(Fraction(-3, 2), Fraction(5, 2), Fraction(-2), Fraction(2))
    shift_x = GoldenNumber(dn, -dm)
    shift_s = GoldenNumber(dm, dn)
    moved = Rect.from_exact(
        (shift_x * 2 - 3, 2), (shift_x * 2 + 5, 2),
        shift_s - 2, shift_s + 2,
    )
    pts0 = enumerate_in_rect(spec, base)
    pts1 = enumerate_in_rect(spec, moved)
    assert index_set(pts0 + [dn, dm]) == index_set(pts1)


def test_rotation_invariance():
    # (n, m) -> (-m, n) maps the lattice to itself and (x, s) to (-s, x)
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, c = rng.uniform(-30, 30, 2)
        w, h = rng.uniform(0.5, 8, 2)
        r = Rect(a, a + w, c, c + h)
        rot = Rect(-(c + h), -c, a, a + w)
        pts = enumerate_in_rect(LatticeSpec(beta=1.0), r)
        pts_rot = enumerate_in_rect(LatticeSpec(beta=1.0), rot)
        # boundary coincidences have measure zero for random float edges
        assert index_set(np.column_stack([-pts[:, 1], pts[:, 0]])) == index_set(pts_rot)


def test_enumeration_matches_brute_force_random():
    rng = np.random.default_rng(17)
    for _ in range(150):
        beta = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        cx, cy = rng.uniform(-50, 50, 2)
        w = float(rng.uniform(0.1, 8))
        h = float(rng.uniform(0.1, 8))
        rect = Rect(cx, cx + w, cy, cy + h)
        got = index_set(enumerate_in_rect(LatticeSpec(beta=beta), rect))
        bf = float(beta)
        radius = int((max(abs(cx) + w, abs(cy) + h) / bf) * 1.7 + 5)
        if radius > 400:
            continue
        assert got == brute_force(beta, rect, radius)


def strictly_increasing_rows(idx: np.ndarray) -> bool:
    step = np.diff(idx, axis=0)
    return bool(np.all((step[:, 0] > 0) | ((step[:, 0] == 0) & (step[:, 1] > 0))))


def test_enumeration_lists_each_index_once_in_order():
    # the set comparisons above would hide a duplicate; golden_sample_set
    # relies on one entry per index, sorted by (n, m)
    assert enumerate_in_rect(LatticeSpec(beta=1.0), Rect(0.1, 0.2, 0.1, 0.2)).shape == (0, 2)
    for spec, rect, at_least in (
        # a 600 x 600 box, checked in several _BLOCK pieces
        (LatticeSpec(beta=1.0), Rect(-300.0, 300.0, -300.0, 300.0), 2 * _BLOCK),
        (LatticeSpec(beta=Fraction(1)), Rect.from_exact(-10, 10, -10, 10), 200),
    ):
        idx = enumerate_in_rect(spec, rect)
        assert len(idx) > at_least
        assert strictly_increasing_rows(idx)


def test_enumeration_is_an_int64_index_array():
    # float path: one (k, 2) int64 array per rectangle, k as count_rects counts
    rng = np.random.default_rng(23)
    a, c = rng.uniform(-40.0, 40.0, (2, 40))
    w, h = np.exp(rng.uniform(-3.0, 3.0, (2, 40)))
    counts = count_rects(0.8, a, a + w, c, c + h)
    assert counts.max() > 1
    for r in range(a.size):
        idx = enumerate_in_rect(LatticeSpec(beta=0.8), Rect(a[r], a[r] + w[r], c[r], c[r] + h[r]))
        assert idx.dtype == np.int64 and idx.shape == (counts[r], 2)
        assert strictly_increasing_rows(idx)
    # exact path: rational beta and exact edges, one of them in Z[alpha]
    tenth = Fraction(1, 10)
    for beta, rect, k in (
        (Fraction(3, 4), Rect.from_exact(-7, 9, Fraction(-5, 2), 6), 175),
        (Fraction(1), Rect.from_exact(-9, 9, GoldenNumber(0, 1), (GoldenNumber(9, 1), 1)), 117),
        (Fraction(1), Rect.from_exact(tenth, 2 * tenth, tenth, 2 * tenth), 0),
    ):
        idx = enumerate_in_rect(LatticeSpec(beta=beta), rect)
        assert idx.dtype == np.int64 and idx.shape == (k, 2)
        assert strictly_increasing_rows(idx)


def test_extreme_aspect_rectangles():
    # a 1e8 x 1e-7 sliver: reduced-basis enumeration must stay exact and fast
    spec = LatticeSpec(beta=1.0)
    rect = Rect(0.0, 1e8, 0.25, 0.25 + 1e-7)
    pts = enumerate_in_rect(spec, rect)
    x, s = lattice_coords(*pts.T)
    assert np.all((x >= 0) & (x < 1e8) & (s >= 0.25) & (s < 0.25 + 1e-7))
    # cross-check against the batch counter
    n = count_rects(1.0, np.array([0.0]), np.array([1e8]),
                    np.array([0.25]), np.array([0.25 + 1e-7]))
    assert n[0] == len(pts)


def test_reduced_bases_closed_form():
    # V**-j from the unit phi: a basis (|det| = 1) that is reduced
    # (|mu| <= 1/2) in the frame (x*k, s/k), over 26 decades of k
    phi = (1 + math.sqrt(5)) / 2

    def power(k):  # j = rint(log_phi k), as _boxes takes it
        with np.errstate(divide="ignore"):
            return np.rint(np.log(k) / math.log(phi))

    rng = np.random.default_rng(5)
    k = np.exp(rng.uniform(math.log(1e-13), math.log(1e13), 20000))
    k = np.concatenate([k, [phi**0.5, phi**-0.5, 1.0]])
    u = _BASES[..., _positions(power(k))]
    assert u.shape == (2, 2, k.size) and u.dtype == np.int64
    assert (np.abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]) == 1).all()
    x, s = lattice_coords(u[0], u[1])
    x, s = x * k, s / k
    mu = (x[0] * x[1] + s[0] * s[1]) / (x * x + s * s).min(axis=0)
    assert np.abs(mu).max() <= 0.5 + 1e-3
    for bad in (1e20, 0.0, math.inf):
        with pytest.raises(EnumerationCapError):
            _positions(power(np.array([bad])))


def test_count_rects_agrees_with_enumeration():
    rng = np.random.default_rng(3)
    a = rng.uniform(-200, 200, 300)
    c = rng.uniform(-200, 200, 300)
    w = np.exp(rng.uniform(math.log(0.05), math.log(30), 300))
    h = (2 + ALPHA_FLOAT) / w
    counts = count_rects(0.7, a, a + w, c, c + h)
    for i in range(0, 300, 17):
        rect = Rect(float(a[i]), float(a[i] + w[i]), float(c[i]), float(c[i] + h[i]))
        assert counts[i] == count_in_rect(LatticeSpec(beta=0.7), rect)
    assert_exact(0.7, a, a + w, c, c + h)


def test_count_rects_on_x_translates():
    xs = np.linspace(-40, 40, 500)
    counts = count_rects(0.618, xs, xs + 2.5, np.full(500, 1.0), np.full(500, 2.2))
    for i in range(0, 500, 31):
        rect = Rect(float(xs[i]), float(xs[i] + 2.5), 1.0, 2.2)
        assert counts[i] == count_in_rect(LatticeSpec(beta=0.618), rect)
    assert_exact(0.618, xs, xs + 2.5, np.full(500, 1.0), np.full(500, 2.2))


def index_scan_count(rect: Rect, beta: float = 1.0, pad: int = 2) -> int:
    """Points of beta*Gamma in ``rect`` from an unreduced scan: the box of
    indices (n, m) = ((x + alpha*s), (s - alpha*x)) / (beta*(1 + alpha**2))
    over the corners, padded by ``pad``, decided by exact_inside."""
    corners = [(x / beta, s / beta) for x in (rect.a, rect.b) for s in (rect.c, rect.d)]
    ns = [(x + ALPHA_FLOAT * s) / (2 - ALPHA_FLOAT) for x, s in corners]
    ms = [(s - ALPHA_FLOAT * x) / (2 - ALPHA_FLOAT) for x, s in corners]
    n, m = np.meshgrid(np.arange(math.floor(min(ns)) - pad, math.ceil(max(ns)) + pad + 1),
                       np.arange(math.floor(min(ms)) - pad, math.ceil(max(ms)) + pad + 1))
    return int(exact_inside(beta, n.ravel(), m.ravel(), *rect.edges()).sum())


@pytest.mark.parametrize("mode", ["min", "max"])
@pytest.mark.parametrize("aspect", [1e3, 1e5])
def test_count_rects_on_anchored_rects(mode, aspect):
    # lattice points on (or 1e-9 off) the edges, the audits' adversarial set
    rng = np.random.default_rng(8)
    for area in (AREA_MIN, AREA_MAX):
        a, b, c, d = _anchored_rects(rng, area, 400, (1 / aspect, aspect), mode)
        counts = count_rects(1.0, a, b, c, d)
        for i in range(0, 400, 7):
            rect = Rect(float(a[i]), float(b[i]), float(c[i]), float(d[i]))
            assert counts[i] == count_in_rect(LatticeSpec(beta=1.0), rect)
            assert counts[i] == index_scan_count(rect)
        assert_exact(1.0, a, b, c, d)


def test_count_rects_on_extreme_cover_cells():
    # rows |l| = 30 at delta = 1: cells of aspect ratio ~1e26
    beta = beta_for_delta(1.0)
    for l in (-30, 30):
        rects = [cell(1.0, k, l) for k in range(-40, 41)]
        a, b, c, d = (np.array(v) for v in zip(*(r.edges() for r in rects)))
        counts = count_rects(beta, a, b, c, d)
        assert counts.min() >= 1 and counts.max() <= 12
        assert counts.tolist() == [count_in_rect(LatticeSpec(beta=beta), r) for r in rects]
        assert_exact(beta, a, b, c, d)


def box_candidates(beta, a, b, c, d):
    """Every candidate (n, m) of the rectangles' boxes, with its rectangle."""
    t, lo, size, _ = _boxes(beta, a, b, c, d)
    cells = size[0] * size[1]
    owner = np.repeat(np.arange(a.size), cells)
    k = np.arange(owner.size) - np.repeat(np.cumsum(cells) - cells, cells)
    i = lo[0, owner] + k // size[1, owner]
    j = lo[1, owner] + k % size[1, owner]
    u = _BASES[..., t[owner]]
    return owner, u[0, 0] * i + u[0, 1] * j, u[1, 0] * i + u[1, 1] * j


def assert_exact(beta, a, b, c, d) -> None:
    """count_rects, and enumerate_in_rect on each rectangle alone, against
    the exact oracle: every candidate of every box decided by exact_inside,
    the points of each rectangle listed in (n, m) order."""
    owner, n, m = box_candidates(beta, a, b, c, d)
    inside = exact_inside(beta, n, m, a[owner], b[owner], c[owner], d[owner])
    owner, n, m = owner[inside], n[inside], m[inside]
    counts = np.bincount(owner, minlength=a.size)
    assert count_rects(beta, a, b, c, d).tolist() == counts.tolist()
    order = np.lexsort((m, n, owner))
    want = np.split(np.column_stack([n, m])[order], np.cumsum(counts)[:-1])
    spec = LatticeSpec(beta=beta)
    for r, rows in enumerate(want):
        got = enumerate_in_rect(spec, Rect(a[r], b[r], c[r], d[r]))
        assert got.dtype == np.int64 and np.array_equal(got, rows), r


@pytest.mark.parametrize("mode", ["min", "max"])
def test_float_filter_on_zero_nudge_anchored_rects(mode):
    # lattice points exactly on the edges (the audits' anchors, nudge 0)
    rng = np.random.default_rng(31)
    for area in (AREA_MIN, AREA_MAX, 10.0):
        w = np.sqrt(area * np.exp(rng.uniform(math.log(1e-5), math.log(1e5), 3000)))
        idx = rng.integers(-400, 401, size=(3000, 4))
        gx = idx[:, 0] - idx[:, 1] * ALPHA_FLOAT
        gs = idx[:, 2] + idx[:, 3] * ALPHA_FLOAT
        if mode == "min":
            a, b, c, d = gx - w, gx, gs - area / w, gs
        else:
            a, b, c, d = gx, gx + w, gs, gs + area / w
        assert_exact(1.0, a, b, c, d)


@pytest.mark.parametrize("centre", [1e3, 1e6, 1e9, 2.0**40])
@pytest.mark.parametrize("beta", [1.0, 0.7, 1.3e-3, 123.0])
def test_float_filter_at_plain_float_lattice_coordinates(centre, beta):
    # edges at beta*(n - m*alpha) and beta*(m + n*alpha) in plain float,
    # where the filter's own value lands on the edge; indices up to centre
    rng = np.random.default_rng(int(centre) % 1000 + int(beta * 10))
    k = 3000
    n, m, n2, m2 = rng.integers(-int(centre), int(centre) + 1, size=(4, k)).astype(float)
    gx = beta * (n - m * ALPHA_FLOAT)
    gs = beta * (m2 + n2 * ALPHA_FLOAT)
    area = beta**2 * np.exp(rng.uniform(math.log(0.2), math.log(30.0), k))
    w = np.sqrt(area * np.exp(rng.uniform(math.log(1e-3), math.log(1e3), k)))
    h = area / w
    # the lattice coordinate on a closed edge, an open edge, or inside
    side = rng.integers(0, 3, size=(2, k))
    a = np.where(side[0] == 0, gx, np.where(side[0] == 1, gx - w, gx - w * rng.uniform(size=k)))
    c = np.where(side[1] == 0, gs, np.where(side[1] == 1, gs - h, gs - h * rng.uniform(size=k)))
    b, d = a + w, c + h
    ok = (a < b) & (c < d)
    a, b, c, d = a[ok], b[ok], c[ok], d[ok]
    assert count_rects(beta, a, b, c, d).sum() > k
    assert_exact(beta, a, b, c, d)


def test_float_filter_on_extreme_cover_cells():
    # rows |l| = 30: indices near 1e13 cancel to coordinates near 1e-13
    for delta in (0.5, 1.0):
        rects = [cell(delta, k, l) for l in (-30, 30) for k in range(-60, 61)]
        a, b, c, d = (np.array(v) for v in zip(*(r.edges() for r in rects)))
        beta = beta_for_delta(delta)
        assert_exact(beta, a, b, c, d)


@pytest.mark.parametrize("beta", [1.0, 0.7, 1.3e-3, 123.0])
def test_float_filter_at_compensated_coordinates_of_large_indices(beta):
    # points near (F_k, F_{k+1}): indices up to 1e10 with x near alpha**k,
    # where plain float coordinates cancel; an edge sits on fl(beta*x_c),
    # x_c the compensated coordinate, within ulps of the exact beta*x
    rng = np.random.default_rng(int(beta * 1000))
    k = np.repeat(np.arange(10, 50), 40)
    fib = np.array([fibonacci(int(v)) for v in range(10, 52)], dtype=np.int64)
    n = fib[k - 10] + rng.integers(-3, 4, k.size)
    m = fib[k - 9] + rng.integers(-3, 4, k.size)
    x, s = lattice_coords(n, m)
    x *= beta
    s *= beta
    w = np.abs(x) * 10.0 ** rng.uniform(-1, 1, k.size)
    h = beta**2 * rng.uniform(0.3, 10, k.size) / w
    # the point on the closed left edge, the open right edge, the closed
    # bottom edge or the open top edge
    side = rng.integers(0, 4, k.size)
    u, v = rng.uniform(size=(2, k.size))
    a = np.select([side == 0, side == 1], [x, x - w], x - w * u)
    c = np.select([side == 2, side == 3], [s, s - h], s - h * v)
    b, d = a + w, c + h
    ok = (a < b) & (c < d)
    a, b, c, d = a[ok], b[ok], c[ok], d[ok]
    assert a.size > 1500
    assert_exact(beta, a, b, c, d)


def test_edges_on_the_float_product_of_a_lattice_coordinate():
    # the point (n, 0) at beta = 0.7 has x = n*beta exactly, and the closed
    # left edge a = fl(n*0.7) rounds it up or down: the point is in only
    # when a <= n*beta, which comparing fl(beta*x) with a cannot see
    beta = 0.7
    n = np.arange(1, 200)
    a = n * beta
    s = np.floor(beta * n * ALPHA_FLOAT)
    a, b, c, d = a, a + 1.3, s - 0.25, s + 1.75
    want = [index_scan_count(Rect(*e), beta) for e in zip(a, b, c, d)]
    assert count_rects(beta, a, b, c, d).tolist() == want
    assert [count_in_rect(LatticeSpec(beta=beta), Rect(*e)) for e in zip(a, b, c, d)] == want
    inside = [Fraction(float(e)) <= Fraction(beta) * k for e, k in zip(a, n.tolist())]
    assert 0 < sum(inside) < len(inside)  # both roundings occur
    for k, edges, want in zip(n.tolist(), zip(a, b, c, d), inside):
        assert ([k, 0] in enumerate_in_rect(LatticeSpec(beta=beta), Rect(*edges)).tolist()) == want


def test_exact_filter_matches_every_candidate_decided_exactly():
    # exact edges through lattice points with indices near 1e6, where the
    # float values of the edges and of beta are off by ulps: the point
    # P0 = (n0, m0) on the closed corner, P0 + (k, 0) on the open right edge
    # and P0 + (j, l) on the open top edge, both inside the other side's
    # range.  The filtered list equals the exact sign tests run on every
    # candidate of the box.
    rng = np.random.default_rng(41)
    for _ in range(100):
        p, q = (int(v) for v in rng.integers(1, 8, size=2))
        n0, m0 = (int(v) for v in rng.integers(-10**6, 10**6, size=2))
        k, l = (int(v) for v in rng.integers(1, 6, size=2))
        j = math.ceil(l * ALPHA_FLOAT)  # 0 < j - l*alpha < 1 <= k
        x0, s0 = GoldenNumber(p * n0, -p * m0), GoldenNumber(p * m0, p * n0)
        rect = Rect.from_exact((x0, q), (x0 + p * k, q), (s0, q), (s0 + GoldenNumber(p * l, p * j), q))
        beta = Fraction(p, q)
        _, n, m = box_candidates(float(beta), *(np.array([e]) for e in rect.edges()))
        keep = np.array([exact_member(beta, i, j, rect.exact) for i, j in zip(n.tolist(), m.tolist())])
        assert [n0, m0] in np.column_stack([n[keep], m[keep]]).tolist()
        want = sorted(zip(n[keep].tolist(), m[keep].tolist()))
        assert enumerate_in_rect(LatticeSpec(beta=beta), rect).tolist() == [list(v) for v in want]


def test_exact_filter_on_edges_whose_float_value_cancels():
    # g = F_k - F_{k+1}*alpha is within alpha**k of 0, but to_float cancels
    # coefficients near phi**k, so its float value may lie on the wrong
    # side of the origin; the filter must still leave the origin to the
    # exact test
    beta = Fraction(1)
    for k in range(20, 75):
        g = (GoldenNumber(fibonacci(k), -fibonacci(k + 1)), 1)
        for rect in (Rect.from_exact(g, 3, -2, 2), Rect.from_exact(-3, g, -2, 2),
                     Rect.from_exact(-2, 2, g, 3), Rect.from_exact(-2, 2, -3, g)):
            _, n, m = box_candidates(float(beta), *(np.array([e]) for e in rect.edges()))
            keep = np.array([exact_member(beta, i, j, rect.exact)
                             for i, j in zip(n.tolist(), m.tolist())])
            want = sorted(zip(n[keep].tolist(), m[keep].tolist()))
            assert enumerate_in_rect(LatticeSpec(beta=beta), rect).tolist() == [list(v) for v in want]


def test_float_filter_with_scales_beyond_the_float_range():
    # beta * phi**43 overflows: the filter leaves every candidate near,
    # without a RuntimeWarning
    edges = [np.array([v]) for v in (0.0, 1e9, 0.0, 1e-9)]
    assert count_rects(1e300, *edges).tolist() == [1]
    assert enumerate_in_rect(LatticeSpec(1e300), Rect(0.0, 1e9, 0.0, 1e-9)).tolist() == [[0, 0]]
    # so does beta below 2**-960, where beta*P may be subnormal
    assert_exact(1e-300, *(np.array([v]) for v in (-2e-300, 3e-299, 1e-300, 1.7e-299)))


@pytest.mark.parametrize("beta", [1.0, 0.7, 1.3e-3, 123.0])
def test_box_holds_the_lattice_point_on_its_closed_corner(beta):
    # the corner (a, c) on the float coordinates of a point: whenever the
    # point is in, the box's widening must cover the rounding of its corner
    # (a box widened by one ulp of its bound misses hundreds of these)
    rng = np.random.default_rng(int(beta * 10) + 2)
    k = 5000
    n, m = rng.integers(-10**6, 10**6, (2, k))
    a, c = (beta * v for v in lattice_coords(n, m))
    area = beta**2 * np.exp(rng.uniform(math.log(0.2), math.log(30.0), k))
    w = np.sqrt(area * np.exp(rng.uniform(math.log(1e-4), math.log(1e4), k)))
    b, d = a + w, c + area / w
    inside = exact_inside(beta, n, m, a, b, c, d)
    owner, cn, cm = box_candidates(beta, a, b, c, d)
    found = np.zeros(k, dtype=bool)
    found[owner[(cn == n[owner]) & (cm == m[owner])]] = True
    assert inside.sum() > k // 5 and (found | ~inside).all()


def test_box_of_a_small_rectangle_far_from_the_origin():
    # [x, x + 4) x [0, 1) holds about 3 points; its box is widened by a few
    # ulps of its index bound (1e-12 of it gives 897 x 897 at x = 1e15)
    for x, most in ((1e15, 16), (6e15, 100)):
        edges = [np.array([v]) for v in (x, x + 4, 0.0, 1.0)]
        assert _boxes(1.0, *edges)[2].prod() <= most
        want = index_scan_count(Rect(x, x + 4, 0.0, 1.0), pad=8)
        assert want >= 2 and count_rects(1.0, *edges).tolist() == [want]
        assert_exact(1.0, *edges)


def test_indices_below_2_52_with_large_box_coordinates():
    # a box of power 40 whose coordinates times its basis reach 2**62,
    # while every index stays below 2**23: both paths list its 3 points
    beta = 0.9620609394239744
    rect = Rect(-862954.3692644692, -862954.3692642367, 983022.3209488868, 19085286.73392891)
    want = [[1169367, 3343428], [4693945, 9046315], [6872254, 12570893]]
    assert enumerate_in_rect(LatticeSpec(beta), rect).tolist() == want
    assert count_rects(beta, *(np.array([e]) for e in rect.edges())).tolist() == [3]
    assert all(exact_member(Fraction(beta), n, m, [dyadic(e) for e in rect.edges()]) for n, m in want)
    assert_exact(beta, *(np.array([e]) for e in rect.edges()))


def test_indices_beyond_2_52_raise_on_both_paths():
    # at x = 6.3e15 the points of [x, x + 4) x [0, 1) have n near 4.6e15 > 2**52
    with pytest.raises(EnumerationCapError, match="2\\*\\*52"):
        count_rects(1.0, np.array([6.3e15]), np.array([6.3e15 + 4]), np.zeros(1), np.ones(1))
    with pytest.raises(EnumerationCapError, match="2\\*\\*52"):
        enumerate_in_rect(LatticeSpec(1.0), Rect(6.3e15, 6.3e15 + 4, 0.0, 1.0))


@pytest.mark.parametrize("beta", [1.0, 0.7, 1.3e-3, 123.0])
def test_one_rectangle_at_lattice_points_and_one_ulp_off(beta):
    # every edge on a float lattice coordinate beta*(n - m*alpha) or
    # beta*(m + n*alpha), or one ulp below or above it, on the closed or
    # on the open side
    rng = np.random.default_rng(int(beta * 100) + 7)
    k = 1500
    n, m, n2, m2 = rng.integers(-10**6, 10**6, size=(4, k)).astype(float)
    w, h = beta * np.exp(rng.uniform(-2.0, 2.0, (2, k)))
    gx, gs = (np.nextafter(g, g + rng.choice([-np.inf, 0.0, np.inf], k))
              for g in (beta * (n - m * ALPHA_FLOAT), beta * (m2 + n2 * ALPHA_FLOAT)))
    right, top = rng.integers(0, 2, (2, k)).astype(bool)
    a, c = np.where(right, gx - w, gx), np.where(top, gs - h, gs)
    assert_exact(beta, a, np.where(right, gx, gx + w), c, np.where(top, gs, gs + h))


def test_one_rectangle_with_more_candidates_than_a_block():
    # boxes of 4 to 9 pieces of at most _BLOCK candidates, square and long
    a, b = np.array([-300.0, -2e4, 17.3]), np.array([300.0, 2e4, 417.9])
    c, d = np.array([-300.0, 3.1, -250.2]), np.array([300.0, 8.6, 120.4])
    assert_exact(0.93, a, b, c, d)
    assert (_boxes(0.93, a, b, c, d)[2].prod(axis=0) > 2 * _BLOCK).all()


def test_batch_over_several_blocks_counts_each_rectangle_alone():
    # 400 rectangles of up to ~1e4 candidates: the batch spans many blocks
    # of at most _BLOCK candidates, and the largest boxes are cut
    rng = np.random.default_rng(29)
    area = np.exp(rng.uniform(0.0, math.log(6000.0), 400))
    w = np.sqrt(area * np.exp(rng.uniform(-4.0, 4.0, 400)))
    a, c = rng.uniform(-300.0, 300.0, (2, 400))
    b, d = a + w, c + area / w
    assert sum(1 for _ in _blocks(0.8, a, b, c, d)) > 40
    assert (_boxes(0.8, a, b, c, d)[2].prod(axis=0) > _BLOCK).any()
    spec = LatticeSpec(beta=0.8)
    assert count_rects(0.8, a, b, c, d).tolist() == [
        count_in_rect(spec, Rect(*e)) for e in zip(a, b, c, d)]


def peak_floats_per_rect(beta, a, b, c, d) -> float:
    """The most memory that one warm count_rects call holds at once, in
    float64s per rectangle, its inputs not counted."""
    count_rects(beta, a, b, c, d)
    tracemalloc.start()
    try:
        count_rects(beta, a, b, c, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 8 / a.size


def test_count_rects_working_memory():
    # 11,000 rectangles of a golden2 audit, and the 401 x 41 cells of a
    # cover audit at delta = 0.6: at most 30 floats per rectangle, since a
    # warm call faults its whole peak in again
    rects = _random_rects(np.random.default_rng(3), AREA_MIN, 11000, (1e-3, 1e3), 1e3)
    assert peak_floats_per_rect(1.0, *rects) <= 30
    cells = [cell(0.6, k, l).edges() for l in range(-20, 21) for k in range(-200, 201)]
    assert peak_floats_per_rect(beta_for_delta(0.6), *map(np.array, zip(*cells))) <= 30


def test_exact_rectangle_narrower_than_a_double():
    # exact edges 1e-30 apart round to one double (or to two in either
    # order); the rectangle is checked by its exact edges alone, and holds
    # the lattice point on its closed corner
    tiny = 10**30
    for n0, m0, beta in ((3, 5, Fraction(1)), (-700, 1200, Fraction(2, 3)), (10**6, -3, Fraction(5))):
        p, r = beta.numerator, beta.denominator
        x0, s0 = GoldenNumber(p * n0, -p * m0), GoldenNumber(p * m0, p * n0)
        rect = Rect.from_exact((x0, r), (x0 * tiny + r, r * tiny), (s0, r), (s0 * tiny + r, r * tiny))
        assert abs(rect.b - rect.a) < 1e-6 and abs(rect.d - rect.c) < 1e-6
        assert enumerate_in_rect(LatticeSpec(beta=beta), rect).tolist() == [[n0, m0]]
    # a width below the float range has no basis in the tables
    with pytest.raises(EnumerationCapError, match="reduced basis"):
        enumerate_in_rect(LatticeSpec(1), Rect.from_exact(0, Fraction(1, 10**330), 0, 1))


def test_count_rects_empty_batch():
    counts = count_rects(1.0, *(np.zeros(0) for _ in range(4)))
    assert counts.dtype == np.int64 and counts.shape == (0,)


def test_density():
    # asymptotic density is 1 / det(A) = 1 / (2 - alpha)
    n = count_in_rect(LatticeSpec(beta=1.0), Rect(-300.0, 300.0, -300.0, 300.0))
    expected = 600.0**2 / (2 - ALPHA_FLOAT)
    assert abs(n - expected) / expected < 1e-3


def test_audit_min_at_critical_area():
    audit = audit_min_count(AREA_MIN, 3000, seed=11)
    assert audit.min_count >= 1
    assert audit.trials >= 3000


def test_audit_max_at_critical_area():
    audit = audit_max_count(AREA_MAX, 3000, seed=11)
    assert audit.max_count <= 1
    assert audit.min_count >= 0


def test_audit_min_fails_below_critical_area():
    # strictly smaller area admits empty rectangles: the bound is sharp
    audit = audit_min_count(AREA_MIN * 0.8, 3000, seed=11)
    assert audit.min_count == 0


def test_audit_max_exceeds_above_critical_area():
    # well above the threshold a two-point rectangle is eventually found
    audit = audit_max_count(AREA_MAX * 5.0, 3000, seed=11)
    assert audit.max_count >= 2


def test_audit_reproducible():
    a1 = audit_min_count(AREA_MIN, 500, seed=4)
    a2 = audit_min_count(AREA_MIN, 500, seed=4)
    assert a1 == a2


def test_diophantine_bound_exact():
    for k in range(1, 41):
        assert diophantine_bound_holds(fibonacci(k), -fibonacci(k - 1))
    # generic pairs too
    for n in range(1, 60):
        for m in range(-60, 10):
            assert diophantine_bound_holds(n, m)
    with pytest.raises(ValueError):
        diophantine_bound_holds(0, 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(beta=0)
    with pytest.raises(ValueError):
        LatticeSpec(beta=-1.5)
