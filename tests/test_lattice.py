import math
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
    diophantine_gap,
    enumerate_in_rect,
    lattice_coords,
)
from goldwave.lattice import _BLOCK, EnumerationCapError, _anchored_rects, _reduced_bases

AREA_MIN = 2.0 + ALPHA_FLOAT  # smallest area forcing a point
AREA_MAX = 1.0 / (3.0 + 2.0 * ALPHA_FLOAT)  # largest area capping at one point


def index_set(idx: np.ndarray) -> set:
    """The rows (n, m) of an enumeration, as a set of int pairs."""
    return set(map(tuple, idx.tolist()))


def brute_force(beta: Fraction, rect: Rect, radius: int) -> set:
    """Independent integer-box scan with exact membership tests.

    For edge e (a float, hence an exact rational) and beta = p/q, membership
    beta*(n - m*alpha) >= e is the sign of the golden integer
    p*e_den*n - q*e_num + (-p*e_den*m)*alpha.

    The box is first screened in float: a pair is skipped only when it lies
    more than 1e-6 outside the rectangle, far above the ~1e-11 float error
    of these coordinates, and every pair that is kept gets the exact test.
    """
    p, q = beta.numerator, beta.denominator
    out = set()
    ea, eb, ec, ed = (Fraction(e) for e in rect.edges())

    def at_least(num_int, num_alpha, e):
        v = GoldenNumber(p * e.denominator * num_int - q * e.numerator,
                         p * e.denominator * num_alpha)
        return v.sign() >= 0

    box = np.arange(-radius, radius + 1)
    ns, ms = np.meshgrid(box, box, indexing="ij")
    x = float(beta) * (ns - ms * ALPHA_FLOAT)
    s = float(beta) * (ms + ns * ALPHA_FLOAT)
    tol = 1e-6
    near = ((x >= rect.a - tol) & (x < rect.b + tol)
            & (s >= rect.c - tol) & (s < rect.d + tol))
    for n, m in zip(ns[near].tolist(), ms[near].tolist()):
        # x = beta*(n - m*alpha) in [ea, eb), s = beta*(m + n*alpha) in [ec, ed)
        if not at_least(n, -m, ea) or at_least(n, -m, eb):
            continue
        if not at_least(m, n, ec) or at_least(m, n, ed):
            continue
        out.add((n, m))
    return out


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
    with pytest.raises(ValueError):
        Rect(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 1.0, 1.0, 1.0)
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
    rng = np.random.default_rng(5)
    k = np.exp(rng.uniform(math.log(1e-13), math.log(1e13), 20000))
    k = np.concatenate([k, [phi**0.5, phi**-0.5, 1.0]])
    u = _reduced_bases(k)
    assert u.shape == (2, 2, k.size) and u.dtype == np.int64
    assert (np.abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]) == 1).all()
    x, s = lattice_coords(u[0], u[1])
    x, s = x * k, s / k
    mu = (x[0] * x[1] + s[0] * s[1]) / (x * x + s * s).min(axis=0)
    assert np.abs(mu).max() <= 0.5 + 1e-3
    for bad in (1e20, 0.0, math.inf):
        with pytest.raises(EnumerationCapError):
            _reduced_bases(np.array([bad]))


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


def test_count_rects_on_x_translates():
    xs = np.linspace(-40, 40, 500)
    counts = count_rects(0.618, xs, xs + 2.5, np.full(500, 1.0), np.full(500, 2.2))
    for i in range(0, 500, 31):
        rect = Rect(float(xs[i]), float(xs[i] + 2.5), 1.0, 2.2)
        assert counts[i] == count_in_rect(LatticeSpec(beta=0.618), rect)


def index_scan_count(rect: Rect) -> int:
    """Points of Gamma in ``rect`` from an unreduced scan: the box of indices
    (n, m) = ((x + alpha*s), (s - alpha*x)) / (1 + alpha**2) over the corners,
    padded by 2, with the same float membership."""
    corners = [(x, s) for x in (rect.a, rect.b) for s in (rect.c, rect.d)]
    ns = [(x + ALPHA_FLOAT * s) / (2 - ALPHA_FLOAT) for x, s in corners]
    ms = [(s - ALPHA_FLOAT * x) / (2 - ALPHA_FLOAT) for x, s in corners]
    n, m = np.meshgrid(np.arange(math.floor(min(ns)) - 2, math.ceil(max(ns)) + 3),
                       np.arange(math.floor(min(ms)) - 2, math.ceil(max(ms)) + 3))
    x, s = lattice_coords(n, m)
    return int(np.sum((x >= rect.a) & (x < rect.b) & (s >= rect.c) & (s < rect.d)))


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


def test_count_rects_on_extreme_cover_cells():
    # rows |l| = 30 at delta = 1: cells of aspect ratio ~1e26
    beta = beta_for_delta(1.0)
    for l in (-30, 30):
        rects = [cell(1.0, k, l).rect for k in range(-40, 41)]
        a, b, c, d = (np.array(v) for v in zip(*(r.edges() for r in rects)))
        counts = count_rects(beta, a, b, c, d)
        assert counts.min() >= 1 and counts.max() <= 12
        assert counts.tolist() == [count_in_rect(LatticeSpec(beta=beta), r) for r in rects]


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


def test_diophantine_gap_convergents():
    # convergent pairs realize the near-optimal gaps
    for k in range(2, 40):
        n, m = fibonacci(k), -fibonacci(k - 1)
        gap = diophantine_gap(n, m)
        assert gap >= 1.0 / ((3 + 2 * ALPHA_FLOAT) * n) * (1 - 1e-12)
        assert gap <= 1.0 / n  # convergents approximate well


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
