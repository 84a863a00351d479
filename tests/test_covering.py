import math

import numpy as np
import pytest

from goldwave.covering import audit_cover, beta_for_delta, cell, cell_index
from goldwave.goldenring import ALPHA_FLOAT


def test_cover_spec_validation():
    for delta in (0.0, -0.3, math.inf, math.nan):
        with pytest.raises(ValueError):
            cell(delta, 0, 0)
        with pytest.raises(ValueError):
            cell_index((1.0, 1.0), delta)
        with pytest.raises(ValueError):
            audit_cover(delta, k_range=(0, 0), l_range=(0, 0))


def test_cell_geometry():
    for delta in (0.25, 0.5, 1.0):
        for k, l in [(0, 0), (3, -2), (-7, 5)]:
            r = cell(delta, k, l)
            assert r.area == pytest.approx(delta**2, rel=1e-12)
            assert r.c == pytest.approx(math.exp(delta * l))
            assert r.d == pytest.approx(math.exp(delta * (l + 1)))


def test_cells_tile_without_overlap():
    # consecutive cells share edges exactly: [k w, (k+1) w) abut
    delta = 0.4
    r0 = cell(delta, 0, 2)
    r1 = cell(delta, 1, 2)
    assert r0.b == r1.a
    up = cell(delta, 0, 3)
    assert up.c == pytest.approx(r0.d)


def test_cell_index_roundtrip():
    rng = np.random.default_rng(0)
    for delta in (0.25, 0.3, 0.7):
        points = [(float(rng.uniform(-50, 50)), float(np.exp(rng.uniform(-6, 6))))
                  for _ in range(300)]
        # each cell's edges and the floats just below them, where a rounded
        # quotient can floor into the neighbouring cell
        ks = rng.integers(-10**6, 10**6, size=200).tolist()
        ls = rng.integers(-40, 40, size=200).tolist()
        for k, l in [(274, 14), *zip(ks, ls)]:
            r = cell(delta, k, l)
            xs = (r.a, r.b, math.nextafter(r.a, -math.inf), math.nextafter(r.b, -math.inf))
            points += [(x, s) for x in xs for s in (r.c, math.nextafter(r.d, -math.inf))]
        for x, s in points:
            r = cell(delta, *cell_index((x, s), delta))
            assert r.a <= x < r.b and r.c <= s < r.d, (delta, x, s)


def test_cell_index_rejects_lower_half():
    with pytest.raises(ValueError):
        cell_index((0.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        cell_index((1.0, -2.0), 0.5)
    for point in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="point must be finite"):
            cell_index(point, 0.5)


def test_beta_for_delta_invariant():
    # cells rescaled by 1/beta have the critical area 2 + alpha
    for delta in (0.1, 0.25, 0.5, 1.0, 2.0):
        beta = beta_for_delta(delta)
        assert delta**2 / beta**2 == pytest.approx(2 + ALPHA_FLOAT, rel=1e-12)
    with pytest.raises(ValueError):
        beta_for_delta(0.0)


def test_audit_cover_counts_bounded():
    audit = audit_cover(0.5, k_range=(-40, 40), l_range=(-8, 8))
    assert audit.min_count >= 1
    assert audit.max_count <= 12
    assert audit.cells_checked == 81 * 17
    assert sum(audit.histogram.values()) == audit.cells_checked
    assert audit.empty_cells == []


def test_audit_cover_flags_empty_cells_for_bad_beta():
    # a much too coarse lattice leaves cells empty; reported, not raised
    audit = audit_cover(0.5, beta=10.0, k_range=(-5, 5), l_range=(-2, 2))
    assert audit.min_count == 0
    assert len(audit.empty_cells) > 0


def test_audit_cover_rejects_bad_ranges():
    with pytest.raises(ValueError):
        audit_cover(0.5, k_range=(3, -3))
    with pytest.raises(ValueError):
        audit_cover(0.5, beta=-1.0)


def test_audit_matches_per_cell_enumeration():
    from goldwave.lattice import LatticeSpec, count_in_rect

    delta = 0.8
    beta = beta_for_delta(delta)
    audit = audit_cover(delta, k_range=(-6, 6), l_range=(-3, 3))
    total = 0
    for l in range(-3, 4):
        for k in range(-6, 7):
            total += count_in_rect(LatticeSpec(beta=beta), cell(delta, k, l))
    hist_total = sum(int(v) * int(c) for v, c in audit.histogram.items())
    assert total == hist_total


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0, 0.35, 2.759])
def test_audit_counts_exactly_the_cells(monkeypatch, delta):
    # the batch gets the edges of cell(delta, k, l) bit for bit, so
    # neighbouring cells share their seam and the audit tiles exactly; at
    # 2.759, delta**2 != delta * delta, and 14 of these 35 cells differed
    # when the audit squared delta on its own
    import goldwave.covering as covering

    seen = []
    count_rects = covering.count_rects
    monkeypatch.setattr(covering, "count_rects",
                        lambda beta, *edges: seen.append(edges) or count_rects(beta, *edges))
    k, l = (500, 30) if delta <= 1 else (3, 2)  # wider cells leave the 2**52 index range
    ks, ls = range(-k, k + 1), range(-l, l + 1)
    audit_cover(delta, k_range=(-k, k), l_range=(-l, l))
    got = np.column_stack(seen[0])
    expected = np.array([cell(delta, k, l).edges() for l in ls for k in ks])
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    a, b = (e.reshape(len(ls), len(ks)) for e in seen[0][:2])
    assert np.array_equal(b[:, :-1], a[:, 1:])
