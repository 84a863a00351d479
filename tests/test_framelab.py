import math

import numpy as np
import pytest

import goldwave.framelab
import goldwave.wavelet
from goldwave.covering import beta_for_delta
from goldwave.framelab import (
    RankDeficiencyError,
    _band_gram,
    _cholesky_floor,
    _match_dyadic_density,
    SampleSet,
    analysis,
    compare_schemes,
    comparison_to_csv,
    dyadic_sample_set,
    estimate_bounds,
    frame_operator_apply,
    golden_sample_set,
    guard_band,
)
from goldwave.goldenring import ALPHA_FLOAT
from goldwave.lattice import LatticeSpec, Rect, count_in_rect
from goldwave.wavelet import (
    _BLOCK_COEFFS,
    MotherWavelet,
    SignalModel,
    _atom_blocks,
    _atom_matrix,
    atom_spectrum,
    cauchy_wavelet,
    cwt,
    gaussian_bump_wavelet,
    normalize_tight,
)


W = cauchy_wavelet(6.0)


def small_setup(n=1024, duration=1024.0, smax=0.1, octaves=6.0):
    model = SignalModel.zeros(n, duration)
    region = Rect(0.0, duration, smax / 2.0**octaves, smax)
    band = guard_band(W, region, model)
    return model, region, band


def random_signal(rng, model):
    c = rng.standard_normal(model.length // 2 - 1) + 1j * rng.standard_normal(
        model.length // 2 - 1
    )
    return SignalModel(model.length, model.duration, c)


def oracle_atoms(w, points, model, band=None):
    """Atom rows from ``atom_spectrum``, independent of the factored
    builder, on the bins of band (all by default), and a bound on the
    oracle's own rounding of each coefficient: four roundings of 2**-53
    each of the phase 2*pi*x*j/T, from x*j/T before its reduction to whole
    turns."""
    j_lo, j_hi = band or (1, model.length // 2 - 1)
    atoms = np.array([atom_spectrum(w, x, s, model)[j_lo - 1 : j_hi] for x, s in points])
    phase = 2 * np.pi * np.outer(points[:, 0], np.arange(j_lo, j_hi + 1)) / model.duration
    return atoms, 4 * 2.0**-53 * phase * np.abs(atoms)


# ---------------------------------------------------------------------------
# sample sets


def test_golden_set_matches_enumeration_and_density():
    region = Rect(0.0, 100.0, 0.5, 2.0)
    beta = beta_for_delta(0.5)
    sset = golden_sample_set(0.5, region)
    assert len(sset) == count_in_rect(LatticeSpec(beta=beta), region)
    expected = region.area / (beta**2 * (2 - ALPHA_FLOAT))
    assert abs(len(sset) - expected) / expected < 0.05
    assert np.all(sset.points[:, 1] > 0)


def test_golden_set_rejects_lower_half_region():
    with pytest.raises(ValueError):
        golden_sample_set(0.5, Rect(0.0, 10.0, -1.0, 1.0))


def test_delta_is_checked_before_any_solve(monkeypatch):
    region = Rect(0.0, 100.0, 0.5, 2.0)
    with pytest.raises(ValueError, match="delta"):
        golden_sample_set(-1.0, region, beta=0.3)  # also when beta is given
    model, region, band = small_setup()
    solves = []
    monkeypatch.setattr(goldwave.framelab, "estimate_bounds", lambda *a: solves.append(a))
    with pytest.raises(ValueError, match="delta"):
        compare_schemes([0.5, -1.0], W, model, region, band)
    assert solves == []


def test_golden_set_empty_flagged_not_fatal():
    sset = golden_sample_set(0.5, Rect(0.0, 0.2, 0.5, 0.7), beta=1000.0)
    assert sset.empty
    assert len(sset) == 0


def test_dyadic_counts_small_region():
    sset = dyadic_sample_set(2.0, 1.0, Rect(0.0, 8.0, 0.9, 4.1))
    assert len(sset) == 56  # 8 + 16 + 32 at scales 1, 2, 4
    scales = sorted(set(sset.points[:, 1]))
    assert scales == [1.0, 2.0, 4.0]


def test_dyadic_halving_b_doubles_count():
    region = Rect(0.0, 32.0, 0.9, 4.1)
    n1 = len(dyadic_sample_set(2.0, 1.0, region))
    n2 = len(dyadic_sample_set(2.0, 0.5, region))
    assert n2 == 2 * n1


def test_dyadic_empty_region_flagged():
    sset = dyadic_sample_set(2.0, 1.0, Rect(0.0, 8.0, 1.1, 1.9))  # no power of 2
    assert sset.empty


def test_dyadic_half_open_rule_has_no_slack():
    # 4 * b = 8 - 8e-13 lies inside [0, 8); a slack of 1e-12 on l < 8 / b
    # dropped it
    b = 2 * (1 - 1e-13)
    sset = dyadic_sample_set(2.0, b, Rect(0.0, 8.0, 0.9, 1.1))
    assert len(sset) == 5
    assert sset.points[-1, 0] == 4 * b < 8.0
    # scales: c <= a**j < d, so 1 is in and 4 is out
    sset = dyadic_sample_set(2.0, 1.0, Rect(0.0, 8.0, 1.0, 4.0))
    assert sorted(set(sset.points[:, 1])) == [1.0, 2.0]
    assert len(sset) == 24


def test_dyadic_validation():
    with pytest.raises(ValueError):
        dyadic_sample_set(1.0, 1.0, Rect(0.0, 8.0, 0.9, 4.1))
    with pytest.raises(ValueError):
        dyadic_sample_set(2.0, 0.0, Rect(0.0, 8.0, 0.9, 4.1))
    for c in (-1.0, 0.0):
        with pytest.raises(ValueError, match="upper half-plane"):
            dyadic_sample_set(2.0, 1.0, Rect(0.0, 8.0, c, 4.1))


def test_sample_set_rejects_nonpositive_scales():
    with pytest.raises(ValueError):
        SampleSet(np.array([[0.0, -1.0]]), {})
    for bad in (np.nan, np.inf, -np.inf):
        for point in ([bad, 1.0], [0.0, bad]):
            with pytest.raises(ValueError):
                SampleSet(np.array([point]), {})


def test_sample_sets_and_cwt_take_only_k_by_2_points():
    f = SignalModel.zeros(64, 64.0)
    pairs = np.array([[1.0, 0.1], [2.0, 0.2], [3.0, 0.3], [4.0, 0.4]])
    # transposed coordinates, xs over ss, one bare pair, pairs of the wrong width
    for bad in (pairs.reshape(2, 4), pairs.T, pairs[0], pairs[:3].T, np.zeros((0, 3))):
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            SampleSet(bad, {})
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            cwt(f, W, bad)
    for empty in (np.zeros((0, 2)), []):
        assert len(SampleSet(empty, {})) == 0 and cwt(f, W, empty).size == 0


def test_framelab_keeps_out_of_the_atom_layout():
    # T f and S f come from wavelet._Atoms; framelab sees no factor or row layout
    layout = {"_atom_factors", "_atom_matrix", "_cauchy_cwt", "_row_blocks"}
    assert not layout & set(vars(goldwave.framelab))


# ---------------------------------------------------------------------------
# operators


def test_analysis_matches_cwt():
    rng = np.random.default_rng(0)
    model, region, _ = small_setup()
    f = random_signal(rng, model)
    sset = golden_sample_set(1.0, region)
    assert np.array_equal(analysis(f, sset, W), cwt(f, W, sset.points))
    empty = SampleSet(np.zeros((0, 2)), {})
    assert analysis(f, empty, W).size == 0


def test_frame_operator_quadratic_form_identity():
    rng = np.random.default_rng(1)
    model, region, _ = small_setup()
    sset = golden_sample_set(0.7, region)
    for _ in range(10):
        f = random_signal(rng, model)
        sf = frame_operator_apply(f, sset, W)
        lhs = sf.inner(f).real
        rhs = float(np.sum(np.abs(analysis(f, sset, W)) ** 2))
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)


def test_frame_operator_self_adjoint_positive():
    rng = np.random.default_rng(2)
    model, region, _ = small_setup()
    sset = golden_sample_set(0.7, region)
    for _ in range(10):
        f = random_signal(rng, model)
        g = random_signal(rng, model)
        sf, sg = frame_operator_apply(f, sset, W), frame_operator_apply(g, sset, W)
        asym = abs(sf.inner(g) - f.inner(sg))
        assert asym <= 1e-10 * f.norm() * g.norm()
        assert sf.inner(f).real >= -1e-12


def test_frame_operator_blocks_match_one_product():
    # a Gaussian bump takes the dense path, which sums over blocks of atom rows
    bump = gaussian_bump_wavelet()
    rng = np.random.default_rng(12)
    model, region, _ = small_setup()
    sset = golden_sample_set(0.35, region)
    rows = [r for r, _ in _atom_blocks(bump, sset.points, model)]
    assert len(rows) > 2  # several blocks
    assert rows[-1].stop > len(sset)  # a partial last block
    atoms = _atom_matrix(bump, sset.points, model)
    f = random_signal(rng, model)
    ref = atoms.T @ (atoms.conj() @ f.coeffs)
    sf = frame_operator_apply(f, sset, bump).coeffs
    assert np.max(np.abs(sf - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, npts", [(64, 40), (1024, 100), (16384, 200)])
@pytest.mark.parametrize("p", [6.0, 10.0, 25.0])
@pytest.mark.parametrize("tight", [False, True])
def test_factored_cauchy_atoms_match_dense(n, npts, p, tight):
    """cwt and the frame operator of a Cauchy wavelet, which never build
    atoms, against atom rows from ``atom_spectrum``: to 1e-12 of
    |f| * |atom| per coefficient, and of its sum over the points for S f,
    plus the oracle's own phase rounding.  At n = 64 the 31 bins leave a
    partial last coarse row."""
    w = normalize_tight(cauchy_wavelet(p, normalize=False)) if tight else cauchy_wavelet(p)
    assert w.cauchy_order == p
    rng = np.random.default_rng([n, int(p)])
    t = float(n)
    model = SignalModel.zeros(n, t)
    f = random_signal(rng, model)
    x = np.concatenate([rng.uniform(0.0, t, npts - 2), [0.0, t - 1e-12]])
    # the profile peaks at xi = p: scales putting it anywhere from bin 1 to bin n/2
    s = np.exp(rng.uniform(0.0, math.log(n / 2), npts)) / (t * p)
    sset = SampleSet(np.column_stack([x, s]), {})
    atoms, err = oracle_atoms(w, sset.points, model)
    norms = np.linalg.norm(atoms, axis=1)
    # the oracle's error in <f, atom>, by Cauchy-Schwarz
    row_err = np.linalg.norm(err, axis=1)
    got = cwt(f, w, sset.points)
    assert np.all(np.abs(got - atoms.conj() @ f.coeffs)
                  <= (1e-12 * norms + row_err) * f.norm())
    sf = frame_operator_apply(f, sset, w).coeffs
    ref = atoms.T @ (atoms.conj() @ f.coeffs)
    tol = f.norm() * ((1e-12 * norms + row_err) @ np.abs(atoms) + norms @ err)
    assert np.all(np.abs(sf - ref) <= tol)


def test_only_cauchy_wavelets_skip_the_atom_matrix(monkeypatch):
    rng = np.random.default_rng(13)
    model, region, _ = small_setup()
    sset = golden_sample_set(0.7, region)
    f = random_signal(rng, model)
    # the dense path is the blocked sum it always was, bit for bit
    bump = gaussian_bump_wavelet()
    fc = f.coeffs.conj()
    blocks = [a for _, a in _atom_blocks(bump, sset.points, model)]
    assert np.array_equal(cwt(f, bump, sset.points),
                          np.concatenate([a @ fc for a in blocks]).conj())
    dense_sf = np.zeros(fc.size, dtype=complex)
    for a in blocks:
        dense_sf += (a @ fc).conj() @ a
    assert np.array_equal(frame_operator_apply(f, sset, bump).coeffs, dense_sf)

    def no_atom_matrix(*args, **kwargs):
        raise AssertionError("atom matrix built")

    monkeypatch.setattr(goldwave.wavelet, "_atom_matrix", no_atom_matrix)
    assert cwt(f, W, sset.points).shape == (len(sset),)
    assert frame_operator_apply(f, sset, W).coeffs.shape == fc.shape
    # the family picks the path: the same profile without its order is dense
    unmarked = MotherWavelet(W.profile, W.profile_d1, W.profile_d2)
    with pytest.raises(AssertionError, match="atom matrix built"):
        cwt(f, unmarked, sset.points)
    with pytest.raises(AssertionError, match="atom matrix built"):
        frame_operator_apply(f, sset, unmarked)


def test_band_matrix_is_the_band_of_the_full_matrix():
    model, region, band = small_setup()
    sset = golden_sample_set(0.7, region)
    full, err = oracle_atoms(W, sset.points, model, band)
    m = _atom_matrix(W, sset.points, model, band)
    assert m.shape == full.shape
    scale = np.abs(full).max(axis=1, keepdims=True)
    assert np.all(np.abs(m - full) <= 1e-12 * scale + err)


def test_frame_operator_empty_set_is_zero():
    model, _, _ = small_setup()
    f = SignalModel(model.length, model.duration,
                    np.ones(model.length // 2 - 1, dtype=complex))
    out = frame_operator_apply(f, SampleSet(np.zeros((0, 2)), {}), W)
    assert np.all(out.coeffs == 0)


# ---------------------------------------------------------------------------
# the cached Cauchy factors of a sample set


def test_cached_factors_give_the_uncached_values():
    rng = np.random.default_rng(15)
    model, region, _ = small_setup()
    sset = golden_sample_set(0.35, region)
    for _ in range(3):
        f = random_signal(rng, model)
        fresh = golden_sample_set(0.35, region)
        u = analysis(f, sset, W)
        assert np.array_equal(u, cwt(f, W, sset.points))
        assert np.array_equal(u, analysis(f, fresh, W))
        assert np.array_equal(frame_operator_apply(f, sset, W).coeffs,
                              frame_operator_apply(f, golden_sample_set(0.35, region), W).coeffs)
    empty = SampleSet(np.zeros((0, 2)), {})
    for _ in range(2):  # built, then cached
        u = analysis(f, empty, W)
        assert u.dtype == complex and u.size == 0
        assert np.all(frame_operator_apply(f, empty, W).coeffs == 0)


def test_sample_set_builds_its_factors_once_per_key(monkeypatch):
    builds = []

    class Counted(goldwave.wavelet._Atoms):  # the sample set's builds; cwt's own are not counted
        def __init__(self, *args):
            builds.append(args[1:])
            super().__init__(*args)

    monkeypatch.setattr(goldwave.framelab, "_Atoms", Counted)
    rng = np.random.default_rng(16)
    model, region, _ = small_setup()
    sset = golden_sample_set(0.7, region)
    for i in range(10):
        f = random_signal(rng, model)
        (analysis if i % 2 else frame_operator_apply)(f, sset, W)
    assert len(builds) == 1
    # another wavelet, length or duration: one more build each, right answers
    w10 = cauchy_wavelet(10.0)
    short = SignalModel.zeros(512, model.duration)
    longer = SignalModel.zeros(model.length, 2 * model.duration)
    for w, m in ((w10, model), (W, short), (W, longer), (W, model)):
        f = random_signal(rng, m)
        for _ in range(2):  # built, then cached
            assert np.array_equal(analysis(f, sset, w), cwt(f, w, sset.points))
    assert len(builds) == 5  # one slot: going back to the first key rebuilds
    # dense wavelets keep no atoms: their entry holds no factors
    bump_set, bump = golden_sample_set(0.7, region), gaussian_bump_wavelet()
    analysis(f, bump_set, bump)
    frame_operator_apply(f, bump_set, bump)
    assert len(builds) == 6  # one more key, one more build
    assert bump_set._atoms_for(bump, f)._factors is None and len(builds) == 6


def test_sample_set_points_are_a_read_only_copy():
    pts = np.array([[1.0, 0.01], [2.0, 0.02]])
    sset = SampleSet(pts, {})
    with pytest.raises(ValueError):
        sset.points[0, 0] = 1.0
    pts[0, 0] = 5.0  # the caller's array stays writable, and apart
    assert sset.points[0, 0] == 1.0
    model, _, _ = small_setup()
    f = random_signal(np.random.default_rng(17), model)
    analysis(f, sset, W)
    for factor in sset._atoms_for(W, f)._factors:
        assert not factor.flags.writeable


# ---------------------------------------------------------------------------
# bound estimation


def test_estimate_bounds_sandwich_random_signals():
    rng = np.random.default_rng(3)
    model, region, band = small_setup()
    sset = golden_sample_set(0.5, region)
    est = estimate_bounds(sset, W, model, band)
    assert est.converged and est.lower > 0
    j_lo, j_hi = band
    for _ in range(30):
        c = np.zeros(model.length // 2 - 1, dtype=complex)
        c[j_lo - 1 : j_hi] = rng.standard_normal(j_hi - j_lo + 1) + 1j * rng.standard_normal(
            j_hi - j_lo + 1
        )
        f = SignalModel(model.length, model.duration, c)
        q = float(np.sum(np.abs(analysis(f, sset, W)) ** 2)) / f.norm() ** 2
        assert est.lower - 1e-6 <= q <= est.upper + 1e-6


def test_rank_deficiency_raises():
    model, region, band = small_setup()
    sset = golden_sample_set(0.5, region, beta=20.0)  # a handful of points
    with pytest.raises(RankDeficiencyError):
        estimate_bounds(sset, W, model, band)


def test_nested_sets_monotone_bounds():
    rng = np.random.default_rng(4)
    model, region, band = small_setup()
    big = golden_sample_set(0.5, region)
    keep = rng.random(len(big)) < 0.7
    small = SampleSet(big.points[keep], {"scheme": "subset"})
    e_small = estimate_bounds(small, W, model, band)
    e_big = estimate_bounds(big, W, model, band)
    tol = 1e-6
    assert e_small.upper <= e_big.upper * (1 + tol)
    assert e_small.lower <= e_big.lower * (1 + tol)


def test_dense_golden_ratio_near_tight():
    # far below the critical scale the normalized system is nearly tight
    model, region, band = small_setup()
    dense = golden_sample_set(0.25, region, beta=beta_for_delta(0.25) / 2.0)
    est = estimate_bounds(dense, W, model, band)
    assert est.converged
    assert 1.0 <= est.ratio <= 1.2


def _svd_bounds(sset, model, band):
    sv = np.linalg.svd(oracle_atoms(W, sset.points, model, band)[0], compute_uv=False)
    return sv[-1] ** 2, sv[0] ** 2


@pytest.mark.parametrize("delta", [0.35, 1.0])
def test_golden_bounds_match_dense_svd(delta):
    model, region, band = small_setup(n=4096, duration=4096.0, smax=0.06)
    sset = golden_sample_set(delta, region)
    est = estimate_bounds(sset, W, model, band)
    lower, upper = _svd_bounds(sset, model, band)
    assert est.lower == pytest.approx(lower, rel=1e-6)
    assert est.upper == pytest.approx(upper, rel=1e-6)
    assert est.converged


@pytest.mark.parametrize("n, smax", [(4096, 0.06), (512, 0.1)])
def test_compare_rows_match_dense_svd(n, smax):
    # the density-matched dyadic row at delta = 1 is the ill-conditioned one:
    # at N = 4096 its A is about 1e-6 against B about 30
    model, region, band = small_setup(n=n, duration=float(n), smax=smax)
    golden = golden_sample_set(1.0, region)
    dyadic = _match_dyadic_density(len(golden), 2.0**0.25, region)
    rows = compare_schemes([1.0], W, model, region, band)
    for row, sset in zip(rows, (golden, dyadic)):
        assert row["points"] == len(sset)
        lower, upper = _svd_bounds(sset, model, band)
        assert row["A"] == pytest.approx(lower, rel=1e-6)
        assert row["B"] == pytest.approx(upper, rel=1e-6)
        assert row["converged"] is True


def test_repeated_point_is_not_converged():
    # dim copies of one point pass the point-count check but have rank 1
    model, _, band = small_setup()
    dim = band[1] - band[0] + 1
    sset = SampleSet(np.tile([[100.0, 0.01]], (dim, 1)), {"scheme": "repeated"})
    est = estimate_bounds(sset, W, model, band)
    assert est.upper > 0
    assert est.converged is False
    assert est.lower <= est.diagnostics["resolution_floor"]


def test_repeated_point_bracket_is_not_positive():
    model, _, band = small_setup()
    dim = band[1] - band[0] + 1
    sset = SampleSet(np.tile([[100.0, 0.01]], (dim, 1)), {"scheme": "repeated"})
    est = estimate_bounds(sset, W, model, band)
    assert est.converged is False
    assert est.diagnostics["A_lo"] <= 0 <= est.upper <= est.diagnostics["B_hi"]


@pytest.mark.parametrize("w", [W, gaussian_bump_wavelet(1.0, 0.3)], ids=["cauchy", "bump"])
def test_blocked_gram_matches_one_product(w):
    from scipy.linalg import blas

    model, region, band = small_setup(n=4096, duration=4096.0, smax=0.06)
    dim = band[1] - band[0] + 1
    step = _BLOCK_COEFFS // dim
    pts = golden_sample_set(0.35, region).points
    assert len(pts) >= 3 * step + step // 3
    m = _atom_matrix(w, pts, model, band)
    assert m.T.flags.c_contiguous  # laid out bins x points, the points contiguous
    # fewer points than one block, exactly one, several with a short last one
    for npts in (step // 2, step, 3 * step + step // 3):
        dense = np.triu(blas.zherk(1.0, m[:npts].T))
        g, err = _band_gram(w, pts[:npts], model, band)
        norm = np.linalg.eigvalsh(dense, UPLO="U")[-1]
        assert np.abs(np.triu(g) - dense).max() <= 1e-14 * norm, npts
        # the rounding bound holds, and counts each block's extra sum
        assert np.linalg.norm(np.triu(g) - dense, 2) <= err
        trace = np.trace(dense).real
        assert err >= (npts + -(-npts // step) + 4) * 2.0**-53 * trace


def test_cholesky_floor_refuses_a_planted_negative_eigenvalue():
    model, region, band = small_setup(n=512, duration=512.0)
    g = _band_gram(W, golden_sample_set(0.35, region).points, model, band)[0]
    lam, vecs = np.linalg.eigh(g, UPLO="U")
    assert 0 < _cholesky_floor(g.copy(order="F"), lam[0]) <= lam[0]
    assert _cholesky_floor(-g, -lam[-1]) <= -lam[-1]
    # move the smallest eigenvalue to -1e-9 * B; every other one stays
    v = vecs[:, :1]
    planted = np.asfortranarray(g - (lam[0] + 1e-9 * lam[-1]) * (v @ v.conj().T))
    for claim in (lam[0], lam[1], 0.0):
        assert _cholesky_floor(planted.copy(order="F"), claim) == -math.inf


def test_cholesky_floor_stays_below_a_raised_eigenvalue():
    # [[16, 15], [15, 16]] has eigenvalues 1 and 31 exactly.  Cholesky alone
    # accepts some shifts a few ulps above 1, so a test without the slack
    # would certify them; the floor never exceeds 1, nor -31 for -g.
    from scipy.linalg import lapack

    g = np.array([[16.0, 15.0], [15.0, 16.0]], dtype=complex, order="F")
    claims = [1.0 + k * 2.0**-52 for k in range(400)]
    bare = [lapack.zpotrf(g - c * np.eye(2), clean=0)[1] == 0 for c in claims[1:5]]
    assert any(bare)
    floors = [_cholesky_floor(g.copy(order="F"), c) for c in claims]
    assert max(floors) <= 1.0 and floors[0] > 1.0 - 1e-12
    assert -31.0 - 1e-12 < _cholesky_floor(-g, -31.0) <= -31.0


def test_estimate_bounds_validation():
    model, region, band = small_setup()
    sset = golden_sample_set(0.5, region)
    with pytest.raises(ValueError):
        estimate_bounds(sset, W, model, (0, 10))  # band touches DC bin


def test_phase_space_translation_covariance():
    # shifting the whole set by a lattice vector leaves the spectrum alone
    # up to the model's periodization; a plain x-translation is exact
    rng = np.random.default_rng(5)
    model, region, band = small_setup()
    base = golden_sample_set(0.5, region)
    tau = 64.0
    shifted = SampleSet(base.points + np.array([tau, 0.0]), {"scheme": "shifted"})
    e0 = estimate_bounds(base, W, model, band)
    e1 = estimate_bounds(shifted, W, model, band)
    assert e0.upper == pytest.approx(e1.upper, rel=1e-6)
    assert e0.lower == pytest.approx(e1.lower, rel=1e-4)


# ---------------------------------------------------------------------------
# comparison


def test_compare_schemes_shape_and_density():
    model, region, band = small_setup()
    rows = compare_schemes([1.0, 0.5], W, model, region, band)
    assert len(rows) == 4
    assert [r["scheme"] for r in rows] == ["golden", "dyadic", "golden", "dyadic"]
    for g, d in zip(rows[::2], rows[1::2]):
        assert abs(d["points"] - g["points"]) / g["points"] <= 0.02
    lines = comparison_to_csv(rows).strip().splitlines()
    assert lines[0].startswith("delta,scheme,")
    assert len(lines) == 5


def test_guard_band_errors_when_empty():
    model = SignalModel.zeros(256, 256.0)
    with pytest.raises(ValueError):
        guard_band(W, Rect(0.0, 256.0, 0.01, 0.02), model, guard_octaves=4.0)
