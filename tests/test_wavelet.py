import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from goldwave.framelab import SampleSet, analysis, guard_band
from goldwave.lattice import Rect
from goldwave.wavelet import (
    LogGrid,
    MotherWavelet,
    SignalModel,
    admissibility_constant,
    atom_spectrum,
    cauchy_wavelet,
    cwt,
    cwt_regular,
    decay_condition_report,
    gaussian_bump_wavelet,
    normalize_tight,
    _BLOCK_COEFFS,
    _WINDOW_FLOATS,
    _atom_matrix,
    _simpson,
)


def random_signal(rng, n=512, t=64.0):
    c = rng.standard_normal(n // 2 - 1) + 1j * rng.standard_normal(n // 2 - 1)
    return SignalModel(n, t, c)


# ---------------------------------------------------------------------------
# profiles and admissibility


def test_cauchy_admissibility_closed_form():
    # integral of x**(2p-1) e**(-2x) dx = Gamma(2p) / 2**(2p)
    for p in (6.0, 7.0, 9.0):
        w = cauchy_wavelet(p, normalize=False)
        oracle = math.gamma(2 * p) / 4**p
        assert admissibility_constant(w) == pytest.approx(oracle, rel=1e-10)


def test_normalize_tight():
    w = cauchy_wavelet(6.0)
    assert admissibility_constant(w) == pytest.approx(1.0, abs=1e-9)
    wn = normalize_tight(gaussian_bump_wavelet())
    assert admissibility_constant(wn) == pytest.approx(1.0, abs=1e-9)


def test_cauchy_rejects_low_order():
    with pytest.raises(ValueError):
        cauchy_wavelet(3.0)
    with pytest.raises(ValueError):
        cauchy_wavelet(5.999)
    with pytest.raises(ValueError, match="positive"):
        gaussian_bump_wavelet(center=0.0)


def test_profile_vanishes_on_negative_axis():
    w = cauchy_wavelet(6.0)
    xi = np.array([-3.0, -0.5, 0.0, 0.5])
    vals = w(xi)
    assert np.all(vals[:3] == 0.0)
    assert vals[3] > 0.0


def test_derivatives_match_finite_differences():
    w = cauchy_wavelet(6.0)
    xi = np.linspace(0.5, 20.0, 200)
    h = 1e-6 * xi
    fd1 = (w(xi + h) - w(xi - h)) / (2 * h)
    assert np.allclose(w.profile_d1(xi), fd1, rtol=1e-6, atol=1e-12)
    fd2 = (w.profile_d1(xi + h) - w.profile_d1(xi - h)) / (2 * h)
    assert np.allclose(w.profile_d2(xi), fd2, rtol=1e-6, atol=1e-12)


def test_admissibility_guards_truncation():
    # a profile that has not decayed by the grid edge must be refused
    flat = MotherWavelet(profile=lambda xi: np.where(xi > 0, 1.0, 0.0))
    with pytest.raises(ValueError):
        admissibility_constant(flat)


def test_grid_validation():
    with pytest.raises(ValueError):
        LogGrid(xi_min=2.0, xi_max=1.0)
    with pytest.raises(ValueError):
        LogGrid(n=4)


@pytest.mark.parametrize("n", [16, 17, 4096, 4097, 8193])
def test_simpson_matches_scipy(n):
    from scipy.integrate import simpson

    grid = LogGrid(1e-5, 60.0, n)
    u = grid.log_points()
    for y in (np.exp(-(u**2) / 8), np.exp(u - np.exp(u)), np.cos(3 * u) + 2):
        assert _simpson(y, grid.step) == pytest.approx(simpson(y, x=u), rel=1e-14, abs=0)


@pytest.mark.parametrize("w", [cauchy_wavelet(6.0), gaussian_bump_wavelet()],
                         ids=["cauchy6", "gaussian_bump"])
def test_quadratures_match_scipy(w):
    from scipy.integrate import simpson

    u = LogGrid().log_points()
    expected = simpson(np.abs(w(np.exp(u))) ** 2, x=u)
    assert admissibility_constant(w) == pytest.approx(expected, rel=1e-13, abs=0)
    report = decay_condition_report(w)
    u = report.grid.log_points()
    xi = np.exp(u)
    expected = simpson(np.maximum(xi**10, xi**-10.0) * np.abs(w(xi)) ** 2 * xi, x=u)
    assert report.l2_weighted == pytest.approx(expected, rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# decay conditions


def test_decay_cauchy6_passes():
    rep = decay_condition_report(cauchy_wavelet(6.0))
    assert rep.all_passed
    assert all(c.passed for c in rep.conditions)
    assert rep.l2_passed


def test_decay_low_order_fails_at_origin():
    # p = 3 constructed around the guard: the origin-side tail flag must trip
    p = 3.0
    raw = MotherWavelet(
        profile=lambda xi: np.where(xi > 0, np.abs(xi) ** p * np.exp(-np.abs(xi)), 0.0)
    )
    rep = decay_condition_report(raw)
    assert not rep.all_passed
    order0 = rep.conditions[0]
    assert order0.tail_sup_low > order0.threshold


def test_decay_gaussian_bump_passes():
    rep = decay_condition_report(gaussian_bump_wavelet(1.0, 0.1))
    assert rep.all_passed


def test_decay_grid_coarse_rejected():
    raw = MotherWavelet(
        profile=lambda xi: np.where(xi > 0, np.abs(xi) ** 6 * np.exp(-np.abs(xi)), 0.0)
    )
    with pytest.raises(ValueError):
        decay_condition_report(raw, grid=LogGrid(xi_min=1e-6, xi_max=80.0, n=33))


# ---------------------------------------------------------------------------
# signal model


def test_signal_model_validation():
    with pytest.raises(ValueError):
        SignalModel(100, 1.0, np.zeros(49, dtype=complex))  # not a power of two
    with pytest.raises(ValueError):
        SignalModel(64, -1.0, np.zeros(31, dtype=complex))
    with pytest.raises(ValueError):
        SignalModel(64, 1.0, np.zeros(30, dtype=complex))  # wrong length
    for duration in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SignalModel.zeros(64, duration)
    # refused before 8e14 bytes of coefficients are allocated (a MemoryError)
    for length in (3 * 2**45, -4):
        with pytest.raises(ValueError, match="power of two"):
            SignalModel.zeros(length, 1.0)


def test_cauchy_profile_is_zero_where_its_power_overflows():
    # xi**p overflows and exp(-xi) underflows: the true value is below the
    # float range, so 0 with no warning instead of inf * 0 = nan
    p, c = 6.0, 1.0
    w = cauchy_wavelet(p, normalize=False)
    xi = np.array([1e60, 1e300, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (w.profile, w.profile_d1, w.profile_d2):
            assert np.array_equal(f(xi), np.zeros(3))
    # elsewhere the values are the plain formulas, bit for bit
    xi = np.exp(np.linspace(math.log(1e-6), math.log(700.0), 2001))
    assert np.array_equal(w(xi), c * xi**p * np.exp(-xi))
    assert np.array_equal(w.profile_d1(xi), c * np.exp(-xi) * xi ** (p - 1) * (p - xi))
    assert np.array_equal(w.profile_d2(xi), c * np.exp(-xi) * xi ** (p - 2)
                          * (p * (p - 1) - 2 * p * xi + xi**2))


def test_cauchy_rejects_orders_without_a_finite_constant():
    with pytest.raises(ValueError, match="admissibility constant inf"):
        cauchy_wavelet(120.0)  # the constant overflows; c would be 1/sqrt(inf) = 0
    with pytest.raises(ValueError, match="not decayed"):
        cauchy_wavelet(100.0, normalize=False)


@pytest.mark.parametrize("p", [6.0, 10.0, 25.0])
def test_cauchy_profiles_are_the_plain_formulas(p):
    xi = np.exp(np.linspace(math.log(1e-6), math.log(700.0), 2001))
    c = 1.0 / math.sqrt(admissibility_constant(cauchy_wavelet(p, normalize=False)))
    for w, k in ((cauchy_wavelet(p, normalize=False), 1.0), (cauchy_wavelet(p), c)):
        assert np.array_equal(w(xi), k * xi**p * np.exp(-xi))
        assert np.array_equal(w.profile_d1(xi), k * np.exp(-xi) * xi ** (p - 1) * (p - xi))


# ---------------------------------------------------------------------------
# transform


def test_atom_self_correlation():
    w = cauchy_wavelet(6.0)
    model = SignalModel.zeros(1024, 128.0)
    x0, s0 = 40.0, 0.05
    atom = atom_spectrum(w, x0, s0, model)
    f = SignalModel(model.length, model.duration, atom)
    val = cwt(f, w, [(x0, s0)])[0]
    assert val == pytest.approx(np.vdot(atom, atom).real, rel=1e-12)


def test_disjoint_frequency_supports_give_zero():
    w = gaussian_bump_wavelet(1.0, 0.05)  # support [0.6, 1.4]
    model = SignalModel.zeros(1024, 128.0)
    coeffs = np.zeros(511, dtype=complex)
    coeffs[10] = 1.0  # bin 11, frequency 11/128 = 0.086
    f = SignalModel(1024, 128.0, coeffs)
    # at s = 1 the atom occupies [0.6, 1.4]: disjoint from the signal
    assert abs(cwt(f, w, [(3.0, 1.0)])[0]) < 1e-12


@pytest.mark.parametrize("n", [64, 4096])
@pytest.mark.parametrize(
    "w, xi_peak", [(cauchy_wavelet(6.0), 6.0), (gaussian_bump_wavelet(1.0, 0.1), 1.0)]
)
def test_atom_matrix_rows_match_atom_spectrum(n, w, xi_peak):
    rng = np.random.default_rng(n)
    t = n / 8.0
    model = SignalModel.zeros(n, t)
    x = np.concatenate([rng.uniform(0.0, t, 40), t - np.array([t / n, 1e-6, 1e-12])])
    # scales putting the profile's peak anywhere from the first to the last bin
    s = np.exp(rng.uniform(0.0, math.log(n / 2), x.size)) / (t * xi_peak)
    pts = np.column_stack([x, s])
    for band in (None, (n // 8, 3 * n // 8)):
        j_lo, j_hi = band or (1, n // 2 - 1)
        j = np.arange(j_lo, j_hi + 1)
        atoms = _atom_matrix(w, pts, model, band)
        assert atoms.shape == (x.size, j.size)
        for row, (xk, sk) in zip(atoms, pts):
            ref = atom_spectrum(w, xk, sk, model)[j_lo - 1 : j_hi]
            # 1e-12 of the row's max, plus the oracle's own rounding of x*j/T
            # before its reduction to whole turns: four roundings of 2**-53
            # each of the phase 2*pi*x*j/T
            phase = 2 * np.pi * xk * j / t
            tol = 1e-12 * np.abs(ref).max() + 4 * 2.0**-53 * phase * np.abs(ref)
            assert np.all(np.abs(row - ref) <= tol)


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097")


def exact_cauchy_atom(p, x, s, duration, j):
    """The coefficient xi**p * exp(-xi) / sqrt(T*s) * exp(-2*pi*i*x*j/T),
    xi = j / (T*s), of the unnormalized Cauchy atom at (x, s) on bin j, as a
    pair of Decimals good to about 40 digits: x*j/T is reduced to within half
    a turn exactly in Fractions, and exp(-i*angle) is its Taylor series."""
    with localcontext() as ctx:
        ctx.prec = 45
        dec = lambda q: Decimal(q.numerator) / Decimal(q.denominator)  # noqa: E731
        ts = Fraction(duration) * Fraction(s)
        turns = Fraction(x) * j / Fraction(duration)
        xi = Fraction(j) / ts
        amp = dec(xi ** int(p)) * (-dec(xi)).exp() / dec(ts).sqrt()
        angle = 2 * _PI * dec(turns - round(turns))  # |angle| <= pi
        re = im = Decimal(0)
        term_re, term_im, k = Decimal(1), Decimal(0), 0
        while abs(term_re) + abs(term_im) > Decimal(10) ** -45:
            re, im, k = re + term_re, im + term_im, k + 1
            term_re, term_im = term_im * angle / k, -term_re * angle / k
        return amp * re, amp * im


def atom_errors(duration, npts=24):
    """|atom - exact| / |exact| in units of eps = 2**-52, for the atoms of
    ``_atom_matrix`` at the N = 16384 band edges of the frame commands (smax
    0.06, six octaves): the first R and the last 2R bins, where the power
    chains of ``_atom_factors`` are longest.  Scales are multiples of 2**-20,
    so that T*s is exact, with the profile's peak inside the band; positions
    cover [0, T), both ends and beyond."""
    n, p = 16384, 6.0
    model = SignalModel.zeros(n, duration)
    j_lo, j_hi = band = guard_band(cauchy_wavelet(p), Rect(0.0, duration, 0.06 / 64, 0.06), model)
    rng = np.random.default_rng(int(duration))
    x = np.concatenate([rng.uniform(0.0, duration, npts - 4),
                        [duration * (1 - 2.0**-40), 1e-9, -2.3 * duration, 5.7 * duration + 0.1]])
    ts = np.exp(rng.uniform(math.log(j_lo / p), math.log(j_hi / p), npts))
    s = np.ldexp(np.round(np.ldexp(ts / duration, 20)), -20)
    atoms = _atom_matrix(cauchy_wavelet(p, normalize=False), np.column_stack([x, s]), model, band)
    fine = math.isqrt(j_hi - j_lo + 1)
    cols = [*range(fine), *range(j_hi - j_lo + 1 - 2 * fine, j_hi - j_lo + 1)]
    errors = []
    for row, xk, sk in zip(atoms, x, s):
        for c in cols:
            re, im = exact_cauchy_atom(p, xk, sk, duration, j_lo + c)
            got = row[c]
            diff = ((Decimal(got.real) - re) ** 2 + (Decimal(got.imag) - im) ** 2).sqrt()
            errors.append(float(diff / (re * re + im * im).sqrt()) / 2.0**-52)
    return np.array(errors)


@pytest.mark.parametrize("duration", [16384.0, 10000.0])
def test_atoms_match_exactly_reduced_phases(duration):
    # the bound _atom_factors states.  Measured on these sets: at most 50
    # and 66 ulps, median 12 for both.  The kernel that took x*j/T in plain
    # floats was off by up to 9,035 and 6,623 ulps, median 400 and 231.
    errors = atom_errors(duration)
    assert errors.max() <= 100
    assert np.median(errors) <= 16


@pytest.mark.parametrize("duration", [1e-300, 2.0**1000, 1.7e308])
def test_atom_matrix_at_extreme_durations(duration):
    # the turns x*j/T are split exactly whatever the scale of x and T
    w = cauchy_wavelet(6.0)
    model = SignalModel.zeros(64, duration)
    pts = np.array([[0.3, 4.0], [0.9, 1.0], [-0.7, 2.0]]) * [duration, 1 / duration]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        atoms = _atom_matrix(w, pts, model)
    ref = np.array([atom_spectrum(w, x, s, model) for x, s in pts])
    assert np.abs(atoms - ref).max() <= 1e-13 * np.abs(ref).max()


def test_atom_matrix_empty_points():
    w = cauchy_wavelet(6.0)
    model = SignalModel.zeros(64, 8.0)
    assert _atom_matrix(w, np.zeros((0, 2)), model).shape == (0, 31)
    assert _atom_matrix(w, np.zeros((0, 2)), model, (3, 9)).shape == (0, 7)


def test_cwt_blocks_match_one_product():
    rng = np.random.default_rng(11)
    w = gaussian_bump_wavelet(1.0, 0.1)  # the dense path, in blocks of atom rows
    f = random_signal(rng)
    npts = 2500
    assert npts > 2 * (_BLOCK_COEFFS // f.coeffs.size)  # several blocks
    assert npts % (_BLOCK_COEFFS // f.coeffs.size) != 0  # a partial last block
    pts = np.column_stack([rng.uniform(0, 64, npts), np.exp(rng.uniform(-3, 0, npts))])
    ref = _atom_matrix(w, pts, f).conj() @ f.coeffs
    assert np.max(np.abs(cwt(f, w, pts) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_cwt_linearity():
    rng = np.random.default_rng(2)
    w = cauchy_wavelet(6.0)
    f, g = random_signal(rng), random_signal(rng)
    pts = np.column_stack([rng.uniform(0, 64, 20), np.exp(rng.uniform(-3, 0, 20))])
    lhs = cwt(SignalModel(512, 64.0, 2.0 * f.coeffs - 1j * g.coeffs), w, pts)
    rhs = 2.0 * cwt(f, w, pts) - 1j * cwt(g, w, pts)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_cwt_regular_matches_direct():
    rng = np.random.default_rng(3)
    w = cauchy_wavelet(6.0)
    f = random_signal(rng)
    s = 0.37
    reg = cwt_regular(f, w, s)
    xs = np.arange(f.length) * f.duration / f.length
    direct = cwt(f, w, np.column_stack([xs, np.full(f.length, s)]))
    assert np.max(np.abs(reg - direct)) < 1e-10


def test_cwt_regular_is_the_scaled_inverse_fft_bit_for_bit():
    rng = np.random.default_rng(14)
    w = cauchy_wavelet(6.0)
    f = random_signal(rng, n=1024, t=1024.0)
    xi = np.arange(1, f.length // 2) / f.duration
    for s in np.geomspace(0.1 / 2**6, 0.1, 256):
        buf = np.zeros(f.length, dtype=complex)
        buf[1 : f.length // 2] = f.coeffs * (np.conj(w(xi / s)) / math.sqrt(f.duration * s))
        assert np.array_equal(cwt_regular(f, w, s), np.fft.ifft(buf) * f.length)
    # the model's bins and frequencies are built once, read-only
    assert f.freqs is f.freqs and f.bins is f.bins
    assert np.array_equal(f.freqs, xi)
    with pytest.raises(ValueError):
        f.freqs[0] = 0.0
    with pytest.raises(ValueError):
        f.bins[0] = 0


def test_translation_covariance():
    rng = np.random.default_rng(4)
    w = cauchy_wavelet(6.0)
    f = random_signal(rng)
    tau_samples = 17
    tau = tau_samples * f.duration / f.length
    shifted = SignalModel(
        f.length, f.duration, f.coeffs * np.exp(-2j * np.pi * f.freqs * tau)
    )
    pts = np.column_stack([rng.uniform(5, 50, 25), np.exp(rng.uniform(-3, 0, 25))])
    moved = pts.copy()
    moved[:, 0] -= tau
    assert np.allclose(cwt(shifted, w, pts), cwt(f, w, moved), atol=1e-10)


def test_dilation_covariance():
    # doubling the scale parameter of the signal halves the atom scale match
    w = cauchy_wavelet(6.0)
    n, t = 4096, 4096.0
    xi = np.arange(1, n // 2) / t
    xi0, sig = 0.04, 0.004
    f = SignalModel(n, t, np.exp(-((xi - xi0) ** 2) / (2 * sig**2)).astype(complex))
    f2 = SignalModel(
        n, t, np.sqrt(2.0) * np.exp(-((xi - 2 * xi0) ** 2) / (2 * (2 * sig) ** 2)).astype(complex)
    )
    # dilated signal (unitary scaling by 2) analyzed at doubled s, scaled x
    pts = np.array([[512.0, 0.008], [700.0, 0.01]])
    pts2 = np.column_stack([pts[:, 0] / 2.0, pts[:, 1] * 2.0])
    v1 = cwt(f, w, pts)
    v2 = cwt(f2, w, pts2)
    assert np.allclose(v1, v2, rtol=1e-3, atol=1e-6)


def test_cwt_input_validation():
    w = cauchy_wavelet(6.0)
    f = SignalModel.zeros(64, 8.0)
    with pytest.raises(ValueError):
        cwt(f, w, [(0.0, -1.0)])
    with pytest.raises(ValueError):
        cwt(f, w, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        atom_spectrum(w, 0.0, 0.0, f)
    assert cwt(f, w, []).size == 0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            cwt(f, w, [(bad, 1.0)])
        with pytest.raises(ValueError):
            cwt(f, w, [(0.0, bad)])
        with pytest.raises(ValueError):
            atom_spectrum(w, bad, 1.0, f)
        with pytest.raises(ValueError):
            atom_spectrum(w, 0.0, bad, f)
        with pytest.raises(ValueError):
            cwt_regular(f, w, bad)
    assert w._windows == {}  # a rejected scale leaves no window behind


def uncached_row(f, w, s):
    """``cwt_regular`` by its formula, with a window built on every call."""
    buf = np.zeros(f.length, dtype=complex)
    buf[1 : f.length // 2] = f.coeffs * (np.conj(w(f.freqs / s)) / math.sqrt(f.duration * s))
    return np.fft.ifft(buf, norm="forward")


def test_cwt_regular_keeps_one_window_per_scale_and_grid():
    rng = np.random.default_rng(18)
    w6, w7 = cauchy_wavelet(6.0), cauchy_wavelet(7.0)
    scales = np.geomspace(0.1 / 2**6, 0.1, 64)
    f = random_signal(rng, n=1024, t=1024.0)
    for _ in range(3):  # built, then kept: the same rows every sweep
        for s in scales:
            assert np.array_equal(cwt_regular(f, w6, s), uncached_row(f, w6, s))
    kept = w6._windows[(1024, 1024.0)]
    assert list(w6._windows) == [(1024, 1024.0)] and len(kept) == scales.size
    assert all(not v.flags.writeable for v in kept.values())
    # a second signal on the grid reads the same windows
    g = random_signal(rng, n=1024, t=1024.0)
    windows = {s: kept[s] for s in scales}
    for s in scales:
        assert np.array_equal(cwt_regular(g, w6, s), uncached_row(g, w6, s))
        assert w6._windows[(1024, 1024.0)][s] is windows[s]
    # another wavelet keeps its own windows
    for s in scales[:5]:
        assert np.array_equal(cwt_regular(f, w7, s), uncached_row(f, w7, s))
    assert len(w7._windows[(1024, 1024.0)]) == 5 and len(kept) == scales.size
    assert not np.array_equal(w7._windows[(1024, 1024.0)][scales[0]], kept[scales[0]])
    # a new grid, here a new duration, replaces the windows
    h = random_signal(rng, n=1024, t=512.0)
    assert np.array_equal(cwt_regular(h, w6, scales[0]), uncached_row(h, w6, scales[0]))
    assert list(w6._windows) == [(1024, 512.0)] and len(w6._windows[(1024, 512.0)]) == 1


def test_cwt_regular_keeps_windows_within_the_float_budget():
    rng = np.random.default_rng(19)
    w = cauchy_wavelet(6.0)
    f = random_signal(rng, n=8192, t=8192.0)
    scales = np.geomspace(1e-3, 0.2, 4 * _WINDOW_FLOATS // (f.length // 2) + 1)
    for s in scales:  # twice the windows the budget holds
        assert np.array_equal(cwt_regular(f, w, s), uncached_row(f, w, s))
    kept = w._windows[(f.length, f.duration)]
    assert 0 < sum(v.nbytes for v in kept.values()) <= 8 * _WINDOW_FLOATS
    assert len(kept) < scales.size
    s = scales[-1]  # past the budget: built on each call, with the same bits
    assert s not in kept and np.array_equal(cwt_regular(f, w, s), uncached_row(f, w, s))


def test_kept_windows_leave_equality_hash_and_sample_set_keys_alone():
    w = cauchy_wavelet(6.0)
    twin = MotherWavelet(w.profile, w.profile_d1, w.profile_d2, w.cauchy_order)
    f = random_signal(np.random.default_rng(20), n=1024, t=1024.0)
    sset = SampleSet(np.array([[1.0, 0.01], [200.0, 0.05]]), {})
    u = analysis(f, sset, w)
    atoms = sset._atoms_for(w, f)
    for s in (0.01, 0.02):
        cwt_regular(f, twin, s)
    assert w._windows == {} and len(twin._windows[(1024, 1024.0)]) == 2
    assert twin == w and hash(twin) == hash(w) and "_windows" not in repr(twin)
    # the sample set's entry, keyed by w, serves the twin with its windows
    assert sset._atoms_for(twin, f) is atoms
    assert np.array_equal(analysis(f, sset, twin), u)


def test_parseval_surrogate_small():
    w = cauchy_wavelet(6.0)
    n, t = 1024, 1024.0
    xi = np.arange(1, n // 2) / t
    f = SignalModel(n, t, np.exp(-((xi - 0.06) ** 2) / (2 * 0.006**2)).astype(complex))
    u = np.linspace(math.log(1e-3), math.log(0.25), 301)
    ss = np.exp(u)
    per_scale = np.array(
        [np.sum(np.abs(cwt_regular(f, w, s)) ** 2) * (t / n) for s in ss]
    )
    from scipy.integrate import simpson

    total = simpson(per_scale * ss, x=u)
    assert total == pytest.approx(f.norm() ** 2, rel=0.02)

