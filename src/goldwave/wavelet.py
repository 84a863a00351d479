"""Analytic mother wavelets and the continuous wavelet transform.

Wavelets are specified by their Fourier-domain profile G on positive
frequencies (G vanishes on xi <= 0, making the wavelet analytic).  Scale
convention: the atom at (x, s) is sqrt(s) * psi(s * (t - x)), so LARGE scale
corresponds to SMALL s and the atom concentrates near frequency s * xi_peak.
Fourier kernel convention: exp(-2*pi*i*xi*t).

Signals live in a finite periodic model: length-N (power of two) signals on
[0, T), represented by their coefficients on the orthonormal exponentials at
the strictly positive frequency bins 1 .. N/2 - 1.  Bin 0 and the Nyquist
bin are excluded so the model sits inside the analytic signal space.

Every atom is built by ``_atom_factors`` over bins split as j = j_c + r: a
factor per point and coarse bin j_c, one per point and offset r, and a third
that, for a Cauchy wavelet G(xi) = c * xi**p * exp(-xi), all points share.
So ``cwt`` and the frame operator of framelab never multiply them out into
the atom rows of ``_atom_matrix`` for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "LogGrid",
    "MotherWavelet",
    "DecayReport",
    "SignalModel",
    "cauchy_wavelet",
    "gaussian_bump_wavelet",
    "admissibility_constant",
    "normalize_tight",
    "decay_condition_report",
    "atom_spectrum",
    "cwt",
    "cwt_regular",
]

Profile = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LogGrid:
    """Logarithmically spaced frequency grid for quadrature and decay checks."""

    xi_min: float = 1e-5
    xi_max: float = 60.0
    n: int = 4097

    def __post_init__(self):
        if not (0 < self.xi_min < self.xi_max) or self.n < 16:
            raise ValueError(f"invalid grid {self}")

    def log_points(self) -> np.ndarray:
        return np.linspace(math.log(self.xi_min), math.log(self.xi_max), self.n)

    @property
    def step(self) -> float:
        """The spacing of ``log_points``."""
        return (math.log(self.xi_max) - math.log(self.xi_min)) / (self.n - 1)


@dataclass(frozen=True)
class MotherWavelet:
    """Fourier-domain wavelet profile with optional analytic derivatives.
    ``cauchy_order`` is p when the profile is c * xi**p * exp(-xi); atoms
    are then used in the factored form of ``_atom_factors``."""

    profile: Profile
    profile_d1: Profile | None = None
    profile_d2: Profile | None = None
    cauchy_order: float | None = None

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        return self.profile(np.asarray(xi, dtype=float))


def _restrict_positive(f: Callable[[np.ndarray], np.ndarray]) -> Profile:
    """f on xi > 0, and 0 elsewhere and where f gives nan.  The profiles
    here give nan only as inf * 0, where a power of xi overflows and
    exp(-xi) is 0, so never below xi = 700; for Cauchy orders below 97 that
    is past xi = 1455, where the true value lies below the float range."""

    def wrapped(xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if xi.ndim and xi.size and xi.min() > 0 and xi.max() < 700.0:
            return f(xi)  # the same values, without the mask, gather and scatter
        out = np.zeros(xi.shape, dtype=float)
        pos = xi > 0
        with np.errstate(over="ignore", invalid="ignore"):
            out[pos] = f(xi[pos])
        out[np.isnan(out)] = 0.0
        return out

    return wrapped


def cauchy_wavelet(p: float, normalize: bool = True) -> MotherWavelet:
    """Cauchy (one-sided power-exponential) wavelet: G(xi) = c * xi**p * exp(-xi).

    Orders below 6 are rejected: the smoothness/decay hypotheses behind the
    covering-based frame guarantee need the profile and its first two
    derivatives to vanish faster than the fourth power at the origin, which
    fails for p < 6 (the weighted profile xi**(p-5) * exp(-xi) no longer
    tends to zero).
    """
    if p < 6:
        raise ValueError(
            f"cauchy order must be >= 6 (got {p}): for p < 6 the weighted "
            "profile max(xi**5, xi**-5) * G(xi) does not vanish at 0, so the "
            "decay hypotheses of the sampling guarantee fail"
        )

    def base(c: float) -> MotherWavelet:
        prof = _restrict_positive(lambda xi: c * xi**p * np.exp(-xi))
        d1 = _restrict_positive(lambda xi: c * np.exp(-xi) * xi ** (p - 1) * (p - xi))
        d2 = _restrict_positive(
            lambda xi: c * np.exp(-xi) * xi ** (p - 2) * (p * (p - 1) - 2 * p * xi + xi**2)
        )
        return MotherWavelet(prof, d1, d2, p)

    w = base(1.0)
    if not normalize:
        return w
    c = 1.0 / math.sqrt(admissibility_constant(w))
    return base(c)


def gaussian_bump_wavelet(center: float = 1.0, width: float = 0.1) -> MotherWavelet:
    """Gaussian bump in frequency, truncated to compact support.

    The profile is zeroed outside center +- 8 widths, where its value is
    below exp(-32) ~ 1e-14; without the truncation the restriction to
    positive frequencies would tend to that constant instead of to zero as
    xi -> 0+, which the polynomially weighted decay checks would (correctly)
    reject.
    """
    if center <= 0 or width <= 0:
        raise ValueError("center and width must be positive")
    if not 0 < 2 * (width * width) < math.inf:
        raise ValueError(f"width {width}: 2 * width**2 leaves the float range")

    def supported(f):
        def g(xi):
            out = f(xi)
            out[np.abs(xi - center) > 8 * width] = 0.0
            return out

        return g

    def g0(xi):
        return np.exp(-((xi - center) ** 2) / (2 * width**2))

    prof = _restrict_positive(supported(g0))
    d1 = _restrict_positive(supported(lambda xi: g0(xi) * (-(xi - center) / width**2)))
    d2 = _restrict_positive(
        supported(lambda xi: g0(xi) * (((xi - center) / width**2) ** 2 - 1 / width**2))
    )
    return MotherWavelet(prof, d1, d2)


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule for samples y on a uniform grid of step h.

    For even y.size the last interval takes the quadratic through the last
    three points, as scipy.integrate.simpson does since scipy 1.11.
    """
    odd = y[: y.size - 1 + y.size % 2]
    total = h / 3 * (odd[0] + odd[-1] + 4 * odd[1:-1:2].sum() + 2 * odd[2:-1:2].sum())
    if y.size % 2 == 0:
        total += h * (5 * y[-1] + 8 * y[-2] - y[-3]) / 12
    return float(total)


def admissibility_constant(w: MotherWavelet) -> float:
    """The Calderon constant: integral of |G(xi)|**2 / xi over xi > 0.

    Simpson quadrature on ``LogGrid()`` after the log substitution, where
    the 1/xi weight cancels against the Jacobian.  Raises if the integrand
    has not decayed at the grid ends (truncation would then be unreliable).
    """
    grid = LogGrid()
    u = grid.log_points()
    # a profile beyond the float range gives inf, which normalize_tight rejects
    with np.errstate(over="ignore"):
        vals = np.abs(w(np.exp(u))) ** 2
    peak = vals.max()
    if peak == 0.0:
        return 0.0
    if vals[0] > 1e-10 * peak or vals[-1] > 1e-10 * peak:
        raise ValueError(
            "admissibility integrand has not decayed at the grid ends; "
            "widen the grid"
        )
    return _simpson(vals, grid.step)


def normalize_tight(w: MotherWavelet) -> MotherWavelet:
    """Rescale the profile and its derivatives so the admissibility
    constant is 1.  A Cauchy order is kept: a multiple of c * xi**p *
    exp(-xi) has the same form."""
    c2 = admissibility_constant(w)
    if not (c2 > 0 and math.isfinite(c2)):
        raise ValueError(f"cannot normalize: admissibility constant {c2}")
    k = 1.0 / math.sqrt(c2)

    def scaled(f: Profile | None) -> Profile | None:
        return None if f is None else (lambda xi: k * f(xi))

    return MotherWavelet(scaled(w.profile), scaled(w.profile_d1), scaled(w.profile_d2),
                         w.cauchy_order)


# ---------------------------------------------------------------------------
# decay conditions


@dataclass(frozen=True)
class DecayCondition:
    name: str
    tail_sup_low: float
    tail_sup_high: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class DecayReport:
    """Finite-grid certification of the smoothness/decay hypotheses.

    The genuinely asymptotic statements (vanishing at 0 and infinity,
    square-integrability of the weighted profile) are checked on a truncated
    grid: each condition records the sup of the weighted quantity over the
    low and high tails of the grid.  ``all_passed`` is the conjunction.
    """

    conditions: list[DecayCondition]
    l2_weighted: float
    l2_passed: bool
    grid: LogGrid
    threshold: float

    @property
    def all_passed(self) -> bool:
        return self.l2_passed and all(c.passed for c in self.conditions)


def _derivatives_on_grid(w: MotherWavelet, xi: np.ndarray, u: np.ndarray):
    g = w(xi)
    if w.profile_d1 is not None and w.profile_d2 is not None:
        return g, w.profile_d1(xi), w.profile_d2(xi)
    # finite differences on the log grid: dG/dxi = (dG/du) / xi
    d1 = np.gradient(g, u) / xi
    d2 = np.gradient(d1, u) / xi
    # Richardson-style coarse/fine disagreement as an accuracy guard
    d1c = np.gradient(g[::2], u[::2]) / xi[::2]
    scale = np.abs(d1).max() + 1e-300
    if np.abs(d1c - d1[::2]).max() > 1e-3 * scale:
        raise ValueError("grid too coarse for finite-difference derivatives")
    return g, d1, d2


def decay_condition_report(
    w: MotherWavelet,
    grid: LogGrid | None = None,
    threshold: float = 1e-8,
) -> DecayReport:
    """Check the covering-theorem hypotheses on a truncated grid.

    Under the log-warping substitution the conditions on the warped prototype
    and its first two derivatives become conditions on

        T0 = G,    T1 = xi * G',    T2 = xi * G'' - G',

    each of which must vanish at 0 and infinity against the weight
    max(xi**3, xi**-3).  Square-integrability of max(xi**5, xi**-5) * G on
    the positive axis is checked by quadrature with tail-decay flags.  The
    tails are the outer 1% of the grid points at each end (at least 4).
    """
    grid = grid or LogGrid(xi_min=1e-6, xi_max=80.0, n=8193)
    u = grid.log_points()
    xi = np.exp(u)
    g, d1, d2 = _derivatives_on_grid(w, xi, u)
    w3 = np.maximum(xi**3, xi**-3.0)
    quantities = {
        "c0_decay_order_0": np.abs(g),
        "c0_decay_order_1": np.abs(xi * d1),
        "c0_decay_order_2": np.abs(xi * d2 - d1),
    }
    ntail = max(int(0.01 * xi.size), 4)
    conditions = []
    for name, q in quantities.items():
        weighted = w3 * q
        lo = float(weighted[:ntail].max())
        hi = float(weighted[-ntail:].max())
        conditions.append(
            DecayCondition(name, lo, hi, threshold, lo < threshold and hi < threshold)
        )
    # L2 weight: integral of max(xi**5, xi**-5)**2 * |G|**2 dxi
    integrand = np.maximum(xi**10, xi**-10.0) * np.abs(g) ** 2 * xi  # * xi: Jacobian
    total = _simpson(integrand, grid.step)
    peak = integrand.max() + 1e-300
    l2_ok = bool(
        math.isfinite(total)
        and integrand[:ntail].max() < 1e-9 * peak
        and integrand[-ntail:].max() < 1e-9 * peak
    )
    return DecayReport(conditions, total, l2_ok, grid, threshold)


# ---------------------------------------------------------------------------
# finite signal model


@dataclass(frozen=True)
class SignalModel:
    """Length-N periodic signal on [0, T) with strictly positive frequencies.

    ``coeffs[j - 1]`` is the coefficient of the orthonormal exponential at
    bin j, for j = 1 .. N/2 - 1; the squared norm is the plain sum of
    squared magnitudes (Parseval).
    """

    length: int
    duration: float
    coeffs: np.ndarray

    def __post_init__(self):
        n = self.length
        if n < 4 or n & (n - 1):
            raise ValueError(f"length must be a power of two >= 4, got {n}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (n // 2 - 1,):
            raise ValueError(f"expected {n // 2 - 1} coefficients, got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, length: int, duration: float) -> SignalModel:
        return cls(length, duration, np.zeros(length // 2 - 1, dtype=complex))

    @classmethod
    def from_time_samples(cls, samples: np.ndarray, duration: float) -> SignalModel:
        """Project time samples onto the model; rejects signals with more
        than 1e-9 of their energy at bin 0, the Nyquist bin, or negative
        frequencies."""
        samples = np.asarray(samples, dtype=complex)
        n = samples.size
        spec = np.fft.fft(samples) / math.sqrt(n)
        total = float(np.sum(np.abs(spec) ** 2))
        inside = float(np.sum(np.abs(spec[1 : n // 2]) ** 2))
        if total > 0 and (total - inside) > 1e-9 * total:
            raise ValueError(
                "signal has energy outside the strictly positive frequency band"
            )
        # orthonormal-exponential coefficients: unitary DFT times sqrt(T/N) scaling
        return cls(n, duration, spec[1 : n // 2] * 1.0)

    def to_time_samples(self) -> np.ndarray:
        buf = np.zeros(self.length, dtype=complex)
        buf[1 : self.length // 2] = self.coeffs
        return np.fft.ifft(buf) * math.sqrt(self.length)

    @property
    def bins(self) -> np.ndarray:
        return np.arange(1, self.length // 2)

    @property
    def freqs(self) -> np.ndarray:
        return self.bins / self.duration

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: SignalModel) -> complex:
        return complex(np.vdot(other.coeffs, self.coeffs))


def atom_spectrum(
    w: MotherWavelet, x: float, s: float, model: SignalModel
) -> np.ndarray:
    """Coefficients of the atom at (x, s) on the model's frequency bins:
    (T*s)**-0.5 * G(xi_j / s) * exp(-2*pi*i*x*xi_j), with x*xi_j reduced to
    within half a turn before the exponential."""
    if s <= 0:
        raise ValueError(f"scale must be positive, got {s}")
    xi = model.freqs
    turns = x * xi
    turns -= np.rint(turns)
    return (
        w(xi / s)
        * np.exp(-2j * np.pi * turns)
        / math.sqrt(model.duration * s)
    )


def _atom_factors(
    w: MotherWavelet,
    points: np.ndarray,
    model: SignalModel,
    band: tuple[int, int] | None = None,
):
    """The atoms at many phase-space points on the bins j_lo .. j_hi of
    ``band`` (inclusive; all model bins by default), in factored form.

    With bins split as j = j_c + r, j_c = j_lo + R*q, R = isqrt(bins), r < R,
    and ts = T*s, the atom at point k = (x, s) has the coefficient
    zc[k, q] * zf[k, r] * col[..., q, r] on bin j.  zc and zf hold the
    phases exp(-2*pi*i*x*j_c/T), x*j_c/T reduced to within half a turn, and
    exp(-2*pi*i*x*r/T); col[k, q, r] holds the amplitude G(j/ts) / sqrt(ts).
    A Cauchy wavelet, G(xi) = c*xi**p*exp(-xi), has exactly G(j/ts) =
    G(j_c/ts) * (1 + r/j_c)**p * exp(-r/ts): zc and zf take the outer two
    factors and 1/sqrt(ts), and col[q, r] = (1 + r/j_c)**p is shared by all
    points.  Each factor is good to a few ulps and col is at most R**p, so
    the rounding stays relative to each coefficient.  The last coarse row
    may run past j_hi; callers pad or drop those slots.
    """
    j_lo, j_hi = (1, model.length // 2 - 1) if band is None else band
    nbins = j_hi - j_lo + 1
    fine = math.isqrt(nbins)
    j_c = j_lo + fine * np.arange(-(-nbins // fine))
    r = np.arange(fine)
    turns = points[:, 0:1] / model.duration
    t_coarse = turns * j_c
    t_coarse -= np.rint(t_coarse)
    zc = np.exp(-2j * np.pi * t_coarse)
    spin = -2j * np.pi * turns
    ts = model.duration * points[:, 1:2]
    if w.cauchy_order is None:
        col = w((j_c[:, None] + r).ravel() / ts)
        col /= np.sqrt(ts)
        return zc, np.exp(spin * r), col.reshape(len(points), j_c.size, fine)
    zc *= w(j_c / ts) / np.sqrt(ts)
    return zc, np.exp(r * (spin - 1.0 / ts)), (1.0 + r / j_c[:, None]) ** w.cauchy_order


def _atom_matrix(
    w: MotherWavelet,
    points: np.ndarray,
    model: SignalModel,
    band: tuple[int, int] | None = None,
) -> np.ndarray:
    """Stacked atom coefficient rows for many phase-space points, on the bins
    j_lo .. j_hi of ``band`` (inclusive; all model bins by default): the
    product of the factors of ``_atom_factors``, cut to the band."""
    zc, zf, col = _atom_factors(w, points, model, band)
    nbins = model.length // 2 - 1 if band is None else band[1] - band[0] + 1
    width = zc.shape[1] * zf.shape[1]
    phase = (zc[:, :, None] * zf[:, None, :]).reshape(-1, width)[:, :nbins]
    # cut to the band before the last product, so the rows come out contiguous
    return phase * col.reshape(col.shape[:-2] + (width,))[..., :nbins]


# Atom rows are built in blocks of about this many coefficients (512 KB), so
# that a block and its temporaries (about 2 MB) stay in a core's L2 cache
# instead of passing through memory.
_BLOCK_COEFFS = 1 << 15


def _row_blocks(npts: int, nbins: int):
    """Slices of range(npts) whose atom rows of nbins bins hold about
    _BLOCK_COEFFS coefficients each."""
    step = max(1, _BLOCK_COEFFS // nbins)
    for lo in range(0, npts, step):
        yield slice(lo, lo + step)


def _cauchy_cwt(factors, coeffs: np.ndarray) -> np.ndarray:
    """<f, atom> for the Cauchy atoms of ``_atom_factors`` and f with these
    coefficients: the conjugate of rowsum(zc * (zf @ (col * V).T)), V the
    conjugated coefficients on the (coarse, R) grid, zero-padded."""
    zc, zf, col = factors
    v = np.zeros(col.size, dtype=complex)
    v[: coeffs.size] = coeffs.conj()
    return (zc * (zf @ (col * v.reshape(col.shape)).T)).sum(axis=1).conj()


def cwt(f: SignalModel, w: MotherWavelet, points: np.ndarray | list) -> np.ndarray:
    """Wavelet coefficients <f, atom(x, s)> at the given phase-space points.

    A Cauchy wavelet needs only the factors of ``_atom_factors``: one
    (points x R) by (R x coarse) product, weighted by zc and summed over
    the row, with no (points x bins) array.  Other wavelets build atom
    rows in blocks of about _BLOCK_COEFFS coefficients.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return np.zeros(0, dtype=complex)
    if pts.shape[1] != 2:
        raise ValueError("points must be (x, s) pairs")
    if np.any(pts[:, 1] <= 0):
        raise ValueError("all scales must be positive")
    if w.cauchy_order is not None:
        return _cauchy_cwt(_atom_factors(w, pts, f), f.coeffs)
    out = np.empty(pts.shape[0], dtype=complex)
    fc = f.coeffs.conj()
    for rows in _row_blocks(pts.shape[0], fc.size):
        out[rows] = _atom_matrix(w, pts[rows], f) @ fc
    return out.conj()


def cwt_regular(f: SignalModel, w: MotherWavelet, s: float) -> np.ndarray:
    """Wavelet coefficients at one scale on the regular grid x_r = r*T/N,
    via a single inverse FFT; identical to ``cwt`` at those points up to
    rounding."""
    if s <= 0:
        raise ValueError(f"scale must be positive, got {s}")
    buf = np.zeros(f.length, dtype=complex)
    buf[1 : f.length // 2] = (
        f.coeffs * np.conj(w(f.freqs / s)) / math.sqrt(f.duration * s)
    )
    return np.fft.ifft(buf) * f.length

