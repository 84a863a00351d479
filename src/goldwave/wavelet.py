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
factor per coarse bin j_c, one per offset r, both laid out (bins, points)
with phases that are powers of three exponentials per point, and a third
that, for a Cauchy wavelet G(xi) = c * xi**p * exp(-xi), all points share.
``_Atoms`` alone chooses between those factors and the blocked atom rows of
``_atom_blocks``, for ``cwt`` and framelab's operators alike.

``cwt_regular`` takes one scale row as one inverse FFT of the coefficients
times the window conj(G(freqs / s)), which the wavelet keeps (see
``MotherWavelet``): a sweep of many signals over the same scales builds
each window once, and its rows are the same bits as without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .lattice import _two_prod

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

# Floats of cwt_regular windows a wavelet keeps, 16 MiB: 2,050 scales on
# 1,023 bins.  Past it, windows are built on every call.
_WINDOW_FLOATS = 1 << 21


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
    are then used in the factored form of ``_atom_factors``.

    The wavelet keeps the read-only ``cwt_regular`` window of each scale it
    is asked for, keyed by the scale, for one model grid (length, duration)
    at a time: a new grid replaces them.  They hold at most _WINDOW_FLOATS
    floats; past that, windows are built and not kept.  Equality and hash
    ignore them."""

    profile: Profile
    profile_d1: Profile | None = None
    profile_d2: Profile | None = None
    cauchy_order: float | None = None
    _windows: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        return self.profile(np.asarray(xi, dtype=float))

    @cached_property
    def xi_peak(self) -> float:
        """Where |G| peaks on 20,001 log-spaced points of [1e-4, 100]; kept."""
        grid = np.exp(np.linspace(math.log(1e-4), math.log(100.0), 20001))
        return float(grid[np.argmax(np.abs(self(grid)))])

    def _window(self, model: SignalModel, s: float) -> np.ndarray:
        """conj(G(freqs / s)) / sqrt(T*s) on the model's bins, built once per scale."""
        grid = (model.length, model.duration)
        rows = self._windows.get(grid)
        if rows is None:  # one grid at a time; a local dict, right under threads too
            rows = {}
            object.__setattr__(self, "_windows", {grid: rows})
        window = rows.get(s)
        if window is None:
            window = _read_only(np.conj(self(model.freqs / s)) / math.sqrt(model.duration * s))
            if (len(rows) + 1) * (window.nbytes // 8) <= _WINDOW_FLOATS:
                rows[s] = window
        return window


def _restrict_positive(f: Callable[[np.ndarray], np.ndarray]) -> Profile:
    """f on xi > 0, and 0 elsewhere and where f gives nan.  The profiles
    here give nan only as inf * 0, where a power of xi overflows and
    exp(-xi) is 0, so never below xi = 700; for Cauchy orders (all below 27)
    that is past xi = 1455, where the true value lies below the float range."""

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
    tends to zero).  So are orders, normalized or not, whose admissibility
    constant is not finite and positive: all from about 27 on.
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
    c2 = admissibility_constant(w)
    if not (c2 > 0 and math.isfinite(c2)):
        raise ValueError(f"cauchy order {p}: admissibility constant {c2}")
    return base(1.0 / math.sqrt(c2)) if normalize else w


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
    return DecayReport(conditions, total, l2_ok, grid)


# ---------------------------------------------------------------------------
# finite signal model


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
        n = self._checked(self.length, self.duration)
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (n // 2 - 1,):
            raise ValueError(f"expected {n // 2 - 1} coefficients, got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def _checked(n: int, duration: float) -> int:
        """n, once n and the duration are checked (by ``zeros`` before it allocates)."""
        if n < 4 or n & (n - 1):
            raise ValueError(f"length must be a power of two >= 4, got {n}")
        if not 0 < duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {duration}")
        return n

    @classmethod
    def zeros(cls, length: int, duration: float) -> SignalModel:
        return cls(length, duration, np.zeros(cls._checked(length, duration) // 2 - 1, complex))

    @cached_property
    def bins(self) -> np.ndarray:
        return _read_only(np.arange(1, self.length // 2))

    @cached_property
    def freqs(self) -> np.ndarray:
        return _read_only(self.bins / self.duration)

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
    if not 0 < s < math.inf:
        raise ValueError(f"scale must be positive and finite, got {s}")
    if not math.isfinite(x):
        raise ValueError(f"position must be finite, got {x}")
    xi = model.freqs
    turns = x * xi
    turns -= np.rint(turns)
    return (
        w(xi / s)
        * np.exp(-2j * np.pi * turns)
        / math.sqrt(model.duration * s)
    )


def _turns(x: np.ndarray, duration: float, mult: tuple[int, ...]) -> np.ndarray:
    """x * k / T reduced to within half a turn, rows k of ``mult`` by columns
    x, each within 2**-54 of its exact value.  With T = t * 2**e, 1/2 <= t < 1,
    x mod T scaled by 2**-e times k is exactly p + err (Dekker), and p mod t,
    taken to within t/2, is exact too, so only the last sum and the division
    round (and any underflow, below 2**-1070 turns)."""
    t, e = math.frexp(duration)
    p, err = _two_prod(np.ldexp(np.fmod(x, duration), -e), np.array(mult, dtype=float)[:, None])
    rem = np.fmod(p, t)
    rem -= t * np.rint(rem / t)  # exact (Sterbenz)
    return (rem + err) / t


def _powers(first: np.ndarray, ratio: np.ndarray, n: int) -> np.ndarray:
    """The rows first * ratio**k, k = 0 .. n-1, by doubling: rows k .. 2k-1
    are rows 0 .. k-1 times ratio**k, one product over the whole block."""
    out = np.empty((n, ratio.size), dtype=complex)
    out[0], k = first, 1
    while k < n:
        np.multiply(out[: min(k, n - k)], ratio, out=out[k : 2 * k])
        k, ratio = 2 * k, ratio * ratio
    return out


def _atom_factors(
    w: MotherWavelet,
    points: np.ndarray,
    model: SignalModel,
    band: tuple[int, int] | None = None,
):
    """The atoms at many phase-space points on the bins j_lo .. j_hi of
    ``band`` (inclusive; all model bins by default), in factored form.

    With bins split as j = j_c + r, j_c = j_lo + R*q, R = isqrt(bins), r < R,
    t = x/T and ts = T*s, the atom at point k = (x, s) has the coefficient
    zc[q, k] * zf[r, k] * col[q, r, ...] on bin j.  The phases are powers of
    three per-point exponentials, each of a turn reduced by ``_turns``:
    zf[r] = e**r with e = exp(-2*pi*i*t), and zc[q] = exp(-2*pi*i*t*j_lo) *
    exp(-2*pi*i*t*R)**q.  col[q, r, k] holds the amplitude G(j/ts) / sqrt(ts).
    A Cauchy wavelet, G(xi) = c*xi**p*exp(-xi), has exactly G(j/ts) =
    G(j_c/ts) * (1 + r/j_c)**p * exp(-r/ts): e takes the factor exp(-1/ts),
    zc takes G(j_c/ts) / sqrt(ts), and col[q, r] = (1 + r/j_c)**p is shared
    by all points.  The last coarse row may run past j_hi; callers pad or
    drop those slots.

    Accuracy (measured, not proved): a power adds its base's error of about
    an ulp once per step, so a coefficient is off the exact atom (x*j/T
    reduced exactly) by about q + r ulps.  At the N = 16384 band edges of
    the frame commands (q, r < 33; ``tests/test_wavelet.py``): at most 66
    ulps, median 12, against 9,035 and 400 from plain products x/T * j.
    """
    j_lo, j_hi = (1, model.length // 2 - 1) if band is None else band
    nbins = j_hi - j_lo + 1
    fine = math.isqrt(nbins)
    j_c = j_lo + fine * np.arange(-(-nbins // fine))
    r = np.arange(fine)
    ts = model.duration * points[:, 1]
    e, e_r, e_lo = np.exp(-2j * np.pi * _turns(points[:, 0], model.duration, (1, fine, j_lo)))
    zc = _powers(e_lo, e_r, j_c.size)
    if w.cauchy_order is None:
        col = w((j_c[:, None] + r).ravel()[:, None] / ts)
        col /= np.sqrt(ts)
        return zc, _powers(1.0, e, fine), col.reshape(j_c.size, fine, len(points))
    zc *= w(j_c[:, None] / ts) / np.sqrt(ts)
    e *= np.exp(-1.0 / ts)
    return zc, _powers(1.0, e, fine), (1.0 + r / j_c[:, None]) ** w.cauchy_order


def _atom_matrix(
    w: MotherWavelet,
    points: np.ndarray,
    model: SignalModel,
    band: tuple[int, int] | None = None,
) -> np.ndarray:
    """Stacked atom coefficient rows for many phase-space points, on the bins
    j_lo .. j_hi of ``band`` (inclusive; all model bins by default): the
    product of the factors of ``_atom_factors``, written into a C-contiguous
    (bins, points) array, the slots past j_hi included, and returned as its
    transposed (points, bins) view."""
    zc, zf, col = _atom_factors(w, points, model, band)
    nbins = model.length // 2 - 1 if band is None else band[1] - band[0] + 1
    out = np.multiply(zc[:, None, :], zf)
    out *= col if col.ndim == 3 else col[..., None]
    return out.reshape(zc.shape[0] * zf.shape[0], len(points))[:nbins].T


_BLOCK_COEFFS = 1 << 18  # 4 MB of atom coefficients


def _atom_blocks(w: MotherWavelet, points: np.ndarray, model: SignalModel,
                 band: tuple[int, int] | None = None):
    """(rows, ``_atom_matrix`` of points[rows]) over slices of about
    _BLOCK_COEFFS coefficients, each built when reached: a large set holds
    one block, not all its atoms; a frame command's set at N = 1024 is one."""
    nbins = model.length // 2 - 1 if band is None else band[1] - band[0] + 1
    step = max(1, _BLOCK_COEFFS // nbins)
    for lo in range(0, len(points), step):
        yield slice(lo, lo + step), _atom_matrix(w, points[lo : lo + step], model, band)


class _Atoms:
    """A wavelet's atoms at many points on one model grid, as the analysis
    map T f = (<f, atom_k>)_k and the frame operator S f = T* T f, held as
    decided once, here: a Cauchy wavelet keeps the read-only factors of
    ``_atom_factors``.  With V the conjugated coefficients on the (coarse, R)
    bin grid, zero-padded, T f = conj(colsum(zc * ((col * V) @ zf))); atom k
    is zc[q, k] * zf[r, k] * col[q, r] on bin j_c + r, so S f = col * ((zc *
    T f) @ zf.T) exactly.  Others sum over ``_atom_blocks``; no f is kept."""

    def __init__(self, w: MotherWavelet, points: np.ndarray, model: SignalModel):
        self._w, self._points = w, points
        self._grid = SignalModel.zeros(model.length, model.duration)
        self._factors = (None if w.cauchy_order is None
                         else tuple(map(_read_only, _atom_factors(w, points, model))))

    @staticmethod
    def checked(points: np.ndarray | list) -> np.ndarray:
        """points as a (k, 2) float array, k >= 0, of finite (x, s), s > 0."""
        pts = np.asarray(points, dtype=float)
        pts = pts.reshape(0, 2) if pts.shape == (0,) else pts
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must be a (k, 2) array of (x, s) pairs, got {pts.shape}")
        if not (np.isfinite(pts).all() and np.all(pts[:, 1] > 0)):
            raise ValueError("points must be finite, with all scales positive")
        return pts

    def analyze(self, coeffs: np.ndarray) -> np.ndarray:
        """T f, for f with these coefficients on the grid's bins."""
        fc = coeffs.conj()
        if self._factors is None:
            out = np.empty(len(self._points), dtype=complex)
            for rows, atoms in _atom_blocks(self._w, self._points, self._grid):
                out[rows] = atoms @ fc
            return out.conj()
        zc, zf, col = self._factors
        v = np.zeros(col.size, dtype=complex)
        v[: fc.size] = fc
        return (zc * ((col * v.reshape(col.shape)) @ zf)).sum(axis=0).conj()

    def frame_operator(self, coeffs: np.ndarray) -> np.ndarray:
        """The coefficients of S f, for f with these coefficients."""
        if self._factors is None:
            out, fc = np.zeros(coeffs.shape, dtype=complex), coeffs.conj()
            for _, atoms in _atom_blocks(self._w, self._points, self._grid):
                out += (atoms @ fc).conj() @ atoms
            return out
        zc, zf, col = self._factors
        return (col * ((zc * self.analyze(coeffs)) @ zf.T)).ravel()[: coeffs.size]


def cwt(f: SignalModel, w: MotherWavelet, points: np.ndarray | list) -> np.ndarray:
    """Wavelet coefficients <f, atom(x, s)> at a (k, 2) array of points (x, s)."""
    return _Atoms(w, _Atoms.checked(points), f).analyze(f.coeffs)


def cwt_regular(f: SignalModel, w: MotherWavelet, s: float) -> np.ndarray:
    """Wavelet coefficients at one scale on the regular grid x_r = r*T/N,
    via a single inverse FFT of coeffs * (conj(G(freqs / s)) / sqrt(T*s));
    identical to ``cwt`` at those points up to rounding.  The window
    conj(G(freqs / s)) / sqrt(T*s) is the one ``w`` keeps for the grid and
    scale."""
    s = float(s)
    if not 0 < s < math.inf:
        raise ValueError(f"scale must be positive and finite, got {s}")
    buf = np.zeros(f.length, dtype=complex)
    np.multiply(f.coeffs, w._window(f, s), out=buf[1 : f.length // 2])
    return np.fft.ifft(buf, norm="forward", out=buf)
