"""Discrete wavelet sample sets and empirical frame-bound estimation.

A sample set is a finite family of phase-space points (x, s), s > 0, inside
a rectangular region.  Two constructions are provided: the scaled golden
lattice beta * Gamma intersected with the region, and the classical dyadic
scheme {(a**-j * l * b, a**j)}.  The frame operator of the induced wavelet
family is applied in the frequency domain; its spectral extremes on a
band-restricted subspace (the empirical frame bounds) are eigenvalues of
the band Gram matrix, in a bracket that two Cholesky tests prove.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .covering import beta_for_delta
from .lattice import _DEFAULT_CAP, EnumerationCapError, LatticeSpec, Rect
from .lattice import enumerate_in_rect, lattice_coords
from .wavelet import MotherWavelet, SignalModel, _Atoms, _atom_blocks, _read_only

__all__ = [
    "SampleSet",
    "FrameEstimate",
    "RankDeficiencyError",
    "golden_sample_set",
    "dyadic_sample_set",
    "analysis",
    "frame_operator_apply",
    "guard_band",
    "estimate_bounds",
    "bounds_row",
    "compare_schemes",
    "comparison_to_csv",
]


DYADIC_BASE = 2.0**0.25  # frame compare's dyadic rows and frame estimate's default --a


class RankDeficiencyError(Exception):
    """Fewer sample points than band dimensions: the lower bound is
    structurally zero, not a numerical result."""


@dataclass(frozen=True)
class SampleSet:
    """Finite set of phase-space points with construction provenance.

    ``points`` is a read-only copy of the (k, 2) array of (x, s) pairs
    passed in.  The set keeps the ``wavelet._Atoms`` of its points from
    their first use on, in one slot keyed by the wavelet and the model's
    length and duration: for a Cauchy wavelet 44 MB at N = T = 16384 and
    14,964 points, where atom rows would take 2 GB.
    """

    points: np.ndarray
    provenance: dict
    _atoms: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _read_only(_Atoms.checked(np.array(self.points, float))))

    def _atoms_for(self, w: MotherWavelet, model: SignalModel) -> _Atoms:
        """The atoms at the points for w on the model's grid, built once."""
        key, entry = (w, model.length, model.duration), self._atoms
        if entry is None or entry[0] != key:  # a local entry: right under threads too
            entry = key, _Atoms(w, self.points, model)
            object.__setattr__(self, "_atoms", entry)
        return entry[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def empty(self) -> bool:
        return self.points.shape[0] == 0


@dataclass(frozen=True)
class FrameEstimate:
    """Empirical frame bounds on a band-restricted subspace and their proved
    bracket (``diagnostics``).  ``iterations`` is always 0: the solve is direct."""

    lower: float
    upper: float
    ratio: float
    iterations: int
    diagnostics: dict
    restricted_band: tuple[int, int]
    converged: bool


def golden_sample_set(
    delta: float, region: Rect, beta: float | None = None
) -> SampleSet:
    """Points of beta * Gamma inside the region (upper half-plane only).

    beta defaults to the covering-derived scale for delta; delta must be
    positive and finite even when beta is given.  An empty result is
    allowed and reported through the ``empty`` flag, not raised.
    """
    if not region.c > 0:
        raise ValueError("region must lie in the upper half-plane")
    default = beta_for_delta(delta)  # checks delta, also when beta is given
    beta = default if beta is None else beta
    # enumerate_in_rect lists each index once, sorted by (n, m)
    x, s = lattice_coords(*enumerate_in_rect(LatticeSpec(beta=beta), region).T)
    coords = np.column_stack([beta * x, beta * s])
    return SampleSet(coords, {"scheme": "golden", "delta": delta, "beta": beta})


def _dyadic_rows(a: float, b: float, region: Rect):
    """(scale, step, l_lo, l_hi) of each row of the dyadic scheme in the
    region, by the half-open rule with no slack: scales c <= a**j < d, tested
    on a candidate j range padded by one, and translations l * step for the
    integers l_lo <= l < l_hi, that is l in [a / step, b / step)."""
    if not a > 1:
        raise ValueError(f"base a must exceed 1, got {a}")
    if not b > 0:
        raise ValueError(f"translation step b must be positive, got {b}")
    if not region.c > 0:
        raise ValueError("region must lie in the upper half-plane")
    log_a = math.log(a)
    j_lo = math.ceil(math.log(region.c) / log_a) - 1
    j_hi = math.ceil(math.log(region.d) / log_a) + 1
    if j_hi - j_lo > _DEFAULT_CAP:
        raise EnumerationCapError(
            f"dyadic scheme of {j_hi - j_lo:.3g} scales exceeds cap {_DEFAULT_CAP}")
    for j in range(j_lo, j_hi):
        s = a**j
        if region.c <= s < region.d:
            step = b / s
            yield s, step, math.ceil(region.a / step), math.ceil(region.b / step)


def dyadic_sample_set(a: float, b: float, region: Rect) -> SampleSet:
    """The classical scheme {(a**-j * l * b, a**j) : j, l integers} in the
    region: geometric scales, arithmetic translations refined with scale.
    More scales or points than the enumeration cap raise EnumerationCapError."""
    rows = list(_dyadic_rows(a, b, region))
    total = sum(l_hi - l_lo for _, _, l_lo, l_hi in rows)
    if total > _DEFAULT_CAP:
        raise EnumerationCapError(
            f"dyadic scheme of {total:.3g} points exceeds cap {_DEFAULT_CAP}")
    coords = np.vstack([np.zeros((0, 2))] + [
        np.column_stack([np.arange(l_lo, l_hi) * step, np.full(l_hi - l_lo, s)])
        for s, step, l_lo, l_hi in rows
    ])
    return SampleSet(coords, {"scheme": "dyadic", "a": a, "b": b})


def analysis(f: SignalModel, sset: SampleSet, w: MotherWavelet) -> np.ndarray:
    """``cwt`` of f at the sample points, from the set's kept atoms."""
    return sset._atoms_for(w, f).analyze(f.coeffs)


def frame_operator_apply(f: SignalModel, sset: SampleSet, w: MotherWavelet) -> SignalModel:
    """S f = sum over sample points of <f, atom> * atom, in the model:
    ``wavelet._Atoms.frame_operator`` on the set's kept atoms."""
    return SignalModel(f.length, f.duration, sset._atoms_for(w, f).frame_operator(f.coeffs))


def guard_band(
    w: MotherWavelet,
    region: Rect,
    model: SignalModel,
    guard_octaves: float = 2.0,
) -> tuple[int, int]:
    """Interior frequency band (bin indices, inclusive) with a guard margin.

    Atoms at scale s concentrate near frequency s * w.xi_peak; scales
    within ``guard_octaves`` of the region's s-extremes are excluded so
    that region-truncation effects do not contaminate the band.
    """
    try:
        g = 2.0**guard_octaves
        xi_lo = region.c * g * w.xi_peak
        xi_hi = region.d / g * w.xi_peak
        j_lo = max(1, math.ceil(xi_lo * model.duration))
        j_hi = min(model.length // 2 - 2, math.floor(xi_hi * model.duration))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"guard margin of {guard_octaves} octaves leaves the float range") from None
    if j_lo > j_hi:
        raise ValueError(
            f"guard margin leaves an empty band (bins {j_lo}..{j_hi}); "
            "widen the scale range or reduce guard_octaves"
        )
    return j_lo, j_hi


def _band_gram(w: MotherWavelet, points: np.ndarray, model: SignalModel,
               band: tuple[int, int]) -> tuple[np.ndarray, float]:
    """The upper triangle of G~ = fl(M^T conj(M)), M the atom rows on the
    band, summed by ``zherk`` over the blocks of ``_atom_blocks`` into a
    Fortran-ordered array, and a bound on ||G~ - G||_2 for the exact G.
    zherk takes each Fortran-ordered block as it is and adds M^H M = conj(G).
    With k = points + blocks + 4 (each block adds one sum), |G~ - G| <=
    gamma_k |M|^T |M| entrywise, so ||G~ - G||_2 <= gamma_k tr G <=
    k*u * tr G~ * (1 + 2**-6) + 2**-1000, as in ``_cholesky_floor``."""
    from scipy.linalg import blas

    dim = band[1] - band[0] + 1
    g = np.zeros((dim, dim), dtype=complex, order="F")
    blocks = 0
    for _, m in _atom_blocks(w, points, model, band):  # zherk adds each block to g in place
        g = blas.zherk(1.0, m, beta=1.0, c=g, trans=2, overwrite_c=1)
        blocks += 1
    np.conjugate(g, out=g)
    k = len(points) + blocks + 4
    return g, k * 2.0**-53 * float(g.real.trace()) * (1 + 2**-6) + 2.0**-1000


def _cholesky_floor(h: np.ndarray, estimate: float) -> float:
    """sigma - c, a proved lower bound on the smallest eigenvalue of the
    Hermitian h, if floating-point Cholesky of h - sigma*I completes at
    sigma = estimate - c; else -inf.  Reads the upper triangle of h, which
    must be Fortran-ordered, and overwrites it.

    Proof (Rump, BIT 46, 2006; Higham, "Accuracy and Stability", Thm 10.3),
    u = 2**-53, n = dim, g = gamma_{n+4} (n-term sums in any order, so
    blocked LAPACK on conventional BLAS too; complex products within
    gamma_3): a completed factor R of H = fl(h - sigma*I) has R^H R = H + D,
    |D| <= g |R^H| |R|, so ||D||_2 <= g ||R||_F^2 = g tr(H + D) <=
    g/(1-g) tr H.  As R^H R >= 0 and H is off h - sigma*I by u|h_ii - sigma|,
    lambda_min(h) >= sigma - c for
        c = (n + 8)*u * (sum|h_ii| + n*|estimate|) * (1 + 2**-6) + 2**-1000:
    n + 4 for D, 1 for the diagonal, 3 for rounding sigma, sigma - c and the
    caller's shift; 2**-6 covers 1/(1-2g), n*c and rounding c for
    n <= 2**20; 2**-1000 all underflow.  The margin c far exceeds an
    eigensolver's error, so a good estimate passes.
    """
    from scipy.linalg import lapack

    n, diag = h.shape[0], np.diag_indices(h.shape[0])
    t = float(np.abs(h[diag]).sum()) + n * abs(estimate)
    c = (n + 8) * 2.0**-53 * t * (1 + 2**-6) + 2.0**-1000
    sigma = estimate - c
    h[diag] -= sigma
    return sigma - c if lapack.zpotrf(h, overwrite_a=1, clean=0)[1] == 0 else -math.inf


def estimate_bounds(
    sset: SampleSet,
    w: MotherWavelet,
    model: SignalModel,
    band: tuple[int, int],
) -> FrameEstimate:
    """Frame bounds of the sample set on the band subspace, and a proved bracket.

    A and B are the extreme eigenvalues of the band Gram matrix
    G = M^T conj(M), the frame operator restricted to the band, M the atom
    rows of ``_atom_matrix``.  G is summed block by block (``_band_gram``),
    so at most one block of M is held, and only eigenvalues are computed.
    Fewer points than band dimensions raises RankDeficiencyError rather
    than returning a structurally-zero A.

    ``diagnostics`` holds ``resolution_floor``, dim * eps * B, and A_lo and
    B_hi: no eigenvalue of the exact Gram matrix of the computed atoms lies
    outside [A_lo, B_hi].  ``_cholesky_floor`` bounds the computed G~ from
    below near A and -G~ near -B (a failed test gives -inf or inf); each
    bound then moves out by ``_band_gram``'s bound on ||G~ - G||_2, since
    by Weyl's inequality no eigenvalue moves further.  ``converged`` holds
    when both tests pass and A_lo > 0.  The rounding of the atoms
    themselves, measured at up to 66 ulps a coefficient (``_atom_factors``),
    is not covered: that bound is not proved.
    """
    if not 1 <= band[0] <= band[1] <= model.length // 2 - 2:
        raise ValueError(f"band {band} not strictly inside the model bins")
    pts = sset.points
    npts, dim = len(pts), band[1] - band[0] + 1
    if npts < dim:
        raise RankDeficiencyError(
            f"{npts} sample points cannot frame a {dim}-dimensional band; "
            "the lower bound is structurally zero"
        )
    # Imported here: loading scipy.linalg would add 0.1 s to every other command.
    from scipy.linalg import eigh

    g, gram_err = _band_gram(w, pts, model, band)
    lam = eigh(g, lower=False, eigvals_only=True, check_finite=False)
    lower, upper = float(lam[0]), float(lam[-1])
    a_lo = _cholesky_floor(g.copy(order="F"), lower) - gram_err
    b_hi = gram_err - _cholesky_floor(np.negative(g, out=g), -upper)
    return FrameEstimate(
        lower=lower, upper=upper, ratio=upper / lower if lower > 0 else math.inf, iterations=0,
        diagnostics={"method": "eigvalsh+cholesky", "A_lo": a_lo, "B_hi": b_hi,
                     "resolution_floor": dim * math.ulp(1.0) * upper},  # dim * eps * B
        restricted_band=(int(band[0]), int(band[1])), converged=a_lo > 0 and b_hi < math.inf)


def bounds_row(sset: SampleSet, w: MotherWavelet, model: SignalModel,
               band: tuple[int, int]) -> dict:
    """``estimate_bounds`` as a report row: points, A, B, ratio, converged
    and diagnostics.  A rank-deficient set gives A = 0, B = nan, ratio =
    inf, converged false and its reason as ``diagnostics["error"]``."""
    try:
        est = estimate_bounds(sset, w, model, band)
    except RankDeficiencyError as exc:
        return {"points": len(sset), "A": 0.0, "B": math.nan, "ratio": math.inf,
                "converged": False, "diagnostics": {"error": str(exc)}}
    return {"points": len(sset), "A": est.lower, "B": est.upper, "ratio": est.ratio,
            "converged": est.converged, "diagnostics": est.diagnostics}


def _match_dyadic_density(target: int, a: float, region: Rect) -> SampleSet:
    """Choose the translation step b so the dyadic count matches target
    within 2%."""
    if target <= 0:
        raise ValueError("cannot density-match an empty golden set")
    lo, hi = 1e-6, 1e6  # count is ~monotone decreasing in b
    best_b, best_err = None, math.inf
    for _ in range(200):
        b = math.sqrt(lo * hi)
        count = sum(l_hi - l_lo for _, _, l_lo, l_hi in _dyadic_rows(a, b, region))
        err = (count - target) / target
        if abs(err) < best_err:
            best_b, best_err = b, abs(err)
        if abs(err) <= 0.02:
            break
        if count > target:
            lo = b
        else:
            hi = b
    return dyadic_sample_set(a, best_b, region)


def compare_schemes(
    delta_list,
    w: MotherWavelet,
    model: SignalModel,
    region: Rect,
    band: tuple[int, int],
) -> list[dict]:
    """Golden vs density-matched dyadic frame bounds for each delta.

    For every delta the golden set at beta(delta) is built, then a dyadic
    set of base DYADIC_BASE with the same region and a point count matched
    within 2%, and ``bounds_row`` gives the row of each.  Every golden set
    is built, so every delta checked, before the first solve.  Rows are
    plain dicts ready for CSV or JSON serialization.
    """
    rows = []
    for golden in [golden_sample_set(delta, region) for delta in delta_list]:
        dyadic = _match_dyadic_density(len(golden), DYADIC_BASE, region)
        prov = dyadic.provenance
        for sset, label in ((golden, f"beta={golden.provenance['beta']:.6g}"),
                            (dyadic, f"a={prov['a']:.6g},b={prov['b']:.6g}")):
            rows.append({"delta": float(golden.provenance["delta"]),
                         "scheme": sset.provenance["scheme"], "beta_or_ab": label,
                         **bounds_row(sset, w, model, band)})
    return rows


_CSV_COLUMNS = ["delta", "scheme", "beta_or_ab", "points", "A", "B", "ratio", "converged"]


def comparison_to_csv(rows: list[dict]) -> str:
    """The rows as CSV text: a header, then one line per row, each ended by
    csv's default CRLF."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
