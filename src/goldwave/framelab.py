"""Discrete wavelet sample sets and empirical frame-bound estimation.

A sample set is a finite family of phase-space points (x, s), s > 0, inside
a rectangular region.  Two constructions are provided: the scaled golden
lattice beta * Gamma intersected with the region, and the classical dyadic
scheme {(a**-j * l * b, a**j)}.  The frame operator of the induced wavelet
family is applied in the frequency domain, and its spectral extremes on a
band-restricted subspace (the empirical frame bounds) come from one dense
Hermitian eigensolve.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .covering import beta_for_delta
from .lattice import _DEFAULT_CAP, EnumerationCapError, LatticeSpec, Rect
from .lattice import enumerate_in_rect, lattice_coords
from .wavelet import MotherWavelet, SignalModel, _atom_matrix, _row_blocks, cwt
from .wavelet import _atom_factors, _cauchy_cwt

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
    "compare_schemes",
    "comparison_to_csv",
]


class RankDeficiencyError(Exception):
    """Fewer sample points than band dimensions: the lower bound is
    structurally zero, not a numerical result."""


@dataclass(frozen=True)
class SampleSet:
    """Finite set of phase-space points with construction provenance."""

    points: np.ndarray
    provenance: dict

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if pts.size and np.any(pts[:, 1] <= 0):
            raise ValueError("all scales must be positive")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def empty(self) -> bool:
        return self.points.shape[0] == 0


@dataclass(frozen=True)
class FrameEstimate:
    """Empirical frame bounds on a band-restricted subspace.  ``iterations``
    is always 0: the solve is direct."""

    lower: float
    upper: float
    ratio: float
    iterations: int
    residuals: dict
    restricted_band: tuple[int, int]
    converged: bool


def golden_sample_set(
    delta: float, region: Rect, beta: float | None = None
) -> SampleSet:
    """Points of beta * Gamma inside the region (upper half-plane only).

    beta defaults to the covering-derived scale for delta.  An empty result
    is allowed and reported through the ``empty`` flag, not raised.
    """
    if not region.c > 0:
        raise ValueError("region must lie in the upper half-plane")
    if beta is None:
        beta = beta_for_delta(delta)
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
    """Wavelet coefficients of f at the sample points, in point order."""
    return cwt(f, w, sset.points)


def frame_operator_apply(f: SignalModel, sset: SampleSet, w: MotherWavelet) -> SignalModel:
    """S f = sum over sample points of <f, atom> * atom, in the model.

    For a Cauchy wavelet, with u the vector of <f, atom>, the sum is
    col * ((u * zc).T @ zf) on the (coarse, R) bin grid, exactly, since
    each atom coefficient is zc[k, q] * zf[k, r] * col[q, r] with col
    shared by all points (``wavelet._atom_factors``); no atom matrix is
    formed.  Other wavelets sum over blocks of atom rows.
    """
    pts = sset.points
    if w.cauchy_order is not None:
        factors = zc, zf, col = _atom_factors(w, pts, f)
        u = _cauchy_cwt(factors, f.coeffs)
        sf = col * ((u[:, None] * zc).T @ zf)
        return SignalModel(f.length, f.duration, sf.ravel()[: f.coeffs.size])
    out = np.zeros(f.coeffs.shape, dtype=complex)
    fc = f.coeffs.conj()
    for rows in _row_blocks(pts.shape[0], fc.size):
        atoms = _atom_matrix(w, pts[rows], f)
        out += (atoms @ fc).conj() @ atoms
    return SignalModel(f.length, f.duration, out)


def guard_band(
    w: MotherWavelet,
    region: Rect,
    model: SignalModel,
    guard_octaves: float = 2.0,
) -> tuple[int, int]:
    """Interior frequency band (bin indices, inclusive) with a guard margin.

    Atoms at scale s concentrate near frequency s * xi_peak; scales within
    ``guard_octaves`` of the region's s-extremes are excluded so that
    region-truncation effects do not contaminate the band.
    """
    grid = np.exp(np.linspace(math.log(1e-4), math.log(100.0), 20001))
    xi_peak = float(grid[np.argmax(np.abs(w(grid)))])
    try:
        g = 2.0**guard_octaves
        xi_lo = region.c * g * xi_peak
        xi_hi = region.d / g * xi_peak
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


# largest relative eigen-residual ||G v - lambda v|| / B that counts as solved
_RESIDUAL_TOL = 1e-10


def estimate_bounds(
    sset: SampleSet,
    w: MotherWavelet,
    model: SignalModel,
    band: tuple[int, int],
) -> FrameEstimate:
    """Frame bounds of the sample set on the band subspace.

    A and B are the extreme eigenvalues of the band Gram matrix
    G = M^T conj(M), the frame operator restricted to the band, from one
    dense Hermitian eigensolve; M is built from the factors of ``cwt`` and
    ``frame_operator_apply`` (``wavelet._atom_factors``).  The certificate
    is the larger relative eigen-residual ||G v - lambda v|| / B of the two
    extreme pairs; ``converged`` holds when it is at most 1e-10 and A is
    resolved, A > dim * eps * B.  Fewer points than band dimensions raises
    RankDeficiencyError rather than returning a structurally-zero A.
    """
    if not 1 <= band[0] <= band[1] <= model.length // 2 - 2:
        raise ValueError(f"band {band} not strictly inside the model bins")
    m = _atom_matrix(w, sset.points, model, band)
    npts, dim = m.shape
    if npts < dim:
        raise RankDeficiencyError(
            f"{npts} sample points cannot frame a {dim}-dimensional band; "
            "the lower bound is structurally zero"
        )
    # zherk forms the upper triangle of G only: half the work of m.T @ m.conj().
    # Imported here: loading scipy.linalg would add 0.1 s to every other command.
    from scipy.linalg.blas import zherk

    lam, vecs = np.linalg.eigh(zherk(1.0, m.T), UPLO="U")
    lower, upper = float(lam[0]), float(lam[-1])
    ends = vecs[:, [0, -1]]
    g_ends = m.T @ (m @ ends.conj()).conj()  # G @ ends, from M itself
    misfit = float(np.linalg.norm(g_ends - ends * lam[[0, -1]], axis=0).max())
    residual = misfit / upper if upper > 0 else math.inf
    floor = dim * math.ulp(1.0) * upper  # dim * eps * B
    return FrameEstimate(
        lower=lower,
        upper=upper,
        ratio=upper / lower if lower > 0 else math.inf,
        iterations=0,
        residuals={
            "method": "dense-eigh",
            "rel_residual": residual,
            "residual_tol": _RESIDUAL_TOL,
            "resolution_floor": floor,
        },
        restricted_band=(int(band[0]), int(band[1])),
        converged=residual <= _RESIDUAL_TOL and lower > floor,
    )


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
    set of base 2**0.25 with the same region and a point count matched
    within 2%, and ``estimate_bounds`` is run on both.  Rows are plain dicts
    ready for CSV or JSON serialization.
    """
    rows = []
    for delta in delta_list:
        golden = golden_sample_set(delta, region)
        dyadic = _match_dyadic_density(len(golden), 2.0**0.25, region)
        for sset in (golden, dyadic):
            prov = sset.provenance
            if prov["scheme"] == "golden":
                label = f"beta={prov['beta']:.6g}"
            else:
                label = f"a={prov['a']:.6g},b={prov['b']:.6g}"
            row = {
                "delta": float(delta),
                "scheme": prov["scheme"],
                "beta_or_ab": label,
                "points": len(sset),
            }
            try:
                est = estimate_bounds(sset, w, model, band)
                row.update(A=est.lower, B=est.upper, ratio=est.ratio,
                           converged=est.converged, diagnostics=est.residuals)
            except RankDeficiencyError as exc:
                row.update(A=0.0, B=math.nan, ratio=math.inf,
                           converged=False, diagnostics={"error": str(exc)})
            rows.append(row)
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
