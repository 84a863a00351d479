"""Acceptance gate: twelve binding criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines on success).
"""

import contextlib
import io
import json
import math
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import simpson

from goldwave.cli import main as cli_main
from goldwave.covering import audit_cover, beta_for_delta
from goldwave.framelab import (
    analysis,
    estimate_bounds,
    frame_operator_apply,
    golden_sample_set,
    guard_band,
)
from goldwave.goldenring import (
    ALPHA,
    ALPHA_FLOAT,
    TWO_PLUS_ALPHA,
    alpha_power,
    fibonacci,
    power_sum_identity,
)
from goldwave.lattice import (
    LatticeSpec,
    Rect,
    audit_max_count,
    audit_min_count,
    diophantine_bound_holds,
    enumerate_in_rect,
)
from goldwave.wavelet import (
    SignalModel,
    admissibility_constant,
    cauchy_wavelet,
    cwt_regular,
)

AREA_MIN = 2.0 + ALPHA_FLOAT
AREA_MAX = 1.0 / (3.0 + 2.0 * ALPHA_FLOAT)


def report(num: int, desc: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {tag}: {desc}{suffix}", flush=True)
    assert passed, f"criterion {num} failed: {desc} {suffix}"


def test_criterion_01_exact_identities():
    ok = True
    acc = ALPHA
    for n in range(1, 81):
        ok = ok and alpha_power(n) == acc
        ok = ok and power_sum_identity(n) == TWO_PLUS_ALPHA
        acc = acc * ALPHA
    report(1, "exact power and power-sum identities, n in [1, 80]", ok)


def test_criterion_02_min_count_audit():
    t0 = time.time()
    audit = audit_min_count(AREA_MIN, 100_000, seed=0)
    dt = time.time() - t0
    report(
        2,
        "1e5 rectangles of area 2+alpha all contain a point",
        audit.min_count >= 1 and dt < 30,
        f"min={audit.min_count}, {dt:.1f}s",
    )


def test_criterion_03_max_count_audit():
    t0 = time.time()
    audit = audit_max_count(AREA_MAX, 100_000, seed=0)
    dt = time.time() - t0
    report(
        3,
        "1e5 rectangles of area 1/(3+2alpha) hold at most one point",
        audit.max_count <= 1 and dt < 30,
        f"max={audit.max_count}, {dt:.1f}s",
    )


def test_criterion_04_count_window():
    t0 = time.time()
    audit = audit_max_count(AREA_MIN, 100_000, seed=0)
    low = audit_min_count(AREA_MIN, 100_000, seed=0)
    dt = time.time() - t0
    ok = low.min_count >= 1 and audit.max_count <= 12 and dt < 30
    report(
        4,
        "1e5 rectangles of area 2+alpha: counts within [1, 12]",
        ok,
        f"empirical range [{low.min_count}, {audit.max_count}], {dt:.1f}s",
    )


def test_criterion_05_diophantine_bound():
    t0 = time.time()
    ok = all(
        diophantine_bound_holds(fibonacci(k), -fibonacci(k - 1)) for k in range(1, 41)
    )
    dt = time.time() - t0
    report(
        5,
        "exact badly-approximable bound on Fibonacci convergents, k <= 40",
        ok and dt < 1,
        f"{dt:.2f}s",
    )


def test_criterion_06_cover_audit():
    # the lattice scale used is delta / sqrt(2 + alpha): the unique isotropic
    # scale under which each cell rescales to the critical area 2 + alpha,
    # which is what the [1, 12] cell-count conclusion requires
    t0 = time.time()
    ok = True
    detail = []
    for delta in (0.25, 0.5, 1.0):
        audit = audit_cover(delta, beta=beta_for_delta(delta),
                            k_range=(-500, 500), l_range=(-30, 30))
        ok = ok and 1 <= audit.min_count and audit.max_count <= 12
        detail.append(f"d={delta}: [{audit.min_count},{audit.max_count}]")
    dt = time.time() - t0
    report(
        6,
        "all covering cells |k|<=500, |l|<=30 hold 1..12 lattice points",
        ok and dt < 120,
        "; ".join(detail) + f", {dt:.1f}s",
    )


def test_criterion_07_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(0)
    radius = 60
    grid_n, grid_m = np.meshgrid(
        np.arange(-radius, radius + 1), np.arange(-radius, radius + 1), indexing="ij"
    )
    alpha_ld = (np.longdouble(5) ** np.longdouble(0.5) - 1) / 2
    x0 = grid_n.astype(np.longdouble) - grid_m.astype(np.longdouble) * alpha_ld
    s0 = grid_m.astype(np.longdouble) + grid_n.astype(np.longdouble) * alpha_ld
    mismatches = 0
    for _ in range(10_000):
        beta = Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 13)))
        if beta < Fraction(1, 2):
            beta = 1 / beta
        bf = np.longdouble(beta.numerator) / np.longdouble(beta.denominator)
        cx, cy = rng.uniform(-10, 10, 2)
        w, h = rng.uniform(0.1, 4.0, 2)
        rect = Rect(cx, cx + w, cy, cy + h)
        inside = (
            (bf * x0 >= rect.a) & (bf * x0 < rect.b)
            & (bf * s0 >= rect.c) & (bf * s0 < rect.d)
        )
        oracle = set(zip(grid_n[inside].tolist(), grid_m[inside].tolist()))
        got = set(map(tuple, enumerate_in_rect(LatticeSpec(beta=beta), rect).tolist()))
        if got != oracle:
            mismatches += 1
    dt = time.time() - t0
    report(
        7,
        "enumeration equals brute-force integer-box scan on 1e4 instances",
        mismatches == 0 and dt < 60,
        f"{mismatches} mismatches, {dt:.1f}s",
    )


def test_criterion_08_admissibility():
    t0 = time.time()
    w = cauchy_wavelet(6.0)
    c_norm = admissibility_constant(w)
    raw = admissibility_constant(cauchy_wavelet(6.0, normalize=False))
    oracle = math.gamma(12.0) / 2**12
    ok = abs(c_norm - 1.0) <= 1e-6 and abs(raw - oracle) / oracle <= 1e-6
    dt = time.time() - t0
    report(
        8,
        "normalized Cauchy p=6 admissibility equals 1 against the Gamma(2p)/2^(2p) oracle",
        ok and dt < 1,
        f"C={c_norm:.9f}, raw rel err {abs(raw - oracle) / oracle:.2e}, {dt:.2f}s",
    )


def test_criterion_09_parseval_surrogate():
    t0 = time.time()
    w = cauchy_wavelet(6.0)
    n, t_dur = 2048, 2048.0
    xi = np.arange(1, n // 2) / t_dur
    f = SignalModel(
        n, t_dur, np.exp(-((xi - 0.05) ** 2) / (2 * 0.005**2)).astype(complex)
    )
    u = np.linspace(math.log(1e-3), math.log(0.2), 601)
    ss = np.exp(u)
    per_scale = np.array(
        [np.sum(np.abs(cwt_regular(f, w, s)) ** 2) * (t_dur / n) for s in ss]
    )
    total = float(simpson(per_scale * ss, x=u))
    target = f.norm() ** 2
    rel = abs(total - target) / target
    dt = time.time() - t0
    report(
        9,
        "dense-grid energy integral reproduces the tight-frame identity",
        rel <= 0.02 and dt < 60,
        f"rel err {rel:.2e}, {dt:.1f}s",
    )


def test_criterion_10_frame_bound_suite():
    t0 = time.time()
    w = cauchy_wavelet(6.0)
    model = SignalModel.zeros(4096, 4096.0)
    region = Rect(0.0, 4096.0, 0.06 / 64, 0.06)
    band = guard_band(w, region, model, guard_octaves=2.0)
    est = estimate_bounds(golden_sample_set(0.35, region), w, model, band)
    ratios = {}
    for delta in (0.25, 1.0):
        e = estimate_bounds(golden_sample_set(delta, region), w, model, band)
        ratios[delta] = e.ratio
    ok = (
        est.lower > 0
        and math.isfinite(est.upper)
        and est.converged
        and ratios[0.25] <= ratios[1.0] * 1.05
    )
    dt = time.time() - t0
    report(
        10,
        "golden set delta=0.35 frames the guarded band; conditioning improves with density",
        ok and dt < 600,
        f"A={est.lower:.3f}, B={est.upper:.3f}, B/A(0.25)={ratios[0.25]:.3f}, "
        f"B/A(1.0)={ratios[1.0]:.3g}, {dt:.1f}s",
    )


def test_criterion_11_operator_identities():
    t0 = time.time()
    w = cauchy_wavelet(6.0)
    model = SignalModel.zeros(1024, 1024.0)
    region = Rect(0.0, 1024.0, 0.1 / 64, 0.1)
    sset = golden_sample_set(0.7, region)
    rng = np.random.default_rng(0)
    worst_quad = 0.0
    worst_sym = 0.0
    dim = model.length // 2 - 1
    for _ in range(50):
        f = SignalModel(1024, 1024.0, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        g = SignalModel(1024, 1024.0, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        sf = frame_operator_apply(f, sset, w)
        sg = frame_operator_apply(g, sset, w)
        quad = float(np.sum(np.abs(analysis(f, sset, w)) ** 2))
        worst_quad = max(worst_quad, abs(sf.inner(f).real - quad) / max(quad, 1.0))
        worst_sym = max(
            worst_sym, abs(sf.inner(g) - f.inner(sg)) / (f.norm() * g.norm())
        )
    ok = worst_quad <= 1e-12 and worst_sym <= 1e-10
    dt = time.time() - t0
    report(
        11,
        "frame operator quadratic-form and self-adjointness identities on 100 random signals",
        ok and dt < 60,
        f"quad {worst_quad:.1e}, sym {worst_sym:.1e}, {dt:.1f}s",
    )


def test_criterion_12_cli_reproducibility():
    t0 = time.time()
    args = [
        "lattice", "audit", "--mode", "min", "--area", "golden2",
        "--trials", "2000", "--seed", "42",
    ]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(args)
        outs.append(buf.getvalue())
        assert rc == 0
    dt = time.time() - t0
    ok = outs[0] == outs[1] and len(outs[0]) > 0 and dt < 10
    json.loads(outs[0])  # well-formed
    report(12, "identical flags and seed give byte-identical JSON", ok, f"{dt:.1f}s")
