"""The benchmark's workloads: seeded task lists, how a task runs, and how its
output is checked against a reference.

A workload generates its tasks in passes.  Pass ``k`` of seed ``s`` is drawn
from ``numpy.random.default_rng([s, k])`` and has a fixed number of tasks of
each class, so pass times are comparable across seeds.  A task's ``run`` is
the only timed code; ``check`` runs afterwards and returns ``None`` when the
output agrees with its reference, or a one-line reason when it does not.

The program is reached through ``goldwave.cli.main(argv)`` where a CLI
command exists and through library calls elsewhere.  Functions are looked up
on their module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import reference as ref

import goldwave
import goldwave.cli

SMAX = 0.1  # top of the scale band; the guarded band is then ~22% of the bins
OCTAVES = 6.0
FRAME_TOL = 1e-5  # relative tolerance of A and B against the dense eigensolve
FRAME_STATUS = {0: True, 2: False}  # frame estimate's exit status for converged: true / false
COEFF_TOL = 1e-9  # analysis coefficients, relative to |f| * |atom|


class KnownDefect(str):
    """A check's verdict on an output that misses its reference only in the
    way ROADMAP item 2 describes: the power iteration's A is inexact, or the
    solve reports ``converged: false``.  The task counts against ``ok_frac``
    but not as a failed operation; every guarantee the output must keep is
    still checked, and breaking one is a failure."""


@dataclass
class Task:
    kind: str
    spec: tuple  # the generated inputs
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = goldwave.cli.main(argv)
    return status, buf.getvalue()


def _cli_task(kind: str, argv: list[str], check: Callable[[dict], str | None]) -> Task:
    def checked(output) -> str | None:
        status, text = output
        if status != 0:
            return f"exit status {status}"
        return check(json.loads(text)["result"])

    return Task(kind, tuple(argv), lambda: _cli(argv), checked)


def _rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def _shuffled(rng, tasks: list[Task]) -> list[Task]:
    return [tasks[i] for i in rng.permutation(len(tasks))]


# ---------------------------------------------------------------------------
# verify: the paper's verification commands


class Verify:
    """Rectangle-count audits, covering audits, point counts and wavelet checks."""

    # Per pass: 16 cheap tasks (< 20 ms), 22 medium (~50 ms), 12 wide audits
    # (~0.2 s).  The median then falls inside the medium class and the 90th
    # percentile inside the wide class, each well away from a class boundary.
    MIX = {"count": 5, "sliver": 3, "exact": 5, "wavelet": 3,
           "audit": 14, "cover": 8, "wide_audit": 12}
    AUDITS = (("min", "golden2", 10000), ("max", "golden2", 10000),
              ("min", "inv3p2a", 20000), ("max", "inv3p2a", 20000))
    WIDE_TRIALS = 6000

    def setup(self) -> None:
        pass

    def make_pass(self, rng) -> list[Task]:
        tasks = []
        for kind, count in self.MIX.items():
            for i in range(count):
                tasks.append(getattr(self, "_" + kind)(rng, i))
        return _shuffled(rng, tasks)

    # -- lattice count through the CLI (float path), checked by the exact scan

    def _count_task(self, kind, beta: Fraction, rect: tuple[float, ...]) -> Task:
        argv = ["lattice", "count", "--rect", ",".join(repr(v) for v in rect),
                "--beta", f"{beta.numerator}/{beta.denominator}"]

        def check(result):
            want = ref.lattice_points(beta, tuple(ref.edge(v) for v in rect))
            if result["count"] != len(want):
                return f"count {result['count']} != reference {len(want)}"
            if "points" in result and [(p["n"], p["m"]) for p in result["points"]] != want:
                return "listed points differ from the reference"
            return None

        return _cli_task(kind, argv, check)

    def _count(self, rng, i) -> Task:
        beta = Fraction(int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        area = float(beta) ** 2 * ref.DET * math.exp(rng.uniform(0.0, math.log(150.0)))
        aspect = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        w = math.sqrt(area * aspect)
        a, c = (float(v) for v in rng.uniform(-1000.0, 1000.0, size=2))
        return self._count_task("count", beta, (a, a + w, c, c + area / w))

    def _sliver(self, rng, i) -> Task:
        beta = Fraction(int(rng.integers(4, 9)), 4)
        area = float(beta) ** 2 * ref.DET * rng.uniform(2.0, 10.0)
        aspect = math.exp(rng.uniform(math.log(1e3), math.log(1e5)))
        w = math.sqrt(area * aspect)
        h = area / w
        if i % 2:
            w, h = h, w
        a, c = (float(v) for v in rng.uniform(-1000.0, 1000.0, size=2))
        return self._count_task("sliver", beta, (a, a + w, c, c + h))

    # -- library count_in_rect on exact edges (the goldenring path)

    def _exact(self, rng, i) -> Task:
        p, q = (int(v) for v in rng.integers(1, 8, size=2))
        beta = Fraction(p, q)
        n0, m0, n1, m1 = (int(v) for v in rng.integers(-300, 301, size=4))
        if i % 2:
            # left and bottom edges through lattice points, and a width that
            # is a lattice step, so points sit exactly on the half-open edges
            a = (p * n0, -p * m0, q)
            c = (p * m1, p * n1, q)
            w = beta * int(rng.integers(1, 7))
        else:
            a = ref.edge(Fraction(int(rng.integers(-20000, 20001)), int(rng.integers(1, 20))))
            c = ref.edge(Fraction(int(rng.integers(-20000, 20001)), int(rng.integers(1, 20))))
            w = Fraction(int(rng.integers(1, 400)), int(rng.integers(1, 20)))
        h = Fraction(int(rng.integers(1, 60)), 1) * beta**2 / w
        edges = (a, _shift(a, w), c, _shift(c, h))
        rect = goldwave.Rect.from_exact(*(_program_edge(e) for e in edges))
        spec = goldwave.LatticeSpec(beta=beta)

        def check(count):
            want = len(ref.lattice_points(beta, edges))
            return None if count == want else f"count {count} != reference {want}"

        return Task("exact", (beta, edges), lambda: goldwave.count_in_rect(spec, rect), check)

    # -- wavelet check, against the closed-form Cauchy profile

    def _wavelet(self, rng, i) -> Task:
        p = round(float(rng.uniform(6.0, 9.0)), 3)
        argv = ["wavelet", "check", "--family", "cauchy", "--order", repr(p)]

        def check(result):
            want = ref.cauchy_decay(p)
            if not result["constructible"]:
                return "reported not constructible"
            if abs(result["admissibility_constant"] - 1.0) > 1e-9:
                return f"admissibility constant {result['admissibility_constant']}"
            for cond in result["conditions"]:
                lo, hi = want["tails"][cond["name"]]
                if _rel_err(cond["tail_sup_low"], lo) > 1e-6 or _rel_err(cond["tail_sup_high"], hi) > 1e-6:
                    return f"{cond['name']} tails differ from the closed form"
            if _rel_err(result["l2_weighted"], want["l2"]) > 1e-6:
                return f"l2_weighted {result['l2_weighted']} != closed form {want['l2']}"
            expected = want["l2_tails_ok"] and all(
                max(t) < result["conditions"][0]["threshold"] for t in want["tails"].values())
            if result["passed"] != expected:
                return f"passed={result['passed']}, closed form says {expected}"
            return None

        return _cli_task("wavelet", argv, check)

    # -- lattice audits: witness recount and the paper's count windows

    def _audit_task(self, kind, mode, area, trials, aspect, seed) -> Task:
        argv = ["lattice", "audit", "--mode", mode, "--area", area, "--trials", str(trials),
                "--aspect", aspect, "--seed", str(seed)]

        def check(result):
            if sum(result["histogram"].values()) != result["trials"]:
                return "histogram does not sum to the trial count"
            for key, count in (("witness_min", result["min_count"]),
                               ("witness_max", result["max_count"])):
                recount = len(ref.lattice_points(Fraction(1), tuple(ref.edge(v) for v in result[key])))
                if recount != count:
                    return f"{key} holds {recount} points, reported {count}"
            if area == "golden2" and not (result["min_count"] >= 1 and result["max_count"] <= 12):
                return f"counts [{result['min_count']}, {result['max_count']}] outside [1, 12] at 2+alpha"
            if area == "inv3p2a" and result["max_count"] > 1:
                return f"max count {result['max_count']} > 1 at 1/(3+2alpha)"
            return None

        return _cli_task(kind, argv, check)

    def _audit(self, rng, i) -> Task:
        mode, area, trials = self.AUDITS[i % len(self.AUDITS)]
        return self._audit_task("audit", mode, area, trials, "0.001:1000", int(rng.integers(2**31)))

    def _wide_audit(self, rng, i) -> Task:
        mode = ("min", "max")[i % 2]
        return self._audit_task("wide_audit", mode, "golden2", self.WIDE_TRIALS, "1e-5:1e5",
                                int(rng.integers(2**31)))

    # -- cover audits: every cell of the window holds 1 to 12 points

    def _cover(self, rng, i) -> Task:
        delta = round(float(rng.uniform(0.25, 1.0)), 4)
        k0 = int(rng.integers(-1000, 1001))
        k_range, l_range = (k0 - 200, k0 + 200), (-20, 20)
        argv = ["cover", "audit", "--delta", repr(delta),
                "--k", f"{k_range[0]}:{k_range[1]}", "--l", f"{l_range[0]}:{l_range[1]}"]
        cells = (k_range[1] - k_range[0] + 1) * (l_range[1] - l_range[0] + 1)

        def check(result):
            if result["cells_checked"] != cells:
                return f"cells_checked {result['cells_checked']} != window size {cells}"
            if sum(result["histogram"].values()) != cells:
                return "histogram does not sum to the window size"
            if not (1 <= result["min_count"] and result["max_count"] <= 12):
                return f"cell counts [{result['min_count']}, {result['max_count']}] outside [1, 12]"
            return None

        return _cli_task("cover", argv, check)


def _shift(e: ref.Edge, by: Fraction) -> ref.Edge:
    """The exact edge e + by."""
    e0, e1, den = e
    return (e0 * by.denominator + by.numerator * den, e1 * by.denominator, den * by.denominator)


def _program_edge(e: ref.Edge):
    """goldwave's form of an exact edge: a Fraction, or (GoldenNumber, q)."""
    e0, e1, den = e
    if e1 == 0:
        return Fraction(e0, den)
    return (goldwave.GoldenNumber(e0, e1), den)


# ---------------------------------------------------------------------------
# frame: golden vs dyadic frame bounds


class Frame:
    """frame estimate and frame compare through the CLI."""

    # (model size, scheme, delta or dyadic base, tasks per pass), plus one
    # three-row frame compare at N=512.  The golden delta=1.0 sets at N=512
    # hold the middle 30% of the latencies and the golden delta=0.35 sets at
    # N=1024 the top 20%, so the median and the 90th percentile each fall
    # inside one class.
    MIX = ((512, "golden", 0.35, 2), (512, "golden", 0.5, 2), (512, "golden", 1.0, 6),
           (512, "dyadic", 1.189, 2), (1024, "golden", 0.35, 4), (1024, "golden", 0.5, 1),
           (1024, "golden", 1.0, 1), (1024, "dyadic", 1.189, 1))
    COMPARE_N = 512
    DELTAS = (0.35, 0.5, 1.0)
    COMPARE_A = 2.0**0.25  # the base frame compare documents for its dyadic rows

    def __init__(self):
        self._bounds: dict[tuple, tuple[int, tuple[float, float]]] = {}
        self._b: dict[tuple[int, float], float] = {}

    def setup(self) -> None:
        goldwave.cauchy_wavelet(6.0)

    def make_pass(self, rng) -> list[Task]:
        tasks = []
        for n, scheme, value, count in self.MIX:
            if scheme == "golden":
                flags, key = ["--scheme", "golden", "--delta", repr(value)], ("golden", value)
            else:
                flags, key = ["--scheme", "dyadic", "--a", repr(value)], ("dyadic", value, 1.0)
            tasks += [self._estimate(n, flags, key, rng) for _ in range(count)]
        tasks.append(self._compare(self.COMPARE_N, [self.DELTAS[i] for i in rng.permutation(3)], rng))
        return _shuffled(rng, tasks)

    def _region(self, n: int) -> tuple[float, float, float, float]:
        return (0.0, float(n), SMAX / 2.0**OCTAVES, SMAX)

    def _reference(self, n: int, key: tuple) -> tuple[int, tuple[float, float]]:
        """(point count, (A, B)) of a sample set, cached per set."""
        if (n, key) not in self._bounds:
            region = self._region(n)
            if key[0] == "golden":
                pts = ref.golden_points(key[1] / math.sqrt(2.0 + ref.ALPHA), region)
            else:
                pts = ref.dyadic_points(key[1], key[2], region)
            self._bounds[(n, key)] = (len(pts), ref.frame_bounds(pts, self._band(n), float(n)))
        return self._bounds[(n, key)]

    def _band(self, n: int) -> tuple[int, int]:
        _, duration, smin, smax = self._region(n)
        return ref.guard_band(6.0, smin, smax, n, duration)

    def _check_bounds(self, n, key, row) -> str | None:
        """Failure if the row breaks a guarantee; ``KnownDefect`` if it keeps
        them all but A or B is off ``eigvalsh`` or the solve did not converge.

        The guarantees: the point count of the set, and a bracket that every
        Rayleigh-quotient solve keeps, ``lambda_min <= A <= B <= lambda_max``
        of the band frame operator (to ``FRAME_TOL``), so that an inexact
        solve may report a narrower interval than the spectrum, never a wider
        one."""
        want_points, (want_a, want_b) = self._reference(n, key)
        if row["points"] != want_points:
            return f"{key}: {row['points']} points, reference {want_points}"
        a, b = row["A"], row["B"]
        if not (isinstance(a, float) and isinstance(b, float)):
            return f"{key}: A={a!r}, B={b!r}"
        if not (want_a * (1 - FRAME_TOL) <= a <= b <= want_b * (1 + FRAME_TOL)):
            return (f"{key}: [A, B] = [{a:.6g}, {b:.6g}] outside the spectrum "
                    f"[{want_a:.6g}, {want_b:.6g}]")
        if not isinstance(row["converged"], bool):
            return f"{key}: converged={row['converged']!r}"
        for name, got, want in (("A", a, want_a), ("B", b, want_b)):
            if _rel_err(got, want) > FRAME_TOL:
                return KnownDefect(f"{key}: {name}={got:.6g}, eigvalsh {want:.6g} "
                                   f"(rel. err {_rel_err(got, want):.2g})")
        if not row["converged"]:
            return KnownDefect(f"{key}: converged: false")
        return None

    def _matched_b(self, n: int, delta: float) -> float:
        if (n, delta) not in self._b:
            golden = self._reference(n, ("golden", delta))[0]
            self._b[(n, delta)] = ref.match_dyadic_b(golden, self.COMPARE_A, self._region(n))
        return self._b[(n, delta)]

    def _model_flags(self, n: int, rng) -> list[str]:
        return ["--n", str(n), "--smax", repr(SMAX), "--seed", str(int(rng.integers(2**31)))]

    def _estimate(self, n, scheme_flags, key, rng) -> Task:
        argv = ["frame", "estimate", *scheme_flags, *self._model_flags(n, rng)]

        def check(output):
            status, text = output
            if status not in FRAME_STATUS:
                return f"exit status {status}"
            result = json.loads(text)["result"]
            if tuple(result["band"]) != self._band(n):
                return f"band {result['band']} != {self._band(n)}"
            if result.get("converged") is not FRAME_STATUS[status]:
                return f"exit status {status} with converged: {result.get('converged')!r}"
            return self._check_bounds(n, key, result)

        return Task(f"estimate_{key[0]}_{n}", tuple(argv), lambda: _cli(argv), check)

    def _compare(self, n, deltas, rng) -> Task:
        argv = ["frame", "compare", "--deltas", ",".join(repr(d) for d in deltas),
                *self._model_flags(n, rng)]

        def check(result):
            if sorted((row["delta"], row["scheme"]) for row in result["rows"]) != sorted(
                    (d, s) for d in deltas for s in ("golden", "dyadic")):
                return "rows are not one golden and one dyadic row per delta"
            defect = None
            for row in result["rows"]:
                if row["scheme"] == "golden":
                    key = ("golden", row["delta"])
                else:
                    key = ("dyadic", self.COMPARE_A, self._matched_b(n, row["delta"]))
                verdict = self._check_bounds(n, key, row)
                if verdict is not None and not isinstance(verdict, KnownDefect):
                    return verdict
                defect = defect or verdict
            return defect

        return _cli_task(f"compare_{n}", argv, check)


# ---------------------------------------------------------------------------
# analysis: many signals read against one fixed golden point set


class Analysis:
    """Library analysis, frame operator and regular-grid CWT on random signals."""

    MIX = {"analysis": 16, "frame_operator": 16, "cwt_regular": 8}
    N = 1024
    DELTA = 0.35
    SCALES = 256
    SAMPLE = 64  # points checked by direct evaluation per task
    GRAM_BLOCK = 128

    def setup(self) -> None:
        region = goldwave.Rect(0.0, float(self.N), SMAX / 2.0**OCTAVES, SMAX)
        self.wavelet = goldwave.cauchy_wavelet(6.0)
        self.sset = goldwave.golden_sample_set(self.DELTA, region)
        self.scales = np.geomspace(region.c, region.d, self.SCALES)
        self.bins = np.arange(1, self.N // 2)
        self._gram = None

    def _atoms(self, rows) -> np.ndarray:
        """Reference atoms of the fixed set's points ``rows``."""
        return ref.cauchy_atoms(6.0, self.sset.points[rows], self.bins, float(self.N))

    @property
    def gram(self) -> np.ndarray:
        """``A.T @ A.conj()`` for the reference atom matrix A of the whole set,
        so that the energy ``sum_p |<f, a_p>|**2`` is ``f^H G f``.  Built on
        first use, out of the program's setup time, from blocks of
        ``GRAM_BLOCK`` atoms, so that no atom matrix of the whole set is held."""
        if self._gram is None:
            gram = np.zeros((len(self.bins), len(self.bins)), dtype=complex)
            for lo in range(0, len(self.sset), self.GRAM_BLOCK):
                block = self._atoms(slice(lo, lo + self.GRAM_BLOCK))
                gram += block.T @ block.conj()
            self._gram = gram
        return self._gram

    def make_pass(self, rng) -> list[Task]:
        tasks = []
        for kind, count in self.MIX.items():
            for _ in range(count):
                coeffs = rng.standard_normal(self.N // 2 - 1) + 1j * rng.standard_normal(self.N // 2 - 1)
                f = goldwave.SignalModel(self.N, float(self.N), coeffs)
                tasks.append(getattr(self, "_" + kind)(f, rng))
        return _shuffled(rng, tasks)

    def _coeff_error(self, got: np.ndarray, want: np.ndarray, atom_norms: np.ndarray, f) -> float:
        return float(np.max(np.abs(got - want) / (atom_norms * f.norm())))

    def _analysis(self, f, rng) -> Task:
        sample = rng.choice(len(self.sset), size=self.SAMPLE, replace=False)
        fl = goldwave.framelab

        def check(coeffs):
            if coeffs.shape != (len(self.sset),):
                return f"shape {coeffs.shape}"
            sub = self._atoms(sample)
            err = self._coeff_error(coeffs[sample], sub.conj() @ f.coeffs,
                                    np.linalg.norm(sub, axis=1), f)
            return None if err <= COEFF_TOL else f"coefficient error {err:.2g}"

        return Task("analysis", ("analysis", f.coeffs.tobytes(), sample.tobytes()),
                    lambda: fl.analysis(f, self.sset, self.wavelet), check)

    def _frame_operator(self, f, rng) -> Task:
        fl = goldwave.framelab

        def check(sf):
            energy = float(np.real(f.coeffs.conj() @ self.gram @ f.coeffs))
            err = abs(sf.inner(f) - energy) / energy
            return None if err <= COEFF_TOL else f"<Sf, f> differs from |analysis f|^2 by {err:.2g}"

        return Task("frame_operator", ("frame_operator", f.coeffs.tobytes()),
                    lambda: fl.frame_operator_apply(f, self.sset, self.wavelet), check)

    def _cwt_regular(self, f, rng) -> Task:
        picks = np.column_stack([rng.integers(0, self.SCALES, self.SAMPLE),
                                 rng.integers(0, self.N, self.SAMPLE)])
        wv = goldwave.wavelet

        def run():
            return [wv.cwt_regular(f, self.wavelet, s) for s in self.scales]

        def check(rows):
            pts = np.column_stack([picks[:, 1] * (f.duration / f.length), self.scales[picks[:, 0]]])
            atoms = ref.cauchy_atoms(6.0, pts, self.bins, f.duration)
            got = np.array([rows[i][r] for i, r in picks])
            err = self._coeff_error(got, atoms.conj() @ f.coeffs, np.linalg.norm(atoms, axis=1), f)
            return None if err <= COEFF_TOL else f"coefficient error {err:.2g}"

        return Task("cwt_regular", ("cwt_regular", f.coeffs.tobytes(), picks.tobytes()), run, check)


WORKLOADS = {"verify": Verify, "frame": Frame, "analysis": Analysis}
