"""goldwave benchmark: one workload, closed loop, one task at a time.

    python3 bench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Runs in a fresh process against the goldwave sources next to this directory
(``src/``).  The workload's tasks come from ``--seed``; they run in passes
of a fixed task mix until at least ``MIN_TASKS`` tasks are done and the next
pass would end after ``--seconds``.  Every output is checked against a
reference computed outside the timed region.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1``, the per-layer metrics from
tasks run with span tracing, each paired with an untraced run of the same
task, and every span written to ``bench/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS = HERE / "spans.jsonl"  # every span of the last traced run
MIN_TASKS = 100  # so at least 10 task samples lie beyond the 90th percentile
SETUP_PROCESSES = 7  # fresh processes per run; setup_s is their median
DEADLINE_S = 150.0  # stop starting passes after this long, whatever the task count
BLAS_THREADS = 1  # two BLAS threads on a shared two-core host stall whenever a neighbour runs
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_s": "s",
    "task_p90_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """q-th percentile, linear between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(values: list[float], threshold: float) -> int:
    return sum(v > threshold for v in values)


def import_program():
    """Import goldwave from this checkout's sources, never from elsewhere."""
    if not (SRC / "goldwave" / "__init__.py").is_file():
        raise ImportError(f"no goldwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import goldwave
    import goldwave.cli  # noqa: F401

    if Path(goldwave.__file__).resolve().parent != SRC / "goldwave":
        raise ImportError(f"goldwave was imported from {goldwave.__file__}, not {SRC}")
    return goldwave


def probe_setup(workload: str) -> float:
    """Set-up time of a fresh process: import plus the workload's program setup."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    workloads.WORKLOADS[workload]().setup()
    return time.perf_counter() - t0


def setup_time(workload: str) -> float:
    """``probe_setup`` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", workload],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def host_info(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, if an OpenBLAS library is loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def workload_why(name: str) -> str:
    """The workload's reason for being, as BENCHMARK.json records it."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return "unknown"
    whys = {w["name"]: w["why"] for w in json.loads(path.read_text())["workloads"]}
    return whys.get(name, "unknown")


class Runner:
    """Runs passes of a workload and records latencies and failures."""

    def __init__(self, workload, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.defects: list[tuple[str, str]] = []  # outputs inexact in the known way
        self.attempted = 0

    def tasks(self, k: int):
        import numpy as np

        return self.workload.make_pass(np.random.default_rng([self.seed, k]))

    def run_task(self, task) -> float:
        """Run one task, then check its output; returns its latency."""
        span = (self.tracer.task_span(self.attempted, f"task.{task.kind}")
                if self.tracer else contextlib.nullcontext())
        output, error = None, None
        with span:
            t0 = time.perf_counter()
            try:
                output = task.run()
            except Exception as exc:  # a task that raises is a failed task
                error = f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        self.attempted += 1
        self.latencies.append(dt)
        if error is None:
            error = task.check(output)
        from workloads import KnownDefect

        if isinstance(error, KnownDefect):
            self.defects.append((task.kind, error))
        elif error is not None:
            self.failures.append((task.kind, error))
        return dt

    def run_pass(self, k: int) -> float:
        """Run pass k; returns the pass's time, the sum of its task latencies."""
        return sum(self.run_task(task) for task in self.tasks(k))


def run_passes(runner: Runner, seconds: float, min_tasks: int,
               probe=None, probes: int = 0) -> tuple[list[float], list[float]]:
    """Passes until at least ``min_tasks`` tasks are done and the next pass
    would end after ``seconds``; returns the pass times and the results of
    ``probes`` calls of ``probe``, spread evenly over the run so that they
    meet the same host conditions as the passes."""
    walls, probed = [], []
    start = time.perf_counter()
    longest = probe_cost = 0.0
    while True:
        due = min(probes, 1 + int(probes * (time.perf_counter() - start) / seconds))
        while len(probed) < due:
            t0 = time.perf_counter()
            probed.append(probe())
            probe_cost = max(probe_cost, time.perf_counter() - t0)
        t0 = time.perf_counter()
        walls.append(runner.run_pass(len(walls)))
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        owed = probe_cost * (probes - len(probed))
        if elapsed >= DEADLINE_S or (runner.attempted >= min_tasks
                                     and elapsed + longest + owed > seconds):
            break
    while len(probed) < probes:
        probed.append(probe())
    return walls, probed


def failure_lines(failures: list[tuple[str, str]], label: str = "failed") -> list[str]:
    by_kind: dict[str, list[str]] = {}
    for kind, error in failures:
        by_kind.setdefault(kind, []).append(error)
    return [f"# {label} {kind}: {len(errs)} (first: {errs[0]})" for kind, errs in sorted(by_kind.items())]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["verify", "frame", "analysis"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads; set-up probes inherit it
    if args.probe_setup:
        print(repr(probe_setup(args.probe_setup)))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 1
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup()
    host = host_info(args)
    print(f"# goldwave benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# why: {workload_why(args.workload)}")
    print("# host: " + json.dumps(host, sort_keys=True))

    if args.trace:
        metrics, units, runner = traced_run(workload, args)
    else:
        metrics, units, runner = untraced_run(workload, args)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for line in failure_lines(runner.failures) + failure_lines(runner.defects, "known defect"):
        print(line)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def untraced_run(workload, args):
    runner = Runner(workload, args.seed)
    walls, setups = run_passes(runner, args.seconds, MIN_TASKS,
                               lambda: setup_time(args.workload), SETUP_PROCESSES)
    lat = runner.latencies
    missed = len(runner.failures) + len(runner.defects)
    failed_frac = missed / runner.attempted
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "task_p50_s": percentile(lat, 50),
        "task_p90_s": percentile(lat, 90),
        "ok_frac": 1.0 - failed_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"# {len(walls)} passes, {runner.attempted} task samples, "
          f"{samples_beyond(lat, metrics['task_p90_s'])} beyond p90; "
          f"setup_s is the median of {len(setups)} fresh processes")
    print(f"failed_frac {failed_frac:.6g} ratio ({missed} of {runner.attempted}: "
          f"{len(runner.failures)} failed, {len(runner.defects)} the known frame-bound defect)")
    return metrics, END_TO_END, runner


class PairedRunner:
    """Runs every task twice with the same inputs, untraced and traced, one
    right after the other and in alternating order, so that both runs of a
    task meet the same host conditions."""

    def __init__(self, plain: Runner, traced: Runner):
        self.plain, self.traced = plain, traced
        self.attempted = 0

    def run_pass(self, k: int) -> float:
        """Run pass k; returns its traced minus its untraced time."""
        overhead = 0.0
        for j, task in enumerate(self.plain.tasks(k)):
            if j % 2:
                overhead += self.traced.run_task(task)
                overhead -= self.plain.run_task(task)
            else:
                overhead -= self.plain.run_task(task)
                overhead += self.traced.run_task(task)
        self.attempted = self.plain.attempted + self.traced.attempted
        return overhead


def traced_run(workload, args):
    """Passes run untraced and traced with the same inputs until
    ``--seconds`` have passed; spans are written to ``SPANS`` at the end.

    The per-layer metrics are per traced pass; ``trace.overhead_s`` is the
    median over passes of traced minus untraced pass time, and
    ``trace.overhead_computed_s`` the spans per pass times the cost of one
    span measured on a no-op."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)  # wrappers stay switched off outside traced tasks
    plain = Runner(workload, args.seed)
    traced = Runner(workload, args.seed, tracer)
    overheads, _ = run_passes(PairedRunner(plain, traced), args.seconds, MIN_TASKS)
    metrics = tracing.layer_metrics(tracer, len(overheads))
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.spans"] = len(tracer.t0) / len(overheads)
    metrics["trace.overhead_computed_s"] = metrics["trace.spans"] * tracing.span_cost()
    tracing.write_spans(tracer, SPANS)
    print(f"# {len(tracer.t0)} spans of {len(overheads)} traced passes written to "
          f"{SPANS.relative_to(ROOT)}")
    units = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    units.update({"trace.overhead_s": "s", "trace.spans": "count", "trace.overhead_computed_s": "s"})
    plain.failures += traced.failures
    plain.defects += traced.defects
    plain.attempted += traced.attempted
    return metrics, units, plain


if __name__ == "__main__":
    sys.exit(main())
