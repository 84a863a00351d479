"""Tests of the benchmark itself: checks, statistics, tracing, task generation.

    python3 -m pytest -q bench/tests
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import tracing
import workloads

BENCH = run.HERE


def first(tasks, kind):
    return next(t for t in tasks if t.kind == kind)


def verify_pass(seed=1, k=0):
    return workloads.Verify().make_pass(np.random.default_rng([seed, k]))


# -- a perturbed answer is marked failed


def test_exact_count_perturbed_is_failed():
    task = first(verify_pass(), "exact")
    count = task.run()
    assert task.check(count) is None
    assert task.check(count + 1) is not None


def test_cli_count_perturbed_is_failed():
    task = first(verify_pass(), "count")
    status, text = task.run()
    assert task.check((status, text)) is None
    doc = json.loads(text)
    doc["result"]["count"] += 1
    assert task.check((status, json.dumps(doc))) is not None
    assert task.check((2, text)) is not None


def test_audit_perturbed_witness_is_failed():
    task = first(verify_pass(), "audit")
    status, text = task.run()
    assert task.check((status, text)) is None
    doc = json.loads(text)
    doc["result"]["min_count"] += 1
    doc["result"]["histogram"] = {"99": doc["result"]["trials"]}
    assert task.check((status, json.dumps(doc))) is not None


def test_frame_bound_perturbed_is_failed():
    frame = workloads.Frame()
    rng = np.random.default_rng(0)
    task = frame._estimate(512, ["--scheme", "golden", "--delta", "0.5"], ("golden", 0.5), rng)
    status, text = task.run()
    assert task.check((status, text)) is None

    def verdict(status=status, **changes):
        doc = json.loads(text)
        for key, scale in changes.items():
            doc["result"][key] = doc["result"][key] * scale if scale is not False else False
        return task.check((status, json.dumps(doc)))

    # outside the spectrum [lambda_min, lambda_max]: a broken guarantee
    for bad in (verdict(A=1 - 10 * workloads.FRAME_TOL), verdict(B=1 + 10 * workloads.FRAME_TOL),
                verdict(points=2), verdict(status=1), verdict(converged=False)):
        assert bad is not None and not isinstance(bad, workloads.KnownDefect)
    # inside the spectrum but off eigvalsh, or unconverged: the known defect
    for known in (verdict(A=1 + 10 * workloads.FRAME_TOL), verdict(B=1 - 10 * workloads.FRAME_TOL),
                  verdict(status=2, converged=False)):
        assert isinstance(known, workloads.KnownDefect)


def test_known_defect_is_not_a_failed_operation():
    failing = [workloads.Task("ok", (), lambda: 1, lambda out: None),
               workloads.Task("inexact", (), lambda: 1, lambda out: workloads.KnownDefect("A off")),
               workloads.Task("wrong", (), lambda: 1, lambda out: "count off")]
    runner = run.Runner(None, seed=1)
    for task in failing:
        runner.run_task(task)
    assert [kind for kind, _ in runner.failures] == ["wrong"]
    assert [kind for kind, _ in runner.defects] == ["inexact"]
    assert runner.attempted == 3


def test_analysis_perturbed_coefficient_is_failed():
    wl = workloads.Analysis()
    wl.setup()
    rng = np.random.default_rng(0)
    f = workloads.goldwave.SignalModel(wl.N, float(wl.N), rng.standard_normal(wl.N // 2 - 1) + 0j)
    task = wl._analysis(f, rng)
    coeffs = task.run()
    assert task.check(coeffs) is None
    bad = coeffs.copy()
    bad[:] *= 1 + 1e-6
    assert task.check(bad) is not None


# -- statistics


@pytest.mark.parametrize("n", [1, 2, 7, 100, 101, 250])
def test_percentile_matches_numpy(n):
    values = list(np.random.default_rng(n).exponential(size=n))
    for q in (0, 50, 90, 100):
        assert math.isclose(run.percentile(values, q), float(np.percentile(values, q)))


def test_p90_sample_count():
    values = [float(v) for v in range(1, 101)]
    p90 = run.percentile(values, 90)
    assert p90 == pytest.approx(90.1)
    assert run.samples_beyond(values, p90) == 10


# -- tracing


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping), a grandchild
    # [2, 3] under the first child, and a child [9, 12] running past the root
    t0 = [0.0, 1.0, 3.0, 2.0, 9.0]
    t1 = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert tracing.self_times(t0, t1, parent) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_tracer_records_nested_spans_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap("m.inner", lambda n: list(range(n)), counter=lambda a, k, r: {"items": len(r)})
    outer = tracer.wrap("m.outer", lambda: inner(3) + inner(4))
    outer()  # outside a task span: not recorded
    with tracer.task_span(7, "task.x"):
        outer()
    agg = tracing.aggregate(tracer)
    assert agg["m.outer"]["calls"] == 1 and agg["m.inner"]["calls"] == 2
    assert agg["m.inner"]["items"] == 7
    assert set(tracer.task) == {7}
    assert agg["task.x"]["total_s"] >= agg["m.outer"]["total_s"] >= agg["m.inner"]["total_s"]


def test_spans_are_written_one_json_object_per_line(tmp_path):
    tracer = tracing.Tracer()
    inner = tracer.wrap("m.inner", lambda: None)
    with tracer.task_span(0, "task.x"):
        inner()
    path = tmp_path / "spans.jsonl"
    tracing.write_spans(tracer, str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(s["name"], s["parent"], s["task"]) for s in spans] == [("task.x", -1, 0), ("m.inner", 0, 0)]
    assert all(s["t0"] <= s["t1"] for s in spans)


def test_traced_run_pairs_tasks_and_writes_its_spans(tmp_path, monkeypatch):
    class Cheap:
        def make_pass(self, rng):
            sleeps = rng.uniform(0.0, 1e-4, size=10)
            return [workloads.Task("cheap", (s,), lambda s=s: time.sleep(s), lambda out: None)
                    for s in sleeps]

    monkeypatch.setattr(run, "SPANS", tmp_path / "spans.jsonl")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    args = argparse.Namespace(seed=1, seconds=1)
    metrics, units, runner = run.traced_run(Cheap(), args)
    assert runner.attempted >= run.MIN_TASKS and not runner.failures
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == runner.attempted // 2
    assert {s["name"] for s in spans} == {"task.cheap"}
    assert metrics["trace.spans"] * (runner.attempted // 20) == len(spans)
    assert metrics["trace.overhead_computed_s"] > 0
    assert set(metrics) == set(units)


# -- task generation


@pytest.mark.parametrize("name", ["verify", "frame", "analysis"])
def test_tasks_repeat_for_a_seed_and_differ_across_seeds(name):
    wl = workloads.WORKLOADS[name]()
    wl.setup()

    def specs(seed, k=0):
        return [(t.kind, t.spec) for t in wl.make_pass(np.random.default_rng([seed, k]))]

    assert specs(3) == specs(3)
    assert specs(3) != specs(4)
    assert specs(3, 0) != specs(3, 1)
    assert sorted(kind for kind, _ in specs(3)) == sorted(kind for kind, _ in specs(4))


# -- the command without the program


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
