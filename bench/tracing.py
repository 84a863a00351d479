"""Span tracing from outside the program.

``install`` replaces goldwave's public functions, the ``GoldenNumber``
operations and the private ``_atom_matrix`` (the one private call that
crosses a module boundary) with wrappers, in the defining module and in
every module that imported them by name.  A wrapper records a span (name,
parent, task, start, end) and, at some boundaries, counts of the work done.
Spans stay in memory; ``layer_metrics`` folds them into per-layer numbers at
the end of the run, and ``write_spans`` can save them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter

MODULES = ("goldenring", "lattice", "covering", "wavelet", "framelab", "cli")
GOLDEN_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "sign", "is_zero", "to_float")


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: dict[int, dict] = {}
        self._stack = [-1]
        self._task = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.t0)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.task.append(self._task)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def task_span(self, task_id: int, name: str):
        """The root span of one task, with tracing on inside it; spans opened
        inside share the task's id."""
        self._task = task_id
        idx = self._open(name)
        self.on = True
        try:
            yield
        finally:
            self.on = False
            self._close(idx)
            self._task = -1

    def wrap(self, name: str, fn, counter=None, namer=None):
        """Wrapper recording a span per call; ``counter(args, kwargs, result)``
        returns counts for the span, ``namer(args, kwargs)`` refines the name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = self._open(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.counts[idx] = counter(args, kwargs, result)
            return result

        return traced


def span_cost(repeats: int = 5, calls: int = 20000) -> float:
    """Seconds that tracing adds to one call, measured on a wrapped no-op:
    the fastest of ``repeats`` timings of ``calls`` traced calls minus the
    fastest of as many plain calls, per call."""

    def noop():
        return None

    def fastest(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            times.append(perf_counter() - t0)
        return min(times)

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    tracer.on = True
    return (fastest(traced) - fastest(noop)) / calls


# ---------------------------------------------------------------------------
# wrapping goldwave


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _enumerate_path(args, kwargs):
    spec, rect = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "rect")
    exact = rect.exact is not None and spec.beta_fraction is not None
    return "lattice.enumerate_in_rect." + ("exact" if exact else "float")


def _atom_counts(args, kwargs, result):
    return {"atoms": result.shape[0], "bytes_computed": result.size * 16}


COUNTERS = {
    "lattice.count_rects": lambda a, k, r: {"rects": len(r)},
    "lattice.count_x_translates": lambda a, k, r: {"rects": len(r)},
    "lattice.enumerate_in_rect": lambda a, k, r: {"points": len(r)},
    "covering.audit_cover": lambda a, k, r: {"cells": r.cells_checked},
    "wavelet.atom_matrix": _atom_counts,
    "wavelet.cwt": lambda a, k, r: {"points": len(r)},
    "framelab.estimate_bounds": lambda a, k, r: {
        "iterations": r.iterations,
        "band_dim": r.restricted_band[1] - r.restricted_band[0] + 1,
        "converged": int(r.converged),
    },
}
NAMERS = {"lattice.enumerate_in_rect": _enumerate_path}
# argument parsing stays in cli.main's self time
UNTRACED = {"cli.build_parser"}


def install(tracer: Tracer) -> int:
    """Wrap goldwave's public functions wherever they are bound; returns the
    number of bindings replaced.  Tracing stays off until ``tracer.on``."""
    package = importlib.import_module("goldwave")
    modules = {name: importlib.import_module(f"goldwave.{name}") for name in MODULES}
    wrappers = {}
    for short, mod in modules.items():
        for attr, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr.lstrip('_')}"
            if (attr.startswith("_") and attr != "_atom_matrix") or name in UNTRACED:
                continue
            wrappers[id(fn)] = tracer.wrap(name, fn, COUNTERS.get(name), NAMERS.get(name))
    replaced = 0
    for mod in (package, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                setattr(mod, attr, wrappers[id(value)])
                replaced += 1
    golden = modules["goldenring"].GoldenNumber
    for op in GOLDEN_OPS:
        setattr(golden, op, tracer.wrap(f"goldenring.GoldenNumber.{op.strip('_')}", vars(golden)[op]))
        replaced += 1
    return replaced


# ---------------------------------------------------------------------------
# folding spans into per-layer numbers


def self_times(t0, t1, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for idx, par in enumerate(parent):
        if par >= 0:
            children.setdefault(par, []).append(idx)
    out = []
    for idx in range(len(t0)):
        covered = 0.0
        end = t0[idx]
        for lo, hi in sorted((t0[c], t1[c]) for c in children.get(idx, ())):
            lo, hi = max(lo, end), min(hi, t1[idx])
            if hi > lo:
                covered += hi - lo
                end = hi
        out.append(t1[idx] - t0[idx] - covered)
    return out


def aggregate(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, total and self time, and summed counts."""
    selfs = self_times(tracer.t0, tracer.t1, tracer.parent)
    agg: dict[str, dict] = {}
    for idx, nid in enumerate(tracer.name):
        row = agg.setdefault(tracer.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += tracer.t1[idx] - tracer.t0[idx]
        row["self_s"] += selfs[idx]
        for key, value in tracer.counts.get(idx, {}).items():
            row[key] = row.get(key, 0) + value
    return agg


def _get(agg, name, key="self_s"):
    return agg.get(name, {}).get(key, 0)


def _self_s_with_prefix(agg, prefix):
    return sum(row["self_s"] for name, row in agg.items() if name.startswith(prefix))


def _ratio(num, den):
    return num / den if den else 0.0


# Metrics read straight off one span name: span -> fields, each reported as
# "<span>.<field>".
_SPAN_FIELDS = {
    "cli.main": ("calls", "self_s"),
    "lattice.count_rects": ("calls", "rects", "self_s"),
    "lattice.enumerate_in_rect.exact": ("calls", "points", "self_s"),
    "lattice.enumerate_in_rect.float": ("calls", "points", "self_s"),
    "lattice.count_x_translates": ("calls", "rects", "self_s"),
    "covering.audit_cover": ("calls", "cells", "self_s"),
    "wavelet.atom_matrix": ("calls", "atoms", "bytes_computed", "self_s"),
    "wavelet.cwt": ("calls", "points", "self_s"),
    "wavelet.cwt_regular": ("calls", "self_s"),
    "wavelet.cauchy_wavelet": ("self_s",),
    "wavelet.decay_condition_report": ("self_s",),
    "framelab.estimate_bounds": ("calls", "self_s", "iterations"),
    "framelab.golden_sample_set": ("self_s",),
    "framelab.dyadic_sample_set": ("calls", "self_s"),
    "framelab.guard_band": ("self_s",),
    "framelab.frame_operator_apply": ("self_s",),
    "framelab.analysis": ("self_s",),
}
_UNITS = {"self_s": "s", "bytes_computed": "bytes"}  # every other field is a count

# name -> (unit, better, value from the aggregate); values are per pass
# except those in PER_CALL, which are ratios or means over all traced calls.
LAYER_METRICS = {
    f"{span}.{field}": (_UNITS.get(field, "count"), "lower",
                        lambda g, span=span, field=field: _get(g, span, field))
    for span, fields in _SPAN_FIELDS.items()
    for field in fields
}
LAYER_METRICS.update({
    "goldenring.sign.calls": ("count", "lower", lambda g: _get(g, "goldenring.GoldenNumber.sign", "calls")),
    "goldenring.self_s": ("s", "lower", lambda g: _self_s_with_prefix(g, "goldenring.")),
    "lattice.count_rects.rects_per_s": ("1/s", "higher", lambda g: _ratio(
        _get(g, "lattice.count_rects", "rects"), _get(g, "lattice.count_rects", "total_s"))),
    "lattice.audit.self_s": ("s", "lower", lambda g: _get(g, "lattice.audit_min_count")
                             + _get(g, "lattice.audit_max_count")),
    "framelab.estimate_bounds.band_dim": ("count", "lower", lambda g: _ratio(
        _get(g, "framelab.estimate_bounds", "band_dim"), _get(g, "framelab.estimate_bounds", "calls"))),
    "framelab.estimate_bounds.converged_frac": ("ratio", "higher", lambda g: _ratio(
        _get(g, "framelab.estimate_bounds", "converged"), _get(g, "framelab.estimate_bounds", "calls"))),
})
PER_CALL = {"lattice.count_rects.rects_per_s", "framelab.estimate_bounds.band_dim",
            "framelab.estimate_bounds.converged_frac"}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    agg = aggregate(tracer)
    return {
        name: value(agg) if name in PER_CALL else value(agg) / passes
        for name, (unit, better, value) in LAYER_METRICS.items()
    }


def write_spans(tracer: Tracer, path: str) -> None:
    """One JSON object per span: index, name, parent, task, start, end, counts."""
    with open(path, "w") as fh:
        for idx, nid in enumerate(tracer.name):
            fh.write(json.dumps({
                "i": idx, "name": tracer.names[nid], "parent": tracer.parent[idx],
                "task": tracer.task[idx], "t0": tracer.t0[idx], "t1": tracer.t1[idx],
                **({"counts": tracer.counts[idx]} if idx in tracer.counts else {}),
            }) + "\n")
