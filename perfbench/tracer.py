"""Spans around the package's public functions, installed from outside it.

Every public function of the traced layer modules, and every public
classmethod of their classes, is replaced by a wrapper at each binding the
package holds: the defining module and every module that imported the name.
The package's own source is not edited, and ``restore`` puts every original
object back.

A span is ``(id, name, start, end, parent, job)``. Spans stay in memory until
the caller writes them out. Self time is derived from them afterwards: a
span's duration minus the durations of its direct children (calls nest on one
thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

LAYERS = (
    "graph", "fileio", "multisource", "solver", "_kernels",
    "bounds", "spectral", "evaluation", "cli",
)
# Formats one number per written line: a span around it would cost more than
# the work it measures and would inflate every writer's time.
SKIP = frozenset({"fileio.fmt_float"})


@dataclass(frozen=True)
class Target:
    """One traced callable and every place the package binds it."""

    name: str
    original: object
    bindings: tuple[tuple[object, str], ...]


def find_targets(package: str = "priorprop", layers=LAYERS, skip=SKIP) -> list[Target]:
    """Public functions and classmethods of ``layers``, with all their bindings."""
    for layer in layers:
        importlib.import_module(f"{package}.{layer}")
    modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
    targets = []
    for layer in layers:
        mod = sys.modules[f"{package}.{layer}"]
        prefix = mod.__name__
        for attr, value in vars(mod).items():
            if attr.startswith("_"):
                continue
            name = f"{layer.lstrip('_')}.{attr}"
            if inspect.isfunction(value) and value.__module__.startswith(prefix) and name not in skip:
                bindings = tuple(
                    (m, key) for m in modules for key, v in vars(m).items() if v is value
                )
                targets.append(Target(name, value, bindings))
            elif inspect.isclass(value) and value.__module__ == prefix:
                for meth, desc in vars(value).items():
                    if isinstance(desc, classmethod) and not meth.startswith("_"):
                        targets.append(Target(f"{name}.{meth}", desc, ((value, meth),)))
    return targets


def _install(targets: list[Target], make_wrapper: Callable[[str, Callable], Callable]) -> None:
    for t in targets:
        if isinstance(t.original, classmethod):
            patched = classmethod(make_wrapper(t.name, t.original.__func__))
        else:
            patched = make_wrapper(t.name, t.original)
        for owner, attr in t.bindings:
            setattr(owner, attr, patched)


def restore(targets: list[Target]) -> None:
    for t in targets:
        for owner, attr in t.bindings:
            setattr(owner, attr, t.original)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _bytes_read(args, kwargs, result):
    return {"fileio.bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _bytes_written(args, kwargs, result):
    return {"fileio.bytes_written": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _edges_in(args, kwargs, result):
    edges = _arg(args, kwargs, 2, "edges")
    return {"graph.from_edges.edges_in": len(edges) if hasattr(edges, "__len__") else 0}


def _nnz_swept(args, kwargs, result):
    indptr, order = _arg(args, kwargs, 1, "indptr"), _arg(args, kwargs, 4, "order")
    return {"kernels.gs_sweep.nnz": int((indptr[order + 1] - indptr[order]).sum())}


def _iterations(args, kwargs, result):
    return {"solver.iterations": int(result.iterations)}


def _checks(args, kwargs, result):
    return {"bounds.audit_inequalities.checks": len(result.checks)}


READERS = ("fileio.load_graph", "fileio.load_labels", "fileio.load_votes",
           "fileio.load_features", "fileio.load_accuracies", "fileio.load_prediction")
WRITERS = ("fileio.save_graph", "fileio.save_labels", "fileio.save_features",
           "fileio.save_votes", "fileio.save_accuracies", "fileio.save_prediction",
           "fileio.write_json")
COUNTERS: dict[str, Callable] = {
    **{name: _bytes_read for name in READERS},
    **{name: _bytes_written for name in WRITERS},
    "graph.Graph.from_edges": _edges_in,
    "kernels.gs_sweep": _nnz_swept,
    "solver.solve_with_prior": _iterations,
    "bounds.audit_inequalities": _checks,
}


class Tracer:
    """Records a span around every call of every target while installed.

    Counters named in ``COUNTERS`` are computed from a call's arguments and
    result after its span has ended.
    """

    def __init__(self, targets: list[Target], clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job = 0
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.job))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters[self.job][key] += value
            return result

        return traced

    def __enter__(self) -> "Tracer":
        _install(self.targets, self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        restore(self.targets)


class AllocProbe:
    """Peak bytes allocated during each call of the targets, from tracemalloc.

    Runs as its own pass so that tracemalloc's cost never reaches span
    timings. Targets must not nest inside one another, since each call
    resets the traced peak.
    """

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.peak: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak[name] = max(self.peak[name], tracemalloc.get_traced_memory()[1] - base)

        return probed

    def __enter__(self) -> "AllocProbe":
        tracemalloc.start()
        _install(self.targets, self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        restore(self.targets)
        tracemalloc.stop()


def per_job(spans, counters) -> dict[int, dict[str, float]]:
    """Totals per job: ``<name>.s``, ``<name>.self_s`` and ``<name>.calls`` for
    every span name, plus the job's counters."""
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    jobs: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, name, start, end, _, job in spans:
        agg = jobs[job]
        agg[name + ".s"] += end - start
        agg[name + ".self_s"] += end - start - child_time[sid]
        agg[name + ".calls"] += 1
    for job, values in counters.items():
        jobs[job].update(values)
    return jobs
