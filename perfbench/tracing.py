"""Spans and work counters recorded from outside the `subexp` package.

`install` replaces, in each `subexp` module, the public functions that module
imports from another `subexp` module with wrappers, so every call that
crosses a module boundary is seen where the caller looks the name up. The
wrapped function's defining module is the span's layer. Nothing under `src/`
changes; `uninstall` puts the original functions back.

With timing off only the two counted entry points (`sample_path`,
`dp_value`) are wrapped, and they record their arguments without reading a
clock, so untimed runs still report steps and lattice cells.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
from collections import Counter, defaultdict, namedtuple

_COUNTED = ("sample_path", "dp_value")

Span = namedtuple("Span", "id name layer start end parent thread")


class Recorder:
    """Spans and counted calls of one timed iteration, kept in memory."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[Span] = []
        self.samples: list[tuple] = []  # (n, bytes of the returned arrays)
        self.dp_calls: list[tuple] = []  # (amb, functional, n)
        self.maps: list[tuple] = []  # (span id, effective workers)
        self._ids = itertools.count(1)  # next() is one C call, atomic under the GIL
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, layer: str, fn, args, kwargs, parent=None):
        """Run fn(*args, **kwargs) inside a span; parent defaults to this thread's open span."""
        if not self.timed:
            return fn(*args, **kwargs), None
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, layer, start, end, parent, threading.get_ident()))


class Tracer:
    """Installs wrappers that send calls into `subexp` modules to a Recorder."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.recorder = Recorder(timed)
        self._saved: list[tuple] = []

    def reset(self) -> Recorder:
        self.recorder = Recorder(self.timed)
        return self.recorder

    def install(self) -> None:
        import subexp

        for info in pkgutil.iter_modules(subexp.__path__):
            module = importlib.import_module(f"subexp.{info.name}")
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__
                if not home.startswith("subexp.") or home == module.__name__:
                    continue
                if not self.timed and name not in _COUNTED:
                    continue
                self._wrap_attr(module, name, home.rsplit(".", 1)[1])
        if self.timed:  # called from inside its own module, so not found above
            self._wrap_attr(importlib.import_module("subexp.runner"), "write_outputs", "runner")

    def _wrap_attr(self, module, name: str, layer: str) -> None:
        fn = getattr(module, name)
        self._saved.append((module, name, fn))
        setattr(module, name, self._wrap(fn, layer))

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def run(self, fn, *args, **kwargs):
        """Call the program's entry point under a root span in the runner layer."""
        result, _ = self.recorder.call("run", "runner", fn, args, kwargs)
        return result

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        if name == "parallel_map":
            return self._wrap_map(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.recorder
            result, _ = rec.call(name, layer, fn, args, kwargs)
            if name == "sample_path":
                rec.samples.append((result.n, result.increments.nbytes + result.member_indices.nbytes))
            elif name == "dp_value":
                rec.dp_calls.append(_dp_args(*args, **kwargs))
            return result

        return wrapper

    def _wrap_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(task_fn, items, jobs=1):
            rec = tracer.recorder
            items = list(items)
            box = []

            def task(x):
                result, _ = rec.call("task", "parallel", task_fn, (x,), {}, parent=box[0])
                return result

            def run_map():
                box.append(rec._stack()[-1])
                return fn(task, items, jobs)

            result, sid = rec.call("parallel_map", "parallel", run_map, (), {})
            workers = 1 if jobs <= 1 or len(items) <= 1 else min(jobs, len(items))
            rec.maps.append((sid, workers))
            return result

        return wrapper


def _dp_args(amb, functional, n, side="upper"):
    """The counted arguments of `dp_value`, bound the way its signature binds them."""
    return amb, functional, n


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def counters(rec: Recorder) -> dict:
    """Work counts computed from the recorded call arguments and results."""
    from subexp.lattice_dp import AllBlocksHit, lattice_model

    models = {}
    cells = 0
    peak_width = 0
    for amb, functional, n in rec.dp_calls:
        model = models.get(id(amb))
        if model is None:
            model = models[id(amb)] = lattice_model(amb)
        atoms = sum(len(offs) for offs in model.offsets)
        if isinstance(functional, AllBlocksHit):
            ends = tuple(functional.ends)
            horizons = [end - start for start, end in zip((0,) + ends[:-1], ends)]
        else:
            horizons = [n]
        for h in horizons:
            # _backward_pass sweeps widths k*span + 1 for k < h, every atom once per cell
            cells += atoms * (model.span * h * (h - 1) // 2 + h)
            peak_width = max(peak_width, h * model.span + 1)
    return {
        "sampler.steps": sum(n for n, _ in rec.samples),
        "sampler.bytes_out": sum(b for _, b in rec.samples),
        "lattice_dp.cells": cells,
        "lattice_dp.peak_width": peak_width,
    }


def layer_times(rec: Recorder) -> dict:
    """Self time per layer, plus the raw figures the per-layer metrics need.

    A span's self time is its duration minus the time its same-thread children
    cover. A parallel map's tasks may run on other threads: the map's self time
    is its duration minus the union of its tasks' intervals, and the tasks'
    subtrees are scaled by that union over their summed durations, so layer
    self times add up to the root spans' wall time. Thread time (unscaled)
    is kept for per-step and per-cell costs.
    """
    kids = defaultdict(list)
    for span in rec.spans:
        kids[span.parent].append(span)
    workers = dict(rec.maps)
    wall_self = Counter()
    thread_self = Counter()
    calls = Counter()
    map_s = 0.0
    task_s = 0.0
    busy_capacity = 0.0

    todo = [(span, 1.0) for span in kids[None]]
    while todo:
        span, weight = todo.pop()
        dur = span.end - span.start
        children = kids.get(span.id, [])
        if span.id in workers:
            covered = _union_length((c.start, c.end) for c in children)
            summed = sum(c.end - c.start for c in children)
            own = dur - covered
            child_weight = weight * covered / summed if summed > 0 else weight
            map_s += dur
            task_s += summed
            busy_capacity += workers[span.id] * dur
        else:
            own = dur - sum(c.end - c.start for c in children if c.thread == span.thread)
            child_weight = weight
        wall_self[span.layer] += weight * own
        thread_self[span.name] += own
        if span.name != "task" and span.parent is not None:
            calls[span.layer] += 1
        todo.extend((c, child_weight) for c in children)

    return {
        "self": dict(wall_self),
        "thread_self": dict(thread_self),
        "calls": dict(calls),
        "root_s": sum(s.end - s.start for s in kids[None]),
        "map_s": map_s,
        "busy_frac": task_s / busy_capacity if busy_capacity > 0 else 0.0,
    }


def dump_spans(spans: list[Span], path: str) -> None:
    """Write the spans as CSV, times in seconds from the first span's start."""
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("id,name,layer,start_s,end_s,parent,thread\n")
        for s in spans:
            fh.write(f"{s.id},{s.name},{s.layer},{s.start - t0:.9f},{s.end - t0:.9f},"
                     f"{'' if s.parent is None else s.parent},{s.thread}\n")
