"""Span recorder that instruments the simulator from the outside.

Nothing under ``src/`` knows about this module. :func:`install` wraps
each layer's public entry points in spans *where callers look them
up*: methods are replaced on their class, and module-level functions
are replaced in every loaded ``repro`` module that bound them with
``from ... import`` (so ``maximum_matching_vec`` is patched inside
``repro.frontend.decoupler``, not only in ``repro.restructure``).

Spans stay in memory as ``(id, parent, name, tid, start, end)`` tuples
on a per-thread stack and are written once, at the end, as Chrome
trace-event JSON (open it in Perfetto or ``chrome://tracing``) next to
a per-layer self/cumulative table.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

#: Span name -> (module, class or None, attribute). Functions bound by
#: name in other modules are patched there too (see :func:`install`).
TARGETS = {
    "graph.generate": ("repro.scenarios.workloads", None, "load_workload"),
    "platforms.artifacts_build": ("repro.platforms.base", "DatasetArtifacts", "build"),
    "memory.access_many": ("repro.memory.buffer", "FeatureBuffer", "access_many"),
    "memory.count_leq_before": ("repro.memory.replay", None, "count_leq_before"),
    "gpu.run": ("repro.gpu.gpumodel", "GPUSimulator", "run"),
    "accelerator.run": ("repro.accelerator.hihgnn", "HiHGNNSimulator", "run"),
    "frontend.restructure": ("repro.frontend.gdr", "GDRFrontend", "restructure"),
    "frontend.decoupler": ("repro.frontend.decoupler", "Decoupler", "run"),
    "frontend.recoupler": ("repro.frontend.recoupler", "Recoupler", "run"),
    "frontend.hash_conflicts": ("repro.frontend.hashtable", None, "count_fifo_conflicts"),
    "restructure.matching": ("repro.restructure.matching_vec", None, "maximum_matching_vec"),
    "restructure.backbone": ("repro.restructure.backbone", None, "select_backbone"),
    "restructure.recouple": ("repro.restructure.recouple", None, "recouple"),
    "runner.run_cell": ("repro.platforms.runner", "GridRunner", "run_cell"),
    "store.save": ("repro.platforms.store", "ArtifactStore", "save"),
    "store.load": ("repro.platforms.store", "ArtifactStore", "load"),
    "api.to_dict": ("repro.api.results", "CellResult", "to_dict"),
    "api.from_dict": ("repro.api.results", "CellResult", "from_dict"),
    "api.session": ("repro.api.session", "Session", "run_iter"),
    "api.session.run": ("repro.api.session", "Session", "run"),
    "api.session.peek_cell": ("repro.api.session", "Session", "peek_cell"),
    "shm.publish": ("repro.platforms.shm", None, "publish_artifacts"),
    "shm.attach": ("repro.platforms.shm", None, "attach_artifacts"),
    "service.submit": ("repro.service.server", "SimulationService", "submit"),
}

#: Modules imported before patching so every ``from ... import`` binding
#: of a target already exists when the scan runs.
_PRELOAD = (
    "repro.api",
    "repro.platforms.registry",
    "repro.gpu.platform",
    "repro.accelerator.platform",
    "repro.frontend.platform",
    "repro.frontend.decoupler",
    "repro.frontend.recoupler",
    "repro.service.server",
)


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple[int, int, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, time.monotonic()

    def _exit(self, name: str, span_id: int, parent: int, start: float) -> None:
        end = time.monotonic()
        self._stack().pop()
        self.spans.append(
            (span_id, parent, name, threading.get_ident(), start, end)
        )

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call (per resume for generators)."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        span_id, parent, start = self._enter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._exit(name, span_id, parent, start)
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent, start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, span_id, parent, start)

        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every :data:`TARGETS` entry point in ``recorder`` spans."""
    for module in _PRELOAD:
        importlib.import_module(module)
    for name, (module_name, class_name, attr) in TARGETS.items():
        module = importlib.import_module(module_name)
        if class_name is not None:
            cls = getattr(module, class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(recorder.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, recorder.wrap(name, raw))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


def layer_of(name: str) -> str:
    """Aggregation name: ``api.session.*`` entry points fold into one."""
    return "api.session" if name.startswith("api.session") else name


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per-layer ``calls``, ``self_s`` and ``cum_s``.

    Self time is a span's duration minus the time its direct children
    cover. Cumulative time counts only outermost spans of a layer, so a
    recursive or re-entrant layer is not double counted.
    """
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = {}
    for span_id, parent, _name, _tid, start, end in spans:
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    table: dict[str, dict[str, float]] = {}
    for span_id, parent, name, _tid, start, end in spans:
        layer = layer_of(name)
        row = table.setdefault(layer, {"calls": 0, "self_s": 0.0, "cum_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        ancestor = by_id.get(parent)
        nested = False
        while ancestor is not None:
            if layer_of(ancestor[2]) == layer:
                nested = True
                break
            ancestor = by_id.get(ancestor[1])
        if not nested:
            row["cum_s"] += end - start
    return table


def covered_s(spans, window: tuple[float, float]) -> float:
    """Seconds of ``window`` covered by at least one span (any thread)."""
    lo, hi = window
    intervals = sorted(
        (max(start, lo), min(end, hi))
        for _id, _parent, _name, _tid, start, end in spans
        if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def chrome_events(spans, *, pid: int, label: str, origin: float) -> list[dict]:
    """Trace-event ``X`` records (microseconds since ``origin``)."""
    events: list[dict] = [
        {"ph": "M", "pid": pid, "name": "process_name", "args": {"name": label}}
    ]
    for span_id, parent, name, tid, start, end in spans:
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": name,
                "cat": layer_of(name).split(".")[0],
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent},
            }
        )
    return events


def write_trace(path: str, events: list[dict]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def format_table(table: dict[str, dict[str, float]]) -> str:
    lines = [f"{'layer':32} {'calls':>8} {'self_s':>10} {'cum_s':>10}"]
    for layer in sorted(table, key=lambda k: -table[k]["self_s"]):
        row = table[layer]
        lines.append(
            f"{layer:32} {int(row['calls']):>8} {row['self_s']:>10.4f} "
            f"{row['cum_s']:>10.4f}"
        )
    return "\n".join(lines) + "\n"
