"""Outside-in spans around the public calls the benchmark drives.

The benchmark never edits the program. It records host time by
replacing a public function or method, for the length of one run, with
a wrapper that opens a span, calls the original and closes the span.
Because the wrappers sit at the module or class attribute the library
itself calls through, a span opened inside ``Engine.run`` (for
``RunStore.load``, ``simulate_spec``, ...) nests under the
``Engine.run`` span, and a layer's self time falls out as its spans'
durations minus the time their child spans cover.

Spans live in memory as tuples and are written out once, at the end of
the run (:meth:`Tracer.write`).
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: Index of each field in a span tuple.
ID, PARENT, NAME, LAYER, KERNEL, START, END, COUNT = range(8)


def _committed(result: Any) -> int:
    """Committed instructions of a simulate-call result."""
    if isinstance(result, tuple):  # capture_run -> (run, trace store)
        result = result[0].result
    return int(getattr(result, "committed", 0))


#: Calls timed on every run: the simulate entry points (``sim_kips``).
#: (module or "module:Class", attribute, span name, layer, count)
SIM_TARGETS = (
    ("repro.engine.runs", "simulate", "simulate", "uarch", _committed),
    ("repro.trace.capture", "simulate", "simulate", "uarch", _committed),
    ("repro.backends.functional", "simulate_functional",
     "simulate_functional", "backends", _committed),
    ("repro.backends.sampled:SampledBackend", "simulate",
     "SampledBackend.simulate", "backends", _committed),
)

#: Calls wrapped only in the traced run: one span per public call.
LAYER_TARGETS = (
    ("repro.experiments.accuracy", "run", "accuracy.run", "experiments",
     None),
    ("repro.engine.engine:Engine", "run", "Engine.run", "engine", None),
    ("repro.engine.engine", "build_workload", "build_workload",
     "workloads", None),
    ("repro.engine.runs", "build_workload", "build_workload",
     "workloads", None),
    ("repro.trace.capture", "build_workload", "build_workload",
     "workloads", None),
    ("repro.engine.engine", "simulate_spec", "simulate_spec", "engine", None),
    ("repro.engine.engine", "run_to_payload", "run_to_payload", "engine", None),
    ("repro.engine.engine", "run_from_payload", "run_from_payload",
     "engine", None),
    ("repro.engine.store:RunStore", "load", "RunStore.load", "engine", None),
    ("repro.engine.store:RunStore", "save", "RunStore.save", "engine", None),
    ("repro.engine.store:RunStore", "save_trace", "RunStore.save_trace",
     "trace", None),
    ("repro.engine.runs", "pics_error", "pics_error", "core", None),
    ("repro.core.error", "pics_error", "pics_error", "core", None),
    ("repro.trace.capture", "capture_run", "capture_run", "trace", None),
    ("repro.trace.store:TraceStore", "load", "TraceStore.load", "trace",
     None),
    ("repro.trace.query:TraceQuery", "attribute", "TraceQuery.attribute",
     "trace", None),
    ("repro.trace.query:TraceQuery", "top", "TraceQuery.top", "trace",
     None),
    ("repro.trace.query:TraceQuery", "flush_histogram",
     "TraceQuery.flush_histogram", "trace", None),
    ("repro.predict.analyzer", "predict_program", "predict_program",
     "predict", None),
)


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it.

    A span is ``(id, parent id, name, layer, kernel id, start, end,
    count)``; *count* is the committed-instruction count of a simulate
    call and 0 elsewhere. The kernel id is the innermost one the
    benchmark set with :meth:`kernel`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._kernels: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    # -- spans ---------------------------------------------------------
    @contextmanager
    def kernel(self, name: str):
        """Label the spans recorded inside the block with kernel *name*."""
        self._kernels.append(name)
        try:
            yield
        finally:
            self._kernels.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        """Record the enclosed block as one span."""
        parent = self._stack[-1] if self._stack else -1
        kernel = self._kernels[-1] if self._kernels else None
        ident = len(self.spans)
        self.spans.append(None)  # reserve the id in start order
        self._stack.append(ident)
        record = [0]
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[ident] = (
                ident, parent, name, layer, kernel, start, end, record[0]
            )

    def _wrapper(self, fn, name, layer, count_of):
        tracer = self

        def wrapped(*args, **kwargs):
            with tracer.span(name, layer) as record:
                result = fn(*args, **kwargs)
                if count_of is not None:
                    record[0] = count_of(result)
                return result

        wrapped.__wrapped__ = fn
        return wrapped

    def instrument(self, targets) -> int:
        """Wrap each target so every call to it records a span.

        Returns the patch depth before, for :meth:`restore`.
        """
        depth = len(self._patches)
        for where, attr, name, layer, count_of in targets:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self._wrapper(
                    original.__func__, name, layer, count_of))
            else:
                patched = self._wrapper(original, name, layer, count_of)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, patched)
        return depth

    def restore(self, depth: int = 0) -> None:
        """Undo the patches above *depth*, newest first."""
        while len(self._patches) > depth:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- garbage collector ---------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    @contextmanager
    def gc_timing(self):
        """Time every cyclic collection inside the block."""
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    # -- analysis ------------------------------------------------------
    def since(self, mark: int) -> list[tuple]:
        """Closed spans recorded after position *mark*."""
        return [s for s in self.spans[mark:] if s is not None]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "layer", "kernel", "start",
                "end", "count")
        with open(path, "w") as handle:
            for record in self.spans:
                if record is not None:
                    handle.write(json.dumps(dict(zip(keys, record))) + "\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def total(spans: list[tuple], name: str) -> float:
    """Summed duration of the spans called *name*."""
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)


def throughput(spans: list[tuple], names: tuple[str, ...]) -> float:
    """Counted work per second over the spans called one of *names*."""
    chosen = [s for s in spans if s[NAME] in names]
    seconds = sum(s[END] - s[START] for s in chosen)
    work = sum(s[COUNT] for s in chosen)
    return work / seconds if seconds > 0 else 0.0
