"""Span tracer that attaches to the program's layers from outside.

A span is one call of a wrapped function. It records its name, its
parent span's name, start and end on the wall clock, and its wall and
thread-CPU durations. Each thread keeps its own stack of open spans, so
a span's parent is always on the same thread. Self time is the span's
duration minus the durations of its direct child spans.

Every span updates per-name totals; raw spans are also kept in memory up
to a cap and written out by the caller when the run ends.

``Patcher`` installs the wrappers. A function that other modules import
by name (``trainer`` imports ``forward_policy`` and friends that way, and
``_WORKER_LOOPS`` holds the loop functions in a dict) is replaced
wherever the package holds a reference to it, and ``remove`` puts every
original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass

ORIGINAL_ATTR = "__perfbench_original__"
PACKAGE = "rmsalab"
# raw spans kept per thread; totals count every span
KEEP_SPANS = 20_000


@dataclass
class SpanTotals:
    """Per-name sums over every finished span of that name."""

    calls: int = 0
    wall_self: float = 0.0
    cpu_self: float = 0.0
    wall: float = 0.0
    cpu: float = 0.0


class _ThreadSpans:
    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.stack: list[list] = []
        self.totals: dict[str, SpanTotals] = {}
        self.spans: list[tuple] = []


class Tracer:
    """Collects spans from any number of threads.

    ``wall_clock`` and ``cpu_clock`` default to ``time.perf_counter`` and
    ``time.thread_time``; tests pass deterministic clocks.
    """

    def __init__(self, wall_clock=time.perf_counter,
                 cpu_clock=time.thread_time):
        self._wall = wall_clock
        self._cpu = cpu_clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []

    def _thread(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadSpans(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        wall_clock, cpu_clock = self._wall, self._cpu

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._thread()
            stack = state.stack
            parent = stack[-1] if stack else None
            # [name, child wall, child cpu]
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            w0 = wall_clock()
            c0 = cpu_clock()
            try:
                return fn(*args, **kwargs)
            finally:
                c1 = cpu_clock()
                w1 = wall_clock()
                stack.pop()
                wall = w1 - w0
                cpu = c1 - c0
                if parent is not None:
                    parent[1] += wall
                    parent[2] += cpu
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = SpanTotals()
                totals.calls += 1
                totals.wall_self += wall - frame[1]
                totals.cpu_self += cpu - frame[2]
                totals.wall += wall
                totals.cpu += cpu
                if len(state.spans) < KEEP_SPANS:
                    state.spans.append(
                        (name, parent[0] if parent is not None else None,
                         w0, w1, wall - frame[1], cpu, cpu - frame[2]))

        setattr(traced, ORIGINAL_ATTR, fn)
        return traced

    def totals(self) -> dict[str, SpanTotals]:
        """Totals per span name, summed over every thread."""
        merged: dict[str, SpanTotals] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, t in state.totals.items():
                m = merged.setdefault(name, SpanTotals())
                m.calls += t.calls
                m.wall_self += t.wall_self
                m.cpu_self += t.cpu_self
                m.wall += t.wall
                m.cpu += t.cpu
        return merged

    def spans(self) -> list[dict]:
        """The raw spans kept so far, one dict each, grouped by thread."""
        with self._lock:
            threads = list(self._threads)
        keys = ("name", "parent", "start", "end", "wall_self", "cpu",
                "cpu_self")
        return [dict(zip(keys, span), thread=state.thread_name)
                for state in threads for span in state.spans]


def _resolve(module_name: str, qualname: str):
    """(owner, attribute name) for ``Class.method`` or a module function."""
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Patcher:
    """Installs a tracer's wrappers on named targets and removes them.

    A target is ``(span name, module name, qualified attribute)``. A
    target the program no longer has is listed in ``missing`` and
    skipped, so a refactor that removes it does not stop the run.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def install(self, targets) -> None:
        for span_name, module_name, qualname in targets:
            try:
                owner, attr = _resolve(module_name, qualname)
            except (ImportError, AttributeError):
                self.missing.append(span_name)
                continue
            if isinstance(owner, type):
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(span_name)
                    continue
                setattr(owner, attr, self.tracer.wrap(span_name, original))
                self._undo.append(("attr", owner, attr, original))
            else:
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(span_name)
                    continue
                self._replace_everywhere(
                    original, self.tracer.wrap(span_name, original))

    def _replace_everywhere(self, original, wrapper) -> None:
        """Swap every reference the package's modules hold, including
        values of module-level dicts, for ``wrapper``."""
        for module in package_modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append(("attr", module, key, original))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._undo.append(("item", value, dkey, original))

    def remove(self) -> None:
        """Restore every original, newest first."""
        while self._undo:
            kind, owner, key, original = self._undo.pop()
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original


def leftover_wrappers() -> list[str]:
    """Where the package still holds a tracer wrapper; empty when clean."""
    found = []

    def wrapped(value) -> bool:
        return callable(value) and hasattr(value, ORIGINAL_ATTR)

    for module in package_modules():
        for key, value in vars(module).items():
            where = f"{module.__name__}.{key}"
            if wrapped(value):
                found.append(where)
            elif isinstance(value, dict):
                found.extend(f"{where}[{k!r}]" for k, v in value.items()
                             if wrapped(v))
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(f"{where}.{k}" for k, v in vars(value).items()
                             if wrapped(v))
    return found
