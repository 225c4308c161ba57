"""Spans recorded from the benchmark's side of each layer boundary.

Nothing in ``src/repro`` knows about tracing yet (ROADMAP item 2), so the
traced run wraps each layer's *public* entry point for the duration of a
``with patched(...)`` block and records a span around every call.  Spans
stay in memory and are written once, with the report.  A span carries a
name, a run id shared by every span of one join or request, its parent and
its start and end; a layer's self time is its span minus its children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable

from repro.mapreduce import SerialBackend


class Tracer:
    """An in-memory span recorder; safe to use from several threads."""

    def __init__(self) -> None:
        #: ``[name, run, parent index or None, start, end]`` per span.
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, run: object = None):
        """Record a span; without ``run`` it inherits the parent's run id."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if run is None and parent is not None:
            run = self.spans[parent][1]
        record = [name, run, parent, 0.0, 0.0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[3] = time.perf_counter()
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            stack.pop()

    def wrap(self, function: Callable, name) -> Callable:
        """``function`` with a span around every call.

        ``name`` is the span name or a callable computing it from the call's
        positional arguments.
        """
        @functools.wraps(function)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            with self.span(label):
                return function(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(owner, attribute, span name)`` entry points, then restore."""
        originals = []
        try:
            for owner, attribute, name in targets:
                original = inspect.getattr_static(owner, attribute)
                originals.append((owner, attribute, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(original.__func__, name))
                else:
                    wrapped = self.wrap(original, name)
                setattr(owner, attribute, wrapped)
            yield
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    # -- reading the trace ----------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its children cover."""
        own = [span[4] - span[3] for span in self.spans]
        for span in self.spans:
            if span[2] is not None:
                own[span[2]] -= span[4] - span[3]
        return own

    def runs(self) -> dict[object, dict[str, dict[str, float]]]:
        """``run id -> span name -> {"total": s, "self": s}``, summed over
        the spans of that name in the run."""
        own = self.self_times()
        grouped: dict[object, dict[str, dict[str, float]]] = {}
        for span, self_time in zip(self.spans, own):
            entry = grouped.setdefault(span[1], {}).setdefault(
                span[0], {"total": 0.0, "self": 0.0})
            entry["total"] += span[4] - span[3]
            entry["self"] += self_time
        return grouped

    def to_json(self) -> list[dict]:
        """The spans as written to the report."""
        return [{"name": name, "run": run, "parent": parent,
                 "start": start, "end": end}
                for name, run, parent, start, end in self.spans]


def count_calls(function: Callable[[], object]) -> int:
    """Python and builtin function calls made while ``function()`` runs.

    Unlike a time, this count repeats exactly (same inputs, same count,
    whatever the hash seed or the machine is doing), so it can carry a claim
    that wall-clock noise would drown.  It omits all waiting.
    """
    calls = 0

    def profile(frame, event, argument):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


class TimingBackend(SerialBackend):
    """The serial backend with a span around every phase's task batch.

    Passed as ``JoinSpec(backend=...)``: the runner hands each phase's tasks
    to ``run_tasks`` with the phase's task function, so the function's name
    tells map, combine and reduce apart.
    """

    name = "e2e-timing"
    _SPAN_OF = {"execute_map_task": "mapreduce.map",
                "execute_combine_task": "mapreduce.combine",
                "execute_reduce_task": "mapreduce.reduce"}

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def run_tasks(self, function, tasks):
        with self.tracer.span(self._SPAN_OF[function.__name__]):
            return super().run_tasks(function, tasks)
