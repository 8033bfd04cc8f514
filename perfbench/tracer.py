"""Benchmark-side span tracer: wrappers around each layer's public functions.

Nothing here touches ``src/``.  :class:`LayerTracer` rebinds the functions
named in :mod:`perfbench.layers` to timing wrappers for the traced run only,
and puts every original back on :meth:`LayerTracer.uninstall`:

* a module-level function is rebound in *every* loaded ``repro`` module
  whose globals hold it (callers that did ``from ... import name`` look it up
  in their own module), including values of module-level dicts such as the
  MAC dispatch table;
* a method is rebound on its class, keeping ``staticmethod`` /
  ``classmethod`` descriptors intact.

Each wrapped call becomes a span (name, start, end, parent span, request id)
kept in memory on a per-thread list; a layer's self time is its duration
minus the time its direct children took.  Layers called once per replayed
job (policy-queue push/pop, board placement) are *folded*: they add their
count and time to the enclosing span and a per-thread total instead of
allocating a span each, which keeps a 10^5-job replay's trace in bounded
memory.  A folded call made inside another call of the same layer (such as
the counter read inside a counter increment) is neither counted nor timed
again.  :meth:`LayerTracer.write_jsonl` dumps the spans when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from itertools import count

_clock = time.perf_counter


class Span:
    __slots__ = (
        "id", "name", "parent", "request", "phase", "start", "end",
        "child_s", "messages", "bytes", "thread",
    )

    def __init__(self, span_id, name, parent, request, phase, start, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.phase = phase
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.messages = 0
        self.bytes = 0
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "request": self.request, "phase": self.phase, "thread": self.thread,
            "start": self.start, "end": self.end, "self_s": self.self_s,
            "messages": self.messages, "bytes": self.bytes,
        }


class _ThreadState:
    """One thread's span stack, finished spans and folded totals."""

    def __init__(self):
        self.stack: list = []
        self.spans: list = []
        #: (phase, name) -> [calls, seconds] for folded layers.
        self.folded: dict = {}
        #: Folded layers currently being timed on this thread.
        self.active: set = set()


def _resolve(target: str):
    """``"pkg.module:attr"`` or ``"pkg.module:Class.attr"`` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Installs span wrappers for a list of :class:`perfbench.layers.Layer`."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.phase = "setup"
        #: Request id for root spans whose layer names none.
        self.request = None
        self._ids = count(1)
        self._local = threading.local()
        self._threads: list = []
        self._restore: list = []
        #: Per-job timestamps fed by the serving hooks.
        self.submitted: dict = {}
        self.placed: dict = {}
        self.body_started: dict = {}

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            return
        for layer in self.layers:
            for target in layer.targets:
                self._install_one(layer, target)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)

    def _install_one(self, layer, target: str) -> None:
        owner, attr = _resolve(target)
        if inspect.isclass(owner):
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (staticmethod, classmethod)):
                patched = type(raw)(self._wrap(layer, raw.__func__))
            else:
                patched = self._wrap(layer, raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, patched)
            return
        original = getattr(owner, attr)
        wrapper = self._wrap(layer, original)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._restore.append((value, key, original))
                            value[key] = wrapper

    # -- recording ----------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._threads.append(state)
        return state

    def _wrap(self, layer, func):
        name = layer.name
        size = layer.size
        hook = layer.hook
        request_of = layer.request

        if layer.folded:
            @functools.wraps(func)
            def folded(*args, **kwargs):
                state = self._state()
                if name in state.active:
                    # A call nested in the same layer is already being timed.
                    return func(*args, **kwargs)
                state.active.add(name)
                start = _clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    elapsed = _clock() - start
                    state.active.discard(name)
                    if state.stack:
                        state.stack[-1].child_s += elapsed
                    totals = state.folded.get((self.phase, name))
                    if totals is None:
                        totals = state.folded[(self.phase, name)] = [0, 0.0]
                    totals[0] += 1
                    totals[1] += elapsed

            return folded

        @functools.wraps(func)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            request = request_of(args) if request_of is not None else None
            if request is None:
                request = parent.request if parent is not None else self.request
            span = Span(
                next(self._ids), name, parent.id if parent is not None else None,
                request, self.phase, _clock(), threading.current_thread().name,
            )
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span.end = _clock()
                if parent is not None:
                    parent.child_s += span.duration
                state.spans.append(span)
            if size is not None:
                span.messages, span.bytes = size(args, kwargs, result)
            if hook is not None:
                hook(self, args, result, span)
            return result

        return traced

    # -- results ------------------------------------------------------------------

    def spans(self) -> list:
        merged = [span for state in self._threads for span in state.spans]
        merged.sort(key=lambda span: span.id)
        return merged

    def folded_totals(self) -> dict:
        """(phase, name) -> [calls, seconds] summed over every thread."""
        merged: dict = {}
        for state in self._threads:
            for key, (calls, seconds) in state.folded.items():
                totals = merged.setdefault(key, [0, 0.0])
                totals[0] += calls
                totals[1] += seconds
        return merged

    def layer_totals(self, phase: str) -> dict:
        """name -> {calls, s, self_s, messages, bytes} for one phase."""
        totals: dict = {}
        for span in self.spans():
            if span.phase != phase:
                continue
            entry = totals.setdefault(
                span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "messages": 0, "bytes": 0}
            )
            entry["calls"] += 1
            entry["s"] += span.duration
            entry["self_s"] += span.self_s
            entry["messages"] += span.messages
            entry["bytes"] += span.bytes
        for (span_phase, name), (calls, seconds) in self.folded_totals().items():
            if span_phase == phase:
                totals[name] = {
                    "calls": calls, "s": seconds, "self_s": seconds, "messages": 0, "bytes": 0,
                }
        return totals

    def write_jsonl(self, path) -> int:
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
            for (phase, name), (calls, seconds) in sorted(self.folded_totals().items()):
                handle.write(json.dumps(
                    {"folded": name, "phase": phase, "calls": calls, "s": seconds}
                ) + "\n")
        return len(spans)
