"""Spans recorded around the public functions of frscn, from outside the package.

The tracer replaces module and class attributes with wrappers that record a
span per call: name, start, end, parent span and thread id. Nothing inside
``src/`` is edited, and only public names are wrapped, so a change to a private
helper cannot break the trace; time spent in private helpers shows up as the
self time of the public function that calls them.

Spans are kept in memory. ``attribute`` turns them into self times that
add up to the wall time of the traced calls, also when work fans out to
worker threads.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, span name). An attribute path with a dot is a method on
# a class. Functions that other modules import by name are wrapped in each
# importing module too, because the importer calls its own binding.
TARGETS = (
    ("frscn.cli", "main", "cli.main"),
    ("frscn.cli", "cmd_train", "cli.train"),
    ("frscn.cli", "cmd_predict", "cli.predict"),
    ("frscn.cli", "cmd_eval", "cli.eval"),
    ("frscn.cli", "cmd_online", "cli.online"),
    ("frscn.cli", "load_model", "model.load_model"),
    ("frscn.cli", "save_model", "model.save_model"),
    ("frscn.cli", "predict", "model.predict"),
    ("frscn.dataset", "load_csv", "dataset.load_csv"),
    ("frscn.model", "fit_normalization", "dataset.fit_normalization"),
    ("frscn.model", "fit_fcm", "fuzzy.fit_fcm"),
    ("frscn.model", "fire_strengths", "fuzzy.fire_strengths"),
    ("frscn.model", "fire_strength_matrix", "fuzzy.fire_strength_matrix"),
    ("frscn.model", "train_frscn", "model.train_frscn"),
    ("frscn.model", "predict", "model.predict"),
    ("frscn.model", "load_model", "model.load_model"),
    ("frscn.model", "save_model", "model.save_model"),
    ("frscn.model", "PredictionSession.step", "model.PredictionSession.step"),
    ("frscn.model", "PredictionSession.features", "model.PredictionSession.features"),
    ("frscn.model", "train_sub_reservoir", "trainer.train_sub_reservoir"),
    ("frscn.model", "fit_readout", "trainer.fit_readout"),
    ("frscn.trainer", "fit_readout", "trainer.fit_readout"),
    ("frscn.trainer", "max_singular_value", "reservoir.max_singular_value"),
    ("frscn.reservoir", "SubReservoir.rollout", "reservoir.rollout"),
    ("frscn.reservoir", "SubReservoir.grow", "reservoir.grow"),
    ("frscn.online", "init_online", "online.init_online"),
    ("frscn.online", "run_online", "online.run_online"),
    ("frscn.online", "online_step", "online.online_step"),
    ("frscn.online", "stacked_features", "model.stacked_features"),
    ("frscn.online", "stacked_readout", "model.stacked_readout"),
    ("frscn.online", "contraction_diagnostic", "online.contraction_diagnostic"),
    ("frscn.evaluation", "nrmse", "evaluation.nrmse"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span on the same thread
    thread: int
    cpu: float  # process CPU seconds, all threads, over the span


class Tracer:
    """Records spans for every call through the wrapped attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                        threading.get_ident(), time.process_time())
            spans.append(span)  # list.append is atomic under the interpreter lock
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - span.cpu
                stack.pop()

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target; one wrapper per function, shared by all its bindings."""
        wrappers = {}
        for module_name, path, name in targets:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn, name)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def thread_self_times(spans) -> list[float]:
    """Per-thread self time: duration minus the durations of same-thread children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def attribute(spans, main_thread: int) -> tuple[list[float], list[float]]:
    """Wall-clock self and total time of each span.

    Self times add up to the wall time of the main thread's root spans, also
    when work fans out to worker threads. A root span on another thread (a
    pool worker) is adopted by the innermost main-thread span that encloses
    it. The part of the adopter's own time that its adopted spans cover is
    handed to them, split in proportion to their durations, so parallel work
    is scaled down to the wall time it occupied. A span's total is its self
    time plus the totals of its children and adopted spans.
    """
    own = thread_self_times(spans)
    order = sorted(range(len(spans)), key=lambda i: spans[i].start)
    host = [s.parent for s in spans]
    main_spans = [i for i in order if spans[i].thread == main_thread]
    adopted = defaultdict(list)
    for i in order:
        s = spans[i]
        if s.parent is None and s.thread != main_thread:
            hosts = [j for j in main_spans
                     if spans[j].start <= s.start and s.end <= spans[j].end]
            if hosts:  # the last enclosing span in start order is the innermost
                host[i] = hosts[-1]
                adopted[hosts[-1]].append(i)
    scale = [1.0] * len(spans)
    wall_self = [0.0] * len(spans)
    for i in order:
        if spans[i].parent is not None:
            scale[i] = scale[spans[i].parent]
        kids = adopted.get(i, ())
        covered = 0.0
        if kids:
            covered = min(own[i], _union_length((spans[k].start, spans[k].end) for k in kids))
            busy = sum(spans[k].end - spans[k].start for k in kids)
            for k in kids:
                scale[k] = scale[i] * covered / busy if busy > 0 else 0.0
        wall_self[i] = scale[i] * (own[i] - covered)
    total = list(wall_self)
    for i in reversed(order):
        if host[i] is not None:
            total[host[i]] += total[i]
    return wall_self, total
