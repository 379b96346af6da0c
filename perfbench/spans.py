"""In-memory span recorder for the benchmark's traced runs.

A :class:`Tracer` records spans (name, start, end, parent, job id) on
``time.perf_counter`` — CLOCK_MONOTONIC on Linux, so spans recorded in
the server process line up with the client's.  Spans come from two
places, both in the benchmark's own code: ``tracer.span(...)`` blocks
around the benchmark's calls into the program, and wrappers that
:func:`install` puts around the public entry points listed in
:data:`TARGETS`.  Nothing is patched unless :func:`install` is called,
and :meth:`Installed.remove` puts every original back.

Self time is a span's duration minus the union of its direct children's
intervals (:func:`self_times`); over a tree of properly nested spans the
self times sum to the root's duration.  :func:`chrome_trace` writes the
spans as Chrome trace-event JSON, which Perfetto and chrome://tracing
open.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Attribute set on every wrapper, so tests can tell a patched entry
#: point from the original.
WRAPPED_MARK = "__perfbench_span__"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    job: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_doc(self) -> Dict[str, Any]:
        return {"sid": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "job": self.job,
                "attrs": self.attrs}

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "Span":
        return cls(doc["sid"], doc["name"], doc["start"], doc["end"],
                   doc["parent"], doc["job"], dict(doc["attrs"]))


class Tracer:
    """Records properly nested spans of one single-threaded process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: job/op id stamped on spans opened while it is set
        self.job: Optional[str] = None

    @contextmanager
    def span(self, name: str, **attrs: Any):
        parent = self._stack[-1].sid if self._stack else None
        sp = Span(len(self.spans), name, self.clock(), parent=parent,
                  job=self.job, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()


# -- wrappers around the program's public entry points -------------------------------

#: (module, owner attribute path, attribute, span name).  An owner path of
#: "" patches a module-level function; otherwise a class attribute, and
#: only on the class that defines it.  The partition functions are
#: patched in each module that imported them by name.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.graph.partition", "", "greedy_vertex_cut", "graph.partition"),
    ("repro.graph.partition", "", "hash_partition", "graph.partition"),
    ("repro.engines.powergraph", "", "greedy_vertex_cut",
     "graph.partition"),
    ("repro.engines.graphx", "", "hash_partition", "graph.partition"),
    ("repro.core.middleware", "GXPlug", "connect_all",
     "core.middleware.connect_all"),
    ("repro.core.agent", "Agent", "edge_pass", "core.agent.edge_pass"),
    ("repro.core.daemon", "Daemon", "compute_block",
     "core.daemon.compute_block"),
    ("repro.core.sync_cache", "LRUVertexCache", "insert_many",
     "core.sync_cache.insert_many"),
    ("repro.core.sync_cache", "LRUVertexCache", "lookup_many",
     "core.sync_cache.lookup_many"),
    ("repro.core.template", "AlgorithmTemplate", "combine_many",
     "core.template.combine_many"),
    ("repro.ipc.scheduler", "Scheduler", "run", "ipc.scheduler.run"),
    ("repro.ipc.scheduler", "BatchedScheduler", "run",
     "ipc.scheduler.run"),
    ("repro.serve.service", "GraphService", "submit", "serve.submit"),
    ("repro.serve.service", "GraphService", "step", "serve.step"),
    ("repro.serve.service", "GraphService", "mutate", "serve.mutate"),
    ("repro.serve.store", "GraphStore", "build_engine",
     "serve.build_engine"),
    ("repro.serve.store", "GraphStore", "mutate", "graph.mutation_apply"),
    ("repro.serve.journal", "JobJournal", "append",
     "serve.journal_append"),
    ("repro.serve.journal", "JobJournal", "save_checkpoint",
     "serve.journal_sidecar"),
    ("repro.serve.journal", "JobJournal", "save_result",
     "serve.journal_sidecar"),
    ("repro.serve.journal", "JobJournal", "save_mutation",
     "serve.journal_sidecar"),
)

#: run_stepwise is a generator: each resumption is one superstep span
#: (the resumption that ends the run is marked ``tail``).
STEPWISE_TARGET = ("repro.engines.base", "IterativeEngine", "run_stepwise")
SUPERSTEP = "engines.superstep"


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    setattr(wrapper, WRAPPED_MARK, name)
    return wrapper


def _stepwise_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            with tracer.span(SUPERSTEP) as sp:
                try:
                    event = next(gen)
                except StopIteration as stop:
                    sp.attrs["tail"] = True
                    return stop.value
            yield event
    setattr(wrapper, WRAPPED_MARK, SUPERSTEP)
    return wrapper


class Installed:
    """The patches one :func:`install` made; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installed:
    """Wrap every entry point in :data:`TARGETS` with spans on ``tracer``."""
    done = Installed()
    try:
        for module, path, attr, name in TARGETS:
            owner = _owner(module, path)
            done._patch(owner, attr,
                        _span_wrapper(tracer, name, vars(owner)[attr]))
        module, path, attr = STEPWISE_TARGET
        owner = _owner(module, path)
        done._patch(owner, attr, _stepwise_wrapper(tracer, vars(owner)[attr]))
    except BaseException:
        done.remove()
        raise
    return done


def wrapped_entry_points() -> List[str]:
    """Names of the target entry points that currently carry a wrapper."""
    out = []
    for module, path, attr, _name in TARGETS + (STEPWISE_TARGET + ("",),):
        owner = _owner(module, path)
        if hasattr(vars(owner).get(attr), WRAPPED_MARK):
            out.append(f"{module}:{path}.{attr}")
    return out


# -- analysis ------------------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span itself)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        kids = [(max(lo, sp.start), min(hi, sp.end))
                for lo, hi in children.get(sp.sid, ())]
        kids = [(lo, hi) for lo, hi in kids if hi > lo]
        out[sp.sid] = sp.duration - _covered(kids)
    return out


def descendants(spans: Sequence[Span], root: int) -> List[Span]:
    """``root`` and every span below it."""
    by_parent: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            by_parent.setdefault(sp.parent, []).append(sp)
    out = [s for s in spans if s.sid == root]
    frontier = [root]
    while frontier:
        kids = by_parent.get(frontier.pop(), [])
        out.extend(kids)
        frontier.extend(k.sid for k in kids)
    return out


#: span name -> per-layer metric fed by its self time
LAYER_OF_SPAN = {
    "graph.partition": "graph.partition_s",
    "core.middleware.init": "core.middleware_init_s",
    "core.middleware.connect_all": "core.middleware_init_s",
    "engines.superstep": "engines.superstep_self_s",
    "core.agent.edge_pass": "core.agent.edge_pass_self_s",
    "core.daemon.compute_block": "core.daemon.compute_block_s",
    "core.sync_cache.insert_many": "core.sync_cache.insert_many_s",
    "core.sync_cache.lookup_many": "core.sync_cache.lookup_many_s",
    "core.template.combine_many": "core.template.combine_many_s",
    "ipc.scheduler.run": "ipc.scheduler_run_s",
    "serve.submit": "serve.submit_s",
    "serve.step": "serve.step_s",
    "serve.mutate": "serve.mutate_s",
    "serve.build_engine": "serve.build_engine_s",
    "graph.mutation_apply": "graph.mutation_apply_s",
    "serve.journal_append": "serve.journal_append_s",
    "serve.journal_sidecar": "serve.journal_sidecar_s",
    "job": "other_s",
}


def layer_self_times(all_spans, selfs) -> Dict[str, float]:
    out = dict.fromkeys(LAYER_OF_SPAN.values(), 0.0)
    for sp in all_spans:
        out[LAYER_OF_SPAN[sp.name]] += selfs[sp.sid]
    return out


def chrome_trace(groups: Sequence[Tuple[str, Sequence[Span]]],
                 path: str) -> None:
    """Write ``(process name, spans)`` groups as Chrome trace-event JSON."""
    events: List[Dict[str, Any]] = []
    t0 = min((sp.start for _name, spans in groups for sp in spans),
             default=0.0)
    for pid, (pname, spans) in enumerate(groups, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 1, "args": {"name": pname}})
        for sp in spans:
            args = dict(sp.attrs, sid=sp.sid, parent=sp.parent)
            if sp.job is not None:
                args["job"] = sp.job
            events.append({"name": sp.name, "cat": sp.name.split(".")[0],
                           "ph": "X", "pid": pid, "tid": 1,
                           "ts": (sp.start - t0) * 1e6,
                           "dur": sp.duration * 1e6, "args": args})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
