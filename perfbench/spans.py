"""Spans and counts recorded around repro's public entry points.

The benchmark never edits the program it measures. In a traced run,
:class:`Instrumentation` replaces selected methods and module functions
of ``repro`` with thin wrappers that either open a span (name, start,
end, parent) or bump a counter, and restores the originals on
:meth:`Instrumentation.uninstall`. Functions called hundreds of
thousands of times per run (``sjf_score``, the estimator, job-table
scalar accessors, ``set_generation``, per-item cache accesses) are only
counted: timing them would cost more than the work they do.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`), so nested layers
(``sim.step`` > ``core.schedule`` > ``core.policy`` > ...) add up to
the wall time without double counting.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Spans kept for the Chrome trace; later spans still count toward the
#: per-layer totals but are not written (keeps the file viewer-sized).
CHROME_SPAN_LIMIT = 100_000

#: Span names whose individual durations are kept for percentiles.
PERCENTILE_SPANS = (
    "sim.step",
    "core.schedule",
    "cache.reallocate",
    "serve.submit",
)


class SpanRecorder:
    """In-memory spans and counters of one process.

    ``spans`` holds ``[name, start_s, end_s, parent_index]`` lists in
    open order; ``parent_index`` is ``-1`` for a root span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the innermost span (which must be ``index``)."""
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a counter."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def high_water(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen under ``name``."""
        if value > self.counts.get(name, float("-inf")):
            self.counts[name] = value


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: its duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and overlapping
    children are merged, so the result is never negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def summarize(spans: Sequence[Sequence]) -> Dict[str, dict]:
    """Calls, total and self seconds per span name (plus durations for
    the names in :data:`PERCENTILE_SPANS`)."""
    own = self_times(spans)
    out: Dict[str, dict] = {}
    for (name, start, end, _parent), self_s in zip(spans, own):
        entry = out.get(name)
        if entry is None:
            entry = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            if name in PERCENTILE_SPANS:
                entry["durations_s"] = []
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_s
        if "durations_s" in entry:
            entry["durations_s"].append(end - start)
    return out


def chrome_trace(spans: Sequence[Sequence], pid: int, label: str) -> dict:
    """Spans as a Chrome ``trace_event`` object (Perfetto, chrome://tracing).

    One complete (``"X"``) event per span, in wall microseconds relative
    to the first span, on one thread lane of process ``pid``.
    """
    origin = spans[0][1] if spans else 0.0
    events: List[dict] = [
        {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
         "args": {"name": label}},
    ]
    for index, (name, start, end, parent) in enumerate(spans[:CHROME_SPAN_LIMIT]):
        events.append({
            "ph": "X",
            "cat": name.split(".", 1)[0],
            "name": name,
            "pid": pid,
            "tid": 0,
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "args": {"span": index, "parent": parent},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"spans": len(spans), "written": min(len(spans), CHROME_SPAN_LIMIT)},
    }


def write_chrome_trace(path: Path, trace: dict) -> None:
    """Write a Chrome trace object as JSON, creating the directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace))


# ----------------------------------------------------------------------
# Wrappers.
# ----------------------------------------------------------------------


def _timed(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    counts = rec.counts
    counts.setdefault(name, 0)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _item_access(rec: SpanRecorder, fn: Callable) -> Callable:
    counts = rec.counts
    counts.setdefault("cache.items.accesses", 0)
    counts.setdefault("cache.items.hits", 0)

    def wrapper(self, item):
        hit = fn(self, item)
        counts["cache.items.accesses"] += 1
        if hit:
            counts["cache.items.hits"] += 1
        return hit

    wrapper.__wrapped__ = fn
    return wrapper


def _pump(rec: SpanRecorder, fn: Callable) -> Callable:
    rec.counts.setdefault("serve.pump.steps", 0)

    def wrapper(*args, **kwargs):
        index = rec.open("serve.pump")
        try:
            steps = fn(*args, **kwargs)
        finally:
            rec.close(index)
        rec.counts["serve.pump.steps"] += steps
        return steps

    wrapper.__wrapped__ = fn
    return wrapper


def _submit(rec: SpanRecorder, fn: Callable) -> Callable:
    from repro.serve.protocol import ProtocolError

    rec.counts.setdefault("serve.rejects", 0)
    rec.counts.setdefault("serve.queue_depth_max", 0)

    def wrapper(self, job_data):
        index = rec.open("serve.submit")
        try:
            return fn(self, job_data)
        except ProtocolError:
            rec.count("serve.rejects")
            raise
        finally:
            rec.close(index)
            rec.high_water(
                "serve.queue_depth_max", self.stack.admission.depth
            )

    wrapper.__wrapped__ = fn
    return wrapper


#: ``(module, attribute path, span or counter name, kind)``. ``kind`` is
#: ``"span"`` (timed), ``"count"`` (calls counted) or a special wrapper.
#: Module-level functions are patched in every module listed, because a
#: ``from x import f`` binding does not see a patch of ``x.f``.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    # sim
    ("repro.sim.fluid", "FluidSimulator.step", "sim.step", "span"),
    ("repro.sim.minibatch", "MinibatchEmulator.step", "sim.step", "span"),
    *(
        ("repro.sim.jobtable", f"JobTable.{name}", "sim.jobtable", "span")
        for name in (
            "admit", "retire", "clear_rates", "set_rates_bulk", "advance",
            "next_completion_time", "next_epoch_boundary_time",
            "completed_rows", "epoch_flips",
        )
    ),
    ("repro.sim.jobtable", "JobTable.set_generation",
     "sim.jobtable.set_generation.calls", "count"),
    # core
    ("repro.core.silod", "SiloDScheduler.schedule", "core.schedule", "span"),
    ("repro.core.policies.fifo", "FifoPolicy.schedule", "core.policy", "span"),
    ("repro.core.policies.sjf", "SjfPolicy.schedule", "core.policy", "span"),
    ("repro.core.policies.gavel", "GavelPolicy.schedule", "core.policy",
     "span"),
    ("repro.core.estimator", "SiloDPerfEstimator.estimate",
     "core.estimator.calls", "count"),
    ("repro.core.estimator", "SiloDPerfEstimator.compute_bound_batch",
     "core.estimator.batch", "span"),
    ("repro.core.policies.sjf", "sjf_score", "core.sjf_score.calls", "count"),
    ("repro.core.policies.gavel", "equal_share", "core.gavel.equal_share",
     "span"),
    # cache
    ("repro.cache.base", "CacheSystem.reallocate", "cache.reallocate", "span"),
    *(
        ("repro.cache.residency", f"{cls}.{name}", "cache.residency", "span")
        for cls in ("ArrayResidencyStore", "DictResidencyStore")
        for name in (
            "keys", "total_resident_mb", "stale_first_keys",
            "reclaim_candidates", "clear_targets_except", "apply_targets",
            "prepare_targets", "apply_targets_prepared", "make_fill_plan",
            "run_fill_plan",
        )
    ),
    ("repro.cache.residency", "ArrayResidencyStore.resolve_fill_rows",
     "cache.residency", "span"),
    ("repro.cache.residency", "ArrayResidencyStore.fill_plan_from_rows",
     "cache.residency", "span"),
    # Item lookups: the minibatch pipeline tests ``item in cache`` on the
    # uniform (SiloD) caches and calls ``access`` only to admit a miss;
    # the LRU pool's ``access`` is the lookup itself.
    ("repro.cache.items", "UniformItemCache.__contains__", "", "item_access"),
    ("repro.cache.items", "LruItemCache.access", "", "item_access"),
    # obs
    ("repro.obs.tracer", "Tracer.emit", "obs.events", "count"),
    ("repro.obs.stream", "StreamingTracer.emit", "obs.events", "count"),
    ("repro.obs.prov", "emit_decision_provenance", "obs.provenance", "span"),
    ("repro.sim.fluid", "emit_decision_provenance", "obs.provenance", "span"),
    ("repro.sim.minibatch", "emit_decision_provenance", "obs.provenance",
     "span"),
    *(
        ("repro.obs.registry", f"MetricsRegistry.{name}", "obs.metrics",
         "span")
        for name in ("inc", "set_gauge", "observe", "snapshot")
    ),
    # serve
    ("repro.serve.engine", "OnlineEngine.submit", "", "submit"),
    ("repro.serve.engine", "OnlineEngine.pump", "", "pump"),
    ("repro.serve.engine", "OnlineEngine.status", "serve.read", "span"),
    ("repro.serve.engine", "OnlineEngine.metrics", "serve.read", "span"),
)


class Instrumentation:
    """Install and remove the wrappers of :data:`TARGETS`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: Targets the program no longer has; a run fails on any.
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._gc_start: Optional[float] = None

    def install(self) -> None:
        """Wrap every target and start counting garbage collections.

        A method a class inherits is wrapped on that class, so moving a
        method into a base class keeps its span; a target that no
        longer exists is listed in :attr:`missing` and skipped.
        """
        rec = self.recorder
        for module_name, path, name, kind in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if kind == "span":
                wrapped = _timed(rec, name, original)
            elif kind == "count":
                wrapped = _counted(rec, name, original)
            elif kind == "item_access":
                wrapped = _item_access(rec, original)
            elif kind == "pump":
                wrapped = _pump(rec, original)
            elif kind == "submit":
                wrapped = _submit(rec, original)
            else:
                raise ValueError(f"unknown wrapper kind {kind!r}")
            own = owner.__dict__.get(attr)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, own))
        rec.counts.setdefault("proc.gc.collections", 0)
        rec.counts.setdefault("proc.gc.pause_s", 0.0)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every original, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is None:
                delattr(owner, attr)  # it was inherited
            else:
                setattr(owner, attr, own)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.recorder.count("proc.gc.collections")
            self.recorder.count(
                "proc.gc.pause_s", time.perf_counter() - self._gc_start
            )
            self._gc_start = None
