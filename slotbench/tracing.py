"""In-memory span tracing of the slot engine's layers, from outside the program.

The traced run wraps each layer's public entry points on their classes
(``SensorFleet.announcements``, ``GreedyAllocator.allocate``, ...) and
records one span per outermost call: name, start, end, parent span and the
slot id the harness set before the call (for the service, the tick, plus
the arrival ``seq`` on ``submit`` spans).  Nothing is written until
:meth:`Tracer.dump`, and :meth:`Tracer.uninstall` restores every original
attribute, so the untraced passes run the program unmodified.

An entry point that a class no longer defines is skipped and listed in
:attr:`Tracer.absent`; a metric whose entry points never ran reads 0 and
is named in :meth:`Tracer.layer_metrics`' ``absent`` list, so a later
refactor that deletes or renames a layer degrades the report instead of
crashing it.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from pathlib import Path

_KERNELS = (("repro.core.valuation", "ValuationKernel"),
            ("repro.core.sharding", "ShardedKernel"))
_STREAMS = (("repro.core.engine", "QueryStream+"),)

#: (span name, [(module, class)], [methods]) — the layer boundaries.  A
#: class written ``Base+`` stands for every subclass of ``Base`` (query
#: streams, gain blocks); each class is wrapped where it defines the method.
ENTRY_POINTS = (
    ("scenario.build", (("repro.datasets.scenario", "ScenarioSpec"),), ["build"]),
    ("sensors.announce", (("repro.sensors.fleet", "SensorFleet"),),
     ["announcements", "announcements_with_delta"]),
    ("sensors.advance", (("repro.sensors.fleet", "SensorFleet"),), ["advance"]),
    ("kernel.ensure", _KERNELS, ["ensure", "ensure_delta"]),
    ("kernel.values", _KERNELS, ["sparse_single_values", "single_values"]),
    ("kernel.candidates", _KERNELS, ["relevance", "candidate_view"]),
    ("raster.coverage", (("repro.spatial.raster", "WorldRaster"),), ["coverage_rows"]),
    ("raster.distance", (("repro.spatial.raster", "WorldRaster"),),
     ["exterior_distance_sq", "contains_mask"]),
    ("raster.patch", (("repro.spatial.raster", "WorldRaster"),), ["patched"]),
    ("queries.emit", _STREAMS, ["begin_slot", "emit"]),
    ("queries.gain", (("repro.queries.base", "GainBlock+"),), ["gain_many_block"]),
    ("greedy.allocate", (("repro.core.greedy", "GreedyAllocator"),), ["allocate"]),
    ("engine.settle", _STREAMS, ["settle"]),
    ("allocation.verify", (("repro.core.allocation", "AllocationResult"),), ["verify"]),
    ("engine.step", (("repro.core.engine", "SlotEngine"),), ["step"]),
    ("service.submit", (("repro.service.marketplace", "MarketplaceService"),), ["submit"]),
    ("service.tick", (("repro.service.marketplace", "MarketplaceService"),), ["tick_once"]),
)

#: Per-slot busy-time metrics: metric -> span name.
_SLOT_MS = {
    "sensors.announce_ms": "sensors.announce",
    "sensors.advance_ms": "sensors.advance",
    "kernel.ensure_ms": "kernel.ensure",
    "kernel.values_ms": "kernel.values",
    "kernel.candidates_ms": "kernel.candidates",
    "raster.coverage_ms": "raster.coverage",
    "raster.distance_ms": "raster.distance",
    "queries.emit_ms": "queries.emit",
    "queries.gain_ms": "queries.gain",
    "greedy.allocate_ms": "greedy.allocate",
    "engine.settle_ms": "engine.settle",
    "allocation.verify_ms": "allocation.verify",
}

_COUNTERS = ("sensors.churned", "kernel.reused", "raster.patches",
             "queries.gain_calls", "greedy.rounds", "greedy.answered",
             "greedy.offered")


def _classes(module_name: str, class_name: str) -> list[type]:
    """The classes an entry-point row names (empty if the module lost it)."""
    try:
        module = __import__(module_name, fromlist=["_"])
    except ImportError:
        return []
    base = getattr(module, class_name.rstrip("+"), None)
    if not isinstance(base, type):
        return []
    if not class_name.endswith("+"):
        return [base]
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Tracer:
    """Span recorder over the wrapped entry points (one per traced pass)."""

    def __init__(self, measured: set) -> None:
        #: slot ids whose counts and busy times are reported
        self.measured = measured
        #: spans as lists ``[slot, name, start, end, parent, seq]``
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        self.absent: list[str] = []
        self.active = False
        self.slot: int | str = "setup"
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._ensured: int | str | None = None
        self._saved: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS` that exists."""
        for name, places, methods in ENTRY_POINTS:
            classes = [cls for place in places for cls in _classes(*place)]
            for method in methods:
                owners = [cls for cls in classes if method in vars(cls)]
                if not owners:
                    self.absent.append(f"{name}: {method}")
                for cls in owners:
                    self._wrap(cls, method, name)

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _wrap(self, cls: type, method: str, name: str) -> None:
        raw = inspect.getattr_static(cls, method)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        if not callable(func):
            self.absent.append(f"{cls.__name__}.{method}")
            return
        hook = getattr(self, "_after_" + method, None)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active or tracer._open.get(name):
                return func(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [tracer.slot, name, 0.0, 0.0, parent, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            tracer._open[name] = 1
            span[2] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] = 0
            if hook is not None and tracer.slot in tracer.measured:
                hook(span, args, result)
            return result

        self._saved.append((cls, method, raw))
        setattr(cls, method, kind(traced) if kind is not None else traced)

    # Counting hooks, keyed by method name; they run after the span closed.
    def _after_announcements_with_delta(self, span, args, result) -> None:
        delta = result[1] if isinstance(result, tuple) and len(result) == 2 else None
        fresh = getattr(delta, "fresh_cols", None)
        if fresh is not None:
            self.counts["sensors.churned"] += len(fresh)

    def _after_ensure(self, span, args, result) -> None:
        # Only the slot's first ensure counts: the engine's, which decides
        # between reuse and rebuild.  Allocators re-ensure the kernel they
        # were handed later in the slot, which always reuses it.
        # Classmethod wrapper args are (cls, previous kernel, sensors, ...).
        if self._ensured == self.slot:
            return
        self._ensured = self.slot
        if len(args) > 1 and args[1] is not None and result is args[1]:
            self.counts["kernel.reused"] += 1

    _after_ensure_delta = _after_ensure

    def _after_patched(self, span, args, result) -> None:
        if result is not None:
            self.counts["raster.patches"] += 1

    def _after_gain_many_block(self, span, args, result) -> None:
        self.counts["queries.gain_calls"] += 1

    def _after_allocate(self, span, args, result) -> None:
        queries = args[1] if len(args) > 1 else ()
        self.counts["greedy.offered"] += len(queries)
        self.counts["greedy.rounds"] += len(getattr(result, "selected", ()))
        answered = getattr(result, "answered_count", None)
        if answered is not None:
            self.counts["greedy.answered"] += answered()

    def _after_submit(self, span, args, result) -> None:
        span[5] = getattr(result, "seq", None)

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[4] >= 0:
                children.setdefault(span[4], []).append((span[2], span[3]))
        out = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span[2]
            for start, end in sorted(children.get(index, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span[3] - span[2] - covered)
        return out

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics over the measured slots, plus absent names."""
        timed_slots = self.measured
        per_slot: dict[str, dict] = {m: dict.fromkeys(timed_slots, 0.0) for m in _SLOT_MS}
        by_name = {span: metric for metric, span in _SLOT_MS.items()}
        seen: set[str] = set()
        builds, submits, overheads, greedy_self = [], [], [], dict.fromkeys(timed_slots, 0.0)
        steps: dict[int, float] = {}
        selfs = self.self_times()
        for index, (slot, name, start, end, parent, _) in enumerate(self.spans):
            seen.add(name)
            duration = end - start
            if name == "scenario.build":
                builds.append(duration)
            if slot not in timed_slots:
                continue
            metric = by_name.get(name)
            if metric is not None:
                per_slot[metric][slot] += duration
            if name == "greedy.allocate":
                greedy_self[slot] += selfs[index]
            elif name == "service.submit":
                submits.append(duration)
            elif name == "engine.step" and parent >= 0:
                steps[parent] = steps.get(parent, 0.0) + duration
        for index, (slot, name, start, end, _, _) in enumerate(self.spans):
            if name == "service.tick" and slot in timed_slots:
                overheads.append(end - start - steps.get(index, 0.0))

        def median(values, scale):
            return statistics.median(values) * scale if values else 0.0

        metrics = {
            "scenario.build_s": median(builds, 1.0),
            "service.submit_us": median(submits, 1e6),
            "service.tick_overhead_ms": median(overheads, 1e3),
            "greedy.self_ms": median(list(greedy_self.values()), 1e3),
            "trace.spans": len(self.spans),
        }
        for metric, values in per_slot.items():
            metrics[metric] = median(list(values.values()), 1e3)
        for name in ("sensors.churned", "kernel.reused", "raster.patches",
                     "queries.gain_calls", "greedy.rounds"):
            metrics[name] = self.counts[name]
        offered = self.counts["greedy.offered"]
        metrics["greedy.answered_frac"] = (
            self.counts["greedy.answered"] / offered if offered else 0.0
        )
        span_of = {**_SLOT_MS,
                   "scenario.build_s": "scenario.build",
                   "service.submit_us": "service.submit",
                   "service.tick_overhead_ms": "service.tick",
                   "greedy.self_ms": "greedy.allocate",
                   "greedy.rounds": "greedy.allocate",
                   "greedy.answered_frac": "greedy.allocate",
                   "queries.gain_calls": "queries.gain",
                   "kernel.reused": "kernel.ensure",
                   "raster.patches": "raster.patch",
                   "sensors.churned": "sensors.announce"}
        absent = sorted(m for m, s in span_of.items() if s not in seen)
        return metrics, absent

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (one per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (slot, name, start, end, parent, seq) in enumerate(self.spans):
                row = {"id": index, "slot": slot, "name": name,
                       "start": start, "end": end, "parent": parent}
                if seq is not None:
                    row["seq"] = seq
                out.write(json.dumps(row) + "\n")
