"""The unified slot engine — one composable implementation of the paper's
Section 2.1 / 4.1 protocol.

Every experiment family used to own a near-identical simulation loop
(one-shot, location monitoring, region monitoring, query mix).  The
:class:`SlotEngine` factors that loop out once::

    announce -> generate queries -> allocate -> settle -> verify -> advance

and delegates everything family-specific to pluggable
:class:`QueryStream` components:

* :class:`OneShotStream` — fresh point/aggregate queries per slot;
* :class:`LiveQueryStream` — the one lifecycle of continuous queries
  (live in ``[t1, t2]``, children derived and settled every slot,
  quality reported at expiry), with three subclasses:
  :class:`LocationMonitoringStream` (Algorithm 2's controller),
  :class:`RegionMonitoringStream` (Algorithm 3's controller over a GP
  field) and :class:`EventDetectionStream` (Section 2.3's extension).

Each stream owns its arrivals, retirement, and quality accounting; the
engine owns the clock, the announcements, the per-slot
:class:`~repro.core.valuation.ValuationKernel` (built fresh every slot
and shared by every allocator consulted in it), the settlement invariants
(:meth:`~repro.core.allocation.AllocationResult.verify` on every settled
ledger, after the monitoring streams' payment adjustments) and the
:class:`~repro.core.metrics.SimulationSummary`.

A stream option exists only where two callers need different values
(README, "Stream options"); allocation ranks default to one table,
:data:`ALLOCATION_RANKS`.

How the emitted queries are turned into an
:class:`~repro.core.allocation.AllocationResult` is itself pluggable:

* :class:`JointSlotAllocation` — all streams' queries go into a single
  allocator call (Algorithm 5's joint stage, or the single-family
  engines);
* :class:`SequentialBufferedAllocation` — the Section 4.7 baseline:
  stage-1 query kinds run first, their sensors are re-announced at zero
  cost (data buffering), and the remaining kinds run second.

Arbitrary mixes of streams, fleets and allocators can therefore be
declared and run — see :class:`repro.datasets.scenario.ScenarioSpec` for
the declarative layer on top.
"""

from __future__ import annotations

import abc
import time
from typing import Iterable, Protocol, Sequence

import numpy as np

from ..queries import Query
from ..sensors import SensorFleet, SensorSnapshot
from ..sensors.state import announcement_batch
from .allocation import AllocationResult, Allocator
from .metrics import SimulationSummary, SlotRecord
from .monitoring import (
    LocationMonitoringController,
    RegionMonitoringController,
    RegionSlotOutcome,
)
from .valuation import ValuationKernel

__all__ = [
    "ALLOCATION_RANKS",
    "FLUSH_SLOT",
    "MIN_EVENT_BUDGET",
    "PHASES",
    "QueryStream",
    "OneShotStream",
    "LiveQueryStream",
    "LocationMonitoringStream",
    "RegionMonitoringStream",
    "EventDetectionStream",
    "SlotAllocation",
    "JointSlotAllocation",
    "SequentialBufferedAllocation",
    "SlotEngine",
    "quality_of",
    "one_shot_engine",
    "location_monitoring_engine",
    "region_monitoring_engine",
    "event_detection_engine",
    "mix_engine",
]

#: Retirement timestamp that expires every continuous query (end-of-run flush).
FLUSH_SLOT = 10**9

#: Stream kind -> default allocation rank, reproducing Algorithm 5's input
#: order: aggregates, then points, then the monitoring-derived children,
#: then event slot queries.  Kinds not listed (``one_shot``, the service's
#: ``admitted``) rank 0.  The keys are the stream kinds a scenario spec
#: can declare.
ALLOCATION_RANKS = {
    "aggregate": 0,
    "point": 1,
    "location_monitoring": 2,
    "region_monitoring": 3,
    "event": 4,
}

#: Event slot queries with a budget of at most this are not emitted.
MIN_EVENT_BUDGET = 1e-6

#: The engine's per-slot phase labels, in protocol order (profiling).
PHASES = ("announce", "kernel", "allocate", "settle")


def quality_of(query: Query, value: float) -> float:
    """Achieved value over the query's reference maximum."""
    if query.max_value <= 0:
        return 0.0
    return value / query.max_value


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------
class QueryStream(abc.ABC):
    """One source of queries inside a slot engine.

    A stream owns the full lifecycle of its queries: per-slot arrivals
    (and retirement of expired continuous queries), the queries it emits
    into the slot's allocation, and folding the allocation outcome back
    into its own accounting.

    Class attributes tune how a stream composes with others:

    ``allocation_rank``
        Sort key for concatenating emissions into the joint allocation
        (aggregates first reproduces Algorithm 5's input order; the
        built-in streams default to their kind's :data:`ALLOCATION_RANKS`
        entry).
    ``settle_rank``
        Sort key for settlement; monitoring streams settle first so their
        payment adjustments land before one-shot streams read per-query
        utilities from the ledger.
    """

    kind: str = "stream"
    allocation_rank: int = 0
    settle_rank: int = 0

    @abc.abstractmethod
    def begin_slot(
        self, t: int, rng: np.random.Generator, summary: SimulationSummary
    ) -> None:
        """Retire expired queries and draw this slot's arrivals."""

    @abc.abstractmethod
    def emit(self, t: int, sensors: Sequence[SensorSnapshot]) -> list[Query]:
        """The queries this stream submits to the slot's allocation."""

    @abc.abstractmethod
    def settle(
        self,
        t: int,
        result: AllocationResult,
        record: SlotRecord,
        summary: SimulationSummary,
    ) -> None:
        """Fold the allocation outcome into stream + summary accounting."""

    def flush(self, summary: SimulationSummary) -> None:
        """End-of-run: retire everything still live."""


class OneShotStream(QueryStream):
    """Fresh one-shot queries per slot (point or aggregate workloads).

    Args:
        workload: any ``generate(t, rng) -> list[Query]`` source.
        kind: label used by allocation strategies to stage streams.
        allocation_rank: overrides the kind's :data:`ALLOCATION_RANKS` entry.
        counted: whether this stream's queries count towards the slot's
            issued/answered totals (the paper's mix figure counts only
            user point queries).
        record_slot_qualities: additionally append per-slot quality samples
            to the :class:`SlotRecord` (the single-family engines do).
        quality_label: summary label for quality samples; defaults to each
            query's ``query_type.value``.
    """

    def __init__(
        self,
        workload,
        kind: str = "one_shot",
        allocation_rank: int | None = None,
        counted: bool = True,
        record_slot_qualities: bool = True,
        quality_label: str | None = None,
    ) -> None:
        self.workload = workload
        self.kind = kind
        self.allocation_rank = (
            ALLOCATION_RANKS.get(kind, 0) if allocation_rank is None else allocation_rank
        )
        self.counted = counted
        self.record_slot_qualities = record_slot_qualities
        self.quality_label = quality_label
        self.current: list[Query] = []

    def begin_slot(self, t, rng, summary):
        self.current = list(self.workload.generate(t, rng))

    def emit(self, t, sensors):
        return list(self.current)

    def settle(self, t, result, record, summary):
        if self.counted:
            record.issued += len(self.current)
        value = 0.0
        query_paid, _ = result.payment_totals()
        for query in self.current:
            if result.is_answered(query.query_id):
                if self.counted:
                    record.answered += 1
                achieved = result.values[query.query_id]
                value += achieved
                quality = quality_of(query, achieved)
                if self.record_slot_qualities:
                    record.qualities.append(quality)
                label = self.quality_label or query.query_type.value
                summary.add_quality(label, quality)
            summary.record_query_outcome(
                result.values.get(query.query_id, 0.0)
                - query_paid.get(query.query_id, 0.0)
            )
        record.value += value


class LiveQueryStream(QueryStream):
    """Continuous queries live in ``[t1, t2]`` that derive children per slot.

    The shared lifecycle of Algorithm 2, Algorithm 3 and the Section 2.3
    event extension: :meth:`begin_slot` retires the expired queries, then
    admits the slot's arrivals into :attr:`live`; each subclass's
    :meth:`emit` derives :attr:`children` from the live queries and its
    :meth:`settle` folds the outcome back, ending with :meth:`_book` (the
    issued/answered counts and the ``live`` extra).  An expired query
    reports its quality under the stream's ``kind`` and its outcome
    ``achieved_value() - spent``.

    Args:
        workload: the arrival source (``generate(t, rng)``).
        allocation_rank: overrides the kind's :data:`ALLOCATION_RANKS` entry.
        counted: whether the derived children count towards the slot's
            issued/answered totals.
        live_key: slot-record extra that receives the live-query count
            (``None`` records nothing).
    """

    def __init__(
        self,
        workload,
        allocation_rank: int | None = None,
        counted: bool = True,
        live_key: str | None = "live",
    ) -> None:
        self.workload = workload
        self.allocation_rank = (
            ALLOCATION_RANKS[self.kind] if allocation_rank is None else allocation_rank
        )
        self.counted = counted
        self.live_key = live_key
        self.live: list = []
        self.children: list[Query] = []

    def begin_slot(self, t, rng, summary):
        self._retire(t, summary)
        self.live.extend(self._arrivals(t, rng))

    def _arrivals(self, t: int, rng: np.random.Generator) -> list:
        return self.workload.generate(t, rng)

    def flush(self, summary):
        self._retire(FLUSH_SLOT, summary)

    def _retire(self, t: int, summary: SimulationSummary) -> None:
        remaining = []
        for query in self.live:
            if query.expired(t):
                summary.add_quality(self.kind, query.quality_of_results())
                summary.record_query_outcome(query.achieved_value() - query.spent)
                self._expired(query, summary)
            else:
                remaining.append(query)
        self.live = remaining

    def _expired(self, query, summary: SimulationSummary) -> None:
        """Extra accounting for one retired query (none by default)."""

    def _book(self, result: AllocationResult, record: SlotRecord) -> None:
        if self.counted:
            record.issued += len(self.children)
            record.answered += sum(
                1 for child in self.children if result.is_answered(child.query_id)
            )
        if self.live_key is not None:
            record.extras[self.live_key] = float(len(self.live))


class LocationMonitoringStream(LiveQueryStream):
    """Live location-monitoring queries driven by Algorithm 2's controller.

    ``samples_key`` names the slot-record extra that receives the slot's
    successful sample count (``None`` records nothing).
    """

    kind = "location_monitoring"
    settle_rank = -2

    def __init__(
        self,
        workload,
        controller: LocationMonitoringController | None = None,
        allocation_rank: int | None = None,
        counted: bool = True,
        samples_key: str | None = "samples",
        live_key: str | None = "live",
    ) -> None:
        super().__init__(workload, allocation_rank, counted, live_key)
        self.controller = (
            controller if controller is not None else LocationMonitoringController()
        )
        self.samples_key = samples_key
        self.value_delta = 0.0

    def _arrivals(self, t, rng):
        return self.workload.generate(t, rng, live_count=len(self.live))

    def emit(self, t, sensors):
        self.children = self.controller.create_point_queries(self.live, t)
        return list(self.children)

    def settle(self, t, result, record, summary):
        samples, self.value_delta = self.controller.apply_results(
            self.live, self.children, result, t
        )
        record.value += self.value_delta
        if self.samples_key is not None:
            record.extras[self.samples_key] = float(samples)
        self._book(result, record)


class RegionMonitoringStream(LiveQueryStream):
    """Live region-monitoring queries driven by Algorithm 3's controller."""

    kind = "region_monitoring"
    settle_rank = -1

    def __init__(
        self,
        workload,
        controller: RegionMonitoringController | None = None,
        allocation_rank: int | None = None,
        counted: bool = True,
        live_key: str | None = "live",
    ) -> None:
        super().__init__(workload, allocation_rank, counted, live_key)
        self.controller = (
            controller if controller is not None else RegionMonitoringController()
        )
        self.plans: dict = {}
        self.outcomes: list[RegionSlotOutcome] = []

    def emit(self, t, sensors):
        self.children, self.plans = self.controller.create_point_queries(
            self.live, sensors, t
        )
        return list(self.children)

    def settle(self, t, result, record, summary):
        self.outcomes = self.controller.apply_results(
            self.live, self.children, self.plans, result, t
        )
        self.controller.adjust_payments(result, self.outcomes)
        record.value += sum(o.achieved_value for o in self.outcomes)
        self._book(result, record)


class EventDetectionStream(LiveQueryStream):
    """Live event-detection queries (Section 2.3's deferred extension).

    Each slot, every active :class:`~repro.queries.EventDetectionQuery`
    derives a redundant-sampling :class:`~repro.queries.EventSlotQuery`
    whose valuation pays for additional witnesses only until the requested
    confidence is reached (children with a budget of at most
    :data:`MIN_EVENT_BUDGET` are not emitted); the allocation outcome is
    folded back as (value, quality) readings, and the slot's fired count
    goes to the ``detections`` extra.

    Args:
        workload: an ``EventDetectionWorkload``-like arrival source.
        phenomenon: optional ``(t, Location) -> float`` ground-truth signal
            the witnesses report; without one, readings carry value 0.0 —
            no event can fire, but the acquisition economics (confidence,
            payments, utility) are unaffected, which is all the allocation
            experiments measure.
    """

    kind = "event"

    def __init__(
        self,
        workload,
        phenomenon=None,
        allocation_rank: int | None = None,
        counted: bool = True,
        live_key: str | None = "live",
    ) -> None:
        super().__init__(workload, allocation_rank, counted, live_key)
        self.phenomenon = phenomenon

    def emit(self, t, sensors):
        self.children = []
        for query in self.live:
            if not query.active(t):
                continue
            child = query.create_slot_query(t)
            if child.budget > MIN_EVENT_BUDGET:
                self.children.append(child)
        return list(self.children)

    def settle(self, t, result, record, summary):
        by_id = {q.query_id: q for q in self.live}
        query_paid, _ = result.payment_totals()
        fired = 0
        value = 0.0
        for child in self.children:
            query = by_id[child.parent_id]
            snapshots = [
                result.selected[sid]
                for sid in result.assignments.get(child.query_id, ())
            ]
            readings = [
                (
                    self.phenomenon(t, s.location) if self.phenomenon else 0.0,
                    child.quality(s),
                )
                for s in snapshots
            ]
            achieved = result.values.get(child.query_id, 0.0)
            if query.record_slot(
                t, readings, achieved, query_paid.get(child.query_id, 0.0)
            ):
                fired += 1
            value += achieved
        record.value += value
        self._book(result, record)
        record.extras["detections"] = float(fired)

    def _expired(self, query, summary):
        # Figure-style detection accounting: whether the event fired over
        # the lifetime, and (for fired queries) the latency in slots from
        # issue to the first detection.
        summary.add_quality("event_detected", 1.0 if query.detections else 0.0)
        if query.detections:
            summary.add_quality(
                "event_detection_latency",
                float(query.detections[0][0] - query.t1),
            )


# ----------------------------------------------------------------------
# slot allocation strategies
# ----------------------------------------------------------------------
class SlotAllocation(Protocol):
    """Turns the streams' emitted queries into one settled slot result."""

    def run(
        self,
        t: int,
        streams: Sequence[QueryStream],
        sensors: Sequence[SensorSnapshot],
        kernel: ValuationKernel | None,
    ) -> AllocationResult: ...


def _emissions_in_rank_order(
    pairs: Iterable[tuple[QueryStream, list[Query]]]
) -> list[Query]:
    ordered = sorted(pairs, key=lambda pair: pair[0].allocation_rank)
    return [query for _, queries in ordered for query in queries]


class JointSlotAllocation:
    """All streams' queries in one allocator call (Algorithm 5 stage 2)."""

    def __init__(self, allocator: Allocator) -> None:
        self.allocator = allocator

    def run(self, t, streams, sensors, kernel):
        emissions = [(stream, stream.emit(t, sensors)) for stream in streams]
        queries = _emissions_in_rank_order(emissions)
        return self.allocator.allocate(queries, sensors, kernel=kernel)


class SequentialBufferedAllocation:
    """Sequential per-kind execution with data buffering (Section 4.7).

    Stage-1 streams (by ``kind``) allocate first; their selected sensors
    are re-announced at zero cost for the stage-2 streams ("the cost of
    selected sensors is set to zero for subsequent queries").  The merged
    ledger restores the original cost snapshots so each sensor still shows
    exactly one cost recovery.
    """

    def __init__(
        self,
        stage1_allocator: Allocator,
        stage2_allocator: Allocator,
        stage1_kinds: Sequence[str] = ("aggregate",),
    ) -> None:
        self.stage1_allocator = stage1_allocator
        self.stage2_allocator = stage2_allocator
        self.stage1_kinds = frozenset(stage1_kinds)

    def run(self, t, streams, sensors, kernel):
        sensors = announcement_batch(sensors)
        stage1_streams = [s for s in streams if s.kind in self.stage1_kinds]
        stage2_streams = [s for s in streams if s.kind not in self.stage1_kinds]

        stage1_queries = _emissions_in_rank_order(
            (stream, stream.emit(t, sensors)) for stream in stage1_streams
        )
        stage1 = self.stage1_allocator.allocate(stage1_queries, sensors, kernel=kernel)
        result = AllocationResult()
        result.merge(stage1)

        # Stage-1 sensors are buffered: re-announce them at zero cost.  The
        # kernel stays valid — it never depends on announced prices — and
        # the repriced batch is a zero-copy cost view (only the selected
        # rows change; identity arrays are shared), so the slot path stays
        # free of per-sensor loops.
        stage2_sensors = sensors
        if stage1.selected:
            buffered = np.isin(
                sensors.ids, np.fromiter(stage1.selected, np.int64, len(stage1.selected))
            )
            stage2_sensors = sensors.with_costs(np.where(buffered, 0.0, sensors.costs))

        stage2_queries = _emissions_in_rank_order(
            (stream, stream.emit(t, stage2_sensors)) for stream in stage2_streams
        )
        stage2 = self.stage2_allocator.allocate(
            stage2_queries, stage2_sensors, kernel=kernel
        )

        # Merge stage 2, restoring original cost snapshots so the combined
        # ledger still shows each sensor recovering its true cost (paid
        # once, in stage 1).
        restored = AllocationResult(
            selected={
                sid: (stage1.selected[sid] if sid in stage1.selected else snap)
                for sid, snap in stage2.selected.items()
            },
            assignments=stage2.assignments,
            values=stage2.values,
            payments=stage2.payments,
        )
        result.merge(restored)
        return result


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class SlotEngine:
    """Composable slot-synchronous simulation (Section 2.1 / 4.1 protocol).

    Args:
        fleet: the sensor fleet (owns mobility, costs, lifetime).
        streams: the query sources, in the order their workloads should
            consume the shared ``rng`` each slot.
        allocation: a :class:`SlotAllocation` strategy, or a plain
            :class:`Allocator` (wrapped in :class:`JointSlotAllocation`).
        rng: drives the workloads only — mobility randomness lives in the
            fleet, so two engines sharing a replayed trace and the same
            workload seed compare algorithms on identical inputs.

    Every slot's settled ledger is checked with
    :meth:`~repro.core.allocation.AllocationResult.verify`: the allocators
    verify their own results, but settlement may still edit the ledger
    (region monitoring's payment refunds), and the merged result of a
    two-stage allocation is only checked here.

    Every slot re-announces the fleet through
    :meth:`~repro.sensors.SensorFleet.announcements` (Section 2.1: sensors
    announce location and price at the start of every slot) and builds the
    slot state — kernel, grid index, coverage rows — fresh from that batch.
    Nothing of it outlives the slot.

    Each :meth:`step` also records its phase wall-times in
    :attr:`last_timings` (``{phase: seconds}`` over :data:`PHASES`); setting
    :attr:`profile` to True additionally copies the timings into the slot
    record's extras as ``t_<phase>`` (the ``repro scenario --profile`` path).
    """

    def __init__(
        self,
        fleet: SensorFleet,
        streams: Sequence[QueryStream],
        allocation: SlotAllocation | Allocator,
        rng: np.random.Generator,
    ) -> None:
        if not streams:
            raise ValueError("SlotEngine needs at least one query stream")
        self.fleet = fleet
        self.streams = list(streams)
        if hasattr(allocation, "run"):
            self.allocation: SlotAllocation = allocation  # type: ignore[assignment]
        else:
            self.allocation = JointSlotAllocation(allocation)  # type: ignore[arg-type]
        self.rng = rng
        self.profile = False
        self.last_timings: dict[str, float] = {}
        self.last_result: AllocationResult | None = None
        self.last_record: SlotRecord | None = None

    def stream(self, kind: str) -> QueryStream:
        """The first stream of the given kind (raises ``KeyError`` if none)."""
        for stream in self.streams:
            if stream.kind == kind:
                return stream
        raise KeyError(f"no stream of kind {kind!r}")

    def run(self, n_slots: int, *, keep_samples: bool = False) -> SimulationSummary:
        """Run ``n_slots`` slots into a fresh summary.

        ``keep_samples`` opts into raw quality-sample retention (see
        :class:`~repro.core.metrics.SimulationSummary`); the default keeps
        only the streaming aggregates, so quality accounting no longer
        grows with the number of answered queries (the dominant per-slot
        term).  The summary still appends one :class:`SlotRecord` per slot.
        """
        summary = SimulationSummary(keep_samples=keep_samples)
        for _ in range(n_slots):
            self.step(summary)
        for stream in self.streams:
            stream.flush(summary)
        return summary

    def step(self, summary: SimulationSummary) -> SlotRecord:
        """Run one slot of the protocol; appends and returns its record."""
        t = self.fleet.clock
        for stream in self.streams:
            stream.begin_slot(t, self.rng, summary)
        # The fleet announces as an AnnouncementBatch: stacked arrays plus
        # a lazy Sequence[SensorSnapshot] view, so the batch threads
        # through streams/allocators unchanged while the kernel build
        # below adopts the arrays zero-copy (no per-sensor loop).
        t0 = time.perf_counter()
        sensors = self.fleet.announcements()
        t1 = time.perf_counter()
        kernel = ValuationKernel.from_sensors(sensors)
        t2 = time.perf_counter()
        result = self.allocation.run(t, self.streams, sensors, kernel)
        self.last_result = result
        t3 = time.perf_counter()
        record = SlotRecord(slot=t, cost=result.total_cost)
        for stream in sorted(self.streams, key=lambda s: s.settle_rank):
            stream.settle(t, result, record, summary)
        result.verify()
        summary.slots.append(record)
        self.fleet.record_measurements(list(result.selected))
        self.fleet.advance()
        t4 = time.perf_counter()
        self.last_timings = {
            "announce": t1 - t0,
            "kernel": t2 - t1,
            "allocate": t3 - t2,
            "settle": t4 - t3,
        }
        if self.profile:
            for phase, seconds in self.last_timings.items():
                record.extras[f"t_{phase}"] = seconds
        self.last_record = record
        return record


# ----------------------------------------------------------------------
# engine factories for the four canonical experiment families
# ----------------------------------------------------------------------
def one_shot_engine(fleet, workload, allocator, rng) -> SlotEngine:
    """Figures 2-7: a stream of one-shot (point or aggregate) queries."""
    return SlotEngine(
        fleet,
        [OneShotStream(workload, kind="one_shot", record_slot_qualities=True)],
        JointSlotAllocation(allocator),
        rng,
    )


def location_monitoring_engine(
    fleet, workload, point_allocator, rng, controller=None
) -> SlotEngine:
    """Figure 8: continuous location-monitoring queries."""
    return SlotEngine(
        fleet,
        [LocationMonitoringStream(workload, controller=controller)],
        JointSlotAllocation(point_allocator),
        rng,
    )


def region_monitoring_engine(
    fleet, workload, point_allocator, rng, controller=None
) -> SlotEngine:
    """Figure 9: continuous region-monitoring queries over a GP field."""
    return SlotEngine(
        fleet,
        [RegionMonitoringStream(workload, controller=controller)],
        JointSlotAllocation(point_allocator),
        rng,
    )


def event_detection_engine(
    fleet, workload, point_allocator, rng, *, phenomenon=None
) -> SlotEngine:
    """Event-detection extension: redundant-sampling slot queries."""
    return SlotEngine(
        fleet,
        [EventDetectionStream(workload, phenomenon=phenomenon)],
        JointSlotAllocation(point_allocator),
        rng,
    )


def mix_engine(
    fleet,
    point_workload,
    aggregate_workload,
    location_workload,
    rng,
    *,
    region_workload=None,
    mix=None,
) -> SlotEngine:
    """Figure 10: point + aggregate + monitoring streams in one slot cycle.

    ``mix`` is the pipeline configuration: a
    :class:`~repro.core.mix.MixAllocator` (Algorithm 5, the default: joint
    allocation over all emitted queries) or a
    :class:`~repro.core.mix.BaselineMixAllocator` (the Section 4.7
    baseline: aggregates buffered first, then everything else at
    discounted sensor costs).  Its controllers drive the monitoring streams.
    """
    if mix is None:
        from .mix import MixAllocator

        mix = MixAllocator()
    streams: list[QueryStream] = [
        OneShotStream(
            point_workload,
            kind="point",
            record_slot_qualities=False,
            quality_label="point",
        ),
        OneShotStream(
            aggregate_workload,
            kind="aggregate",
            counted=False,
            record_slot_qualities=False,
            quality_label="aggregate",
        ),
        LocationMonitoringStream(
            location_workload,
            controller=mix.lm_controller,
            counted=False,
            samples_key="lm_samples",
            live_key=None,
        ),
    ]
    if region_workload is not None:
        streams.append(
            RegionMonitoringStream(
                region_workload,
                controller=mix.rm_controller,
                counted=False,
                live_key=None,
            )
        )
    return SlotEngine(fleet, streams, mix.allocation(), rng)
