"""Verbatim copy of the pre-refactor simulation engines (parity reference).

These are the four hand-rolled slot loops the :class:`repro.core.SlotEngine`
replaced, kept byte-for-byte (imports aside) so the engine-parity test can
prove the unified engine reproduces the seed behavior on identical seeds.
Do not "fix" or modernize this module — its value is being frozen.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from oracles import (
    OracleBaselineMixAllocator as BaselineMixAllocator,
    OracleMixAllocator as MixAllocator,
)
from repro.core.allocation import AllocationResult, Allocator
from repro.core.baselines import BaselineAllocator
from repro.core.metrics import SimulationSummary, SlotRecord
from repro.core.monitoring import (
    LocationMonitoringController,
    RegionMonitoringController,
)
from repro.queries import (
    LocationMonitoringQuery,
    PointQuery,
    Query,
    RegionMonitoringQuery,
)
from repro.sensors import SensorFleet, SensorSnapshot

__all__ = [
    "LegacyOneShotSimulation",
    "LegacyLocationMonitoringSimulation",
    "LegacyRegionMonitoringSimulation",
    "LegacyMixSimulation",
]


class OneShotWorkload(Protocol):
    """Anything that emits fresh one-shot queries per slot."""

    def generate(self, t: int, rng: np.random.Generator) -> list[Query]: ...


def _quality_of(query: Query, value: float) -> float:
    """Achieved value over the query's reference maximum."""
    if query.max_value <= 0:
        return 0.0
    return value / query.max_value


class LegacyOneShotSimulation:
    """Figures 2-7: a stream of one-shot (point or aggregate) queries.

    Args:
        fleet: the sensor fleet (owns mobility, costs, lifetime).
        workload: per-slot query generator.
        allocator: the algorithm under test.
        rng: drives the workload only — mobility randomness lives in the
            fleet, so two engines sharing a replayed trace and the same
            workload seed compare algorithms on identical inputs.
    """

    def __init__(
        self,
        fleet: SensorFleet,
        workload: OneShotWorkload,
        allocator: Allocator,
        rng: np.random.Generator,
    ) -> None:
        self.fleet = fleet
        self.workload = workload
        self.allocator = allocator
        self.rng = rng

    def run(self, n_slots: int) -> SimulationSummary:
        summary = SimulationSummary()
        for t in range(n_slots):
            sensors = self.fleet.announcements()
            queries = self.workload.generate(t, self.rng)
            result = self.allocator.allocate(queries, sensors)
            record = SlotRecord(
                slot=t,
                value=result.total_value,
                cost=result.total_cost,
                issued=len(queries),
                answered=result.answered_count(),
            )
            for query in queries:
                if result.is_answered(query.query_id):
                    value = result.values[query.query_id]
                    quality = _quality_of(query, value)
                    record.qualities.append(quality)
                    label = query.query_type.value
                    summary.add_quality(label, quality)
                summary.record_query_outcome(result.query_utility(query.query_id))
            summary.slots.append(record)
            self.fleet.record_measurements(list(result.selected))
            self.fleet.advance()
        return summary


class LegacyLocationMonitoringSimulation:
    """Figure 8: continuous location-monitoring queries.

    ``controller`` decides how point queries are derived (Algorithm 2, or
    its desired-times-only baseline); ``point_allocator`` answers them
    (Optimal = "Alg2-O", LocalSearch = "Alg2-LS", Baseline = "Baseline").
    """

    def __init__(
        self,
        fleet: SensorFleet,
        workload,
        point_allocator: Allocator,
        rng: np.random.Generator,
        controller: LocationMonitoringController | None = None,
    ) -> None:
        self.fleet = fleet
        self.workload = workload
        self.point_allocator = point_allocator
        self.rng = rng
        self.controller = (
            controller if controller is not None else LocationMonitoringController()
        )
        self.live: list[LocationMonitoringQuery] = []

    def run(self, n_slots: int) -> SimulationSummary:
        summary = SimulationSummary()
        for t in range(n_slots):
            self._retire(t, summary)
            self.live.extend(self.workload.generate(t, self.rng, live_count=len(self.live)))
            sensors = self.fleet.announcements()
            children = self.controller.create_point_queries(self.live, t)
            result = self.point_allocator.allocate(children, sensors)
            samples, value_delta = self.controller.apply_results(
                self.live, children, result, t
            )
            summary.slots.append(
                SlotRecord(
                    slot=t,
                    value=value_delta,
                    cost=result.total_cost,
                    issued=len(children),
                    answered=result.answered_count(),
                    extras={"samples": float(samples), "live": float(len(self.live))},
                )
            )
            self.fleet.record_measurements(list(result.selected))
            self.fleet.advance()
        self._retire(n_slots + 10**9, summary)  # flush everything at the end
        return summary

    def _retire(self, t: int, summary: SimulationSummary) -> None:
        remaining: list[LocationMonitoringQuery] = []
        for query in self.live:
            if query.expired(t):
                summary.add_quality("location_monitoring", query.quality_of_results())
                summary.record_query_outcome(query.achieved_value() - query.spent)
            else:
                remaining.append(query)
        self.live = remaining


class LegacyRegionMonitoringSimulation:
    """Figure 9: continuous region-monitoring queries over a GP field."""

    def __init__(
        self,
        fleet: SensorFleet,
        workload,
        point_allocator: Allocator,
        rng: np.random.Generator,
        controller: RegionMonitoringController | None = None,
    ) -> None:
        self.fleet = fleet
        self.workload = workload
        self.point_allocator = point_allocator
        self.rng = rng
        self.controller = (
            controller if controller is not None else RegionMonitoringController()
        )
        self.live: list[RegionMonitoringQuery] = []

    def run(self, n_slots: int) -> SimulationSummary:
        summary = SimulationSummary()
        for t in range(n_slots):
            self._retire(t, summary)
            self.live.extend(self.workload.generate(t, self.rng))
            sensors = self.fleet.announcements()
            children, plans = self.controller.create_point_queries(
                self.live, sensors, t
            )
            result = self.point_allocator.allocate(children, sensors)
            outcomes = self.controller.apply_results(
                self.live, children, plans, result, t
            )
            self.controller.adjust_payments(result, outcomes)
            achieved = sum(o.achieved_value for o in outcomes)
            summary.slots.append(
                SlotRecord(
                    slot=t,
                    value=achieved,
                    cost=result.total_cost,
                    issued=len(children),
                    answered=result.answered_count(),
                    extras={"live": float(len(self.live))},
                )
            )
            self.fleet.record_measurements(list(result.selected))
            self.fleet.advance()
        self._retire(n_slots + 10**9, summary)
        return summary

    def _retire(self, t: int, summary: SimulationSummary) -> None:
        remaining: list[RegionMonitoringQuery] = []
        for query in self.live:
            if query.expired(t):
                summary.add_quality("region_monitoring", query.quality_of_results())
                summary.record_query_outcome(query.achieved_value() - query.spent)
            else:
                remaining.append(query)
        self.live = remaining


class LegacyMixSimulation:
    """Figure 10: point + aggregate + location monitoring together.

    ``mix`` is either :class:`MixAllocator` (Algorithm 5) or
    :class:`BaselineMixAllocator`.  Region monitoring can be included but
    the paper's Figure 10 excludes it (no measurement data in RNC); pass
    ``region_workload=None`` to reproduce that.
    """

    def __init__(
        self,
        fleet: SensorFleet,
        point_workload,
        aggregate_workload,
        location_workload,
        mix: MixAllocator | BaselineMixAllocator,
        rng: np.random.Generator,
        region_workload=None,
    ) -> None:
        self.fleet = fleet
        self.point_workload = point_workload
        self.aggregate_workload = aggregate_workload
        self.location_workload = location_workload
        self.region_workload = region_workload
        self.mix = mix
        self.rng = rng
        self.live_lm: list[LocationMonitoringQuery] = []
        self.live_rm: list[RegionMonitoringQuery] = []

    def run(self, n_slots: int) -> SimulationSummary:
        summary = SimulationSummary()
        for t in range(n_slots):
            self._retire(t, summary)
            points: list[PointQuery] = self.point_workload.generate(t, self.rng)
            aggregates = self.aggregate_workload.generate(t, self.rng)
            self.live_lm.extend(
                self.location_workload.generate(t, self.rng, live_count=len(self.live_lm))
            )
            if self.region_workload is not None:
                self.live_rm.extend(self.region_workload.generate(t, self.rng))
            sensors = self.fleet.announcements()
            outcome = self.mix.allocate_slot(
                t, points, aggregates, self.live_lm, self.live_rm, sensors
            )
            result = outcome.result
            record = SlotRecord(
                slot=t,
                value=outcome.total_utility + result.total_cost,
                cost=result.total_cost,
                issued=len(points),
                extras={"lm_samples": float(outcome.lm_samples)},
            )
            for query in points:
                if result.is_answered(query.query_id):
                    record.answered += 1
                    quality = _quality_of(query, result.values[query.query_id])
                    summary.add_quality("point", quality)
                summary.record_query_outcome(result.query_utility(query.query_id))
            for query in aggregates:
                if result.is_answered(query.query_id):
                    quality = _quality_of(query, result.values[query.query_id])
                    summary.add_quality("aggregate", quality)
                summary.record_query_outcome(result.query_utility(query.query_id))
            summary.slots.append(record)
            self.fleet.record_measurements(list(result.selected))
            self.fleet.advance()
        self._retire(n_slots + 10**9, summary)
        return summary

    def _retire(self, t: int, summary: SimulationSummary) -> None:
        live: list[LocationMonitoringQuery] = []
        for query in self.live_lm:
            if query.expired(t):
                summary.add_quality("location_monitoring", query.quality_of_results())
                summary.record_query_outcome(query.achieved_value() - query.spent)
            else:
                live.append(query)
        self.live_lm = live
        live_rm: list[RegionMonitoringQuery] = []
        for query in self.live_rm:
            if query.expired(t):
                summary.add_quality("region_monitoring", query.quality_of_results())
                summary.record_query_outcome(query.achieved_value() - query.spent)
            else:
                live_rm.append(query)
        self.live_rm = live_rm
