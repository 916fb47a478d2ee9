"""Cross-cutting edge cases: empty worlds, dead sensors, degenerate slots."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_point_query, make_snapshot
from repro.core import (
    BaselineAllocator,
    GreedyAllocator,
    LocalSearchPointAllocator,
    OptimalPointAllocator,
    mix_engine,
    one_shot_engine,
)
from repro.datasets import build_intel_scenario, build_ozone_dataset, build_rwm_scenario
from repro.queries import (
    AggregateQueryWorkload,
    LocationMonitoringWorkload,
    PointQueryWorkload,
    RegionMonitoringWorkload,
)
from repro.sensors import FleetConfig

SCENARIO = build_rwm_scenario(seed=55, n_sensors=40, n_slots=6)
OZONE = build_ozone_dataset(seed=55)


@pytest.mark.parametrize(
    "allocator",
    [
        OptimalPointAllocator(),
        LocalSearchPointAllocator(),
        GreedyAllocator(),
        BaselineAllocator(),
    ],
    ids=["optimal", "local_search", "greedy", "baseline"],
)
class TestAllAllocatorsDegenerate:
    def test_no_sensors(self, allocator):
        queries = [make_point_query(x=1, y=1)]
        result = allocator.allocate(queries, [])
        assert result.total_utility == 0.0
        assert result.answered_count() == 0

    def test_no_queries(self, allocator):
        result = allocator.allocate([], [make_snapshot(0)])
        assert result.total_utility == 0.0
        assert not result.selected

    def test_all_sensors_too_far(self, allocator):
        queries = [make_point_query(x=0, y=0, dmax=1.0)]
        sensors = [make_snapshot(i, x=100 + i, y=100) for i in range(5)]
        result = allocator.allocate(queries, sensors)
        assert result.answered_count() == 0

    def test_free_sensors(self, allocator):
        """Zero-cost sensors are always worth selecting when valuable."""
        queries = [make_point_query(x=0, y=0, budget=10.0, theta_min=0.0)]
        sensors = [make_snapshot(0, x=0.5, y=0, cost=0.0)]
        result = allocator.allocate(queries, sensors)
        assert result.answered_count() == 1
        assert result.total_cost == 0.0
        result.verify()

    def test_zero_budget_queries(self, allocator):
        queries = [make_point_query(x=0, y=0, budget=0.0, theta_min=0.0)]
        sensors = [make_snapshot(0, x=0, y=0, cost=5.0)]
        result = allocator.allocate(queries, sensors)
        assert result.total_utility == 0.0


class TestExhaustedWorld:
    def test_simulation_survives_dead_fleet(self):
        """Lifetime 1 + heavy demand: later slots see few/no sensors."""
        scenario = build_rwm_scenario(
            seed=3, n_sensors=10, n_slots=6, fleet_config=FleetConfig(lifetime=1)
        )
        workload = PointQueryWorkload(
            scenario.working_region, n_queries=40, budget=35.0, dmax=scenario.dmax
        )
        sim = one_shot_engine(
            scenario.make_fleet(), workload, OptimalPointAllocator(),
            np.random.default_rng(0),
        )
        summary = sim.run(6)
        assert summary.n_slots == 6
        # Demand eventually exhausts the 10 one-shot sensors.
        assert summary.slots[-1].cost == 0.0

    def test_empty_hotspot_slot(self):
        """A slot with zero announcements must not crash any engine."""
        scenario = build_rwm_scenario(
            seed=3, n_sensors=5, n_slots=4, fleet_config=FleetConfig(lifetime=1)
        )
        fleet = scenario.make_fleet()
        # Exhaust every announcing sensor immediately.
        announced = [s.sensor_id for s in fleet.announcements()]
        fleet.record_measurements(announced)
        assert all(fleet.sensor(sid).is_exhausted for sid in announced)
        workload = PointQueryWorkload(
            scenario.working_region, n_queries=10, budget=15.0, dmax=scenario.dmax
        )
        sim = one_shot_engine(fleet, workload, GreedyAllocator(), np.random.default_rng(1))
        summary = sim.run(2)
        assert summary.n_slots == 2


class TestMixWithRegionMonitoring:
    def test_full_mix_including_region_queries(self):
        """Figure 10 excludes region monitoring; the engine supports it."""
        world = build_intel_scenario(seed=8, n_sensors=12, n_slots=8)
        scenario = world.scenario
        point = PointQueryWorkload(
            scenario.working_region, n_queries=6, budget=15.0, dmax=scenario.dmax
        )
        agg = AggregateQueryWorkload(
            scenario.working_region, budget_factor=15.0, mean_queries=2,
            count_spread=1, sensing_range=4.0, min_side=3.0, max_side=8.0,
            coverage_radius=2.0,
        )
        lm = LocationMonitoringWorkload(
            scenario.working_region, OZONE.values, OZONE.model(),
            budget_factor=15.0, max_live=4, arrivals_per_slot=1,
            duration_range=(3, 5), dmax=scenario.dmax,
        )
        rm = RegionMonitoringWorkload(
            scenario.working_region, world.gp, budget_factor=15.0,
            duration_range=(3, 5), sensing_radius=scenario.dmax,
        )
        sim = mix_engine(
            scenario.make_fleet(), point, agg, lm, np.random.default_rng(2),
            region_workload=rm,
        )
        summary = sim.run(6)
        assert summary.n_slots == 6
        assert "region_monitoring" in summary.quality_stats
