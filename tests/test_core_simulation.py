"""Tests for the four engine factories (Figures 2-10) and the metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BaselineAllocator,
    BaselineMixAllocator,
    LocationMonitoringController,
    MixAllocator,
    OptimalPointAllocator,
    SimulationSummary,
    SlotRecord,
    location_monitoring_engine,
    mix_engine,
    one_shot_engine,
    region_monitoring_engine,
)
from repro.datasets import build_intel_scenario, build_ozone_dataset, build_rwm_scenario
from repro.queries import (
    AggregateQueryWorkload,
    LocationMonitoringWorkload,
    PointQueryWorkload,
    RegionMonitoringWorkload,
)

SCENARIO = build_rwm_scenario(seed=77, n_sensors=60, n_slots=8)
OZONE = build_ozone_dataset(seed=77)


class TestMetrics:
    def test_slot_record_utility(self):
        record = SlotRecord(slot=0, value=10.0, cost=4.0)
        assert record.utility == pytest.approx(6.0)

    def test_summary_aggregates(self):
        summary = SimulationSummary()
        summary.slots.append(SlotRecord(0, value=10, cost=5, issued=4, answered=2))
        summary.slots.append(SlotRecord(1, value=20, cost=5, issued=6, answered=4))
        assert summary.average_utility == pytest.approx(10.0)
        assert summary.satisfaction_ratio == pytest.approx(0.6)
        assert summary.total_utility == pytest.approx(20.0)

    def test_empty_summary(self):
        summary = SimulationSummary()
        assert summary.average_utility == 0.0
        assert summary.satisfaction_ratio == 0.0
        assert summary.average_quality("point") == 0.0
        assert summary.egalitarian_ratio == 0.0

    def test_quality_samples(self):
        summary = SimulationSummary()
        summary.add_quality("point", 0.5)
        summary.add_quality("point", 1.0)
        assert summary.average_quality("point") == pytest.approx(0.75)

    def test_egalitarian_counting(self):
        summary = SimulationSummary()
        summary.record_query_outcome(1.0)
        summary.record_query_outcome(0.0)
        summary.record_query_outcome(-1.0)
        assert summary.egalitarian_ratio == pytest.approx(1 / 3)


class TestOneShotSimulation:
    def test_point_simulation_produces_metrics(self):
        workload = PointQueryWorkload(
            SCENARIO.working_region, n_queries=30, budget=15.0, dmax=SCENARIO.dmax
        )
        sim = one_shot_engine(
            SCENARIO.make_fleet(), workload, OptimalPointAllocator(),
            np.random.default_rng(0),
        )
        summary = sim.run(4)
        assert summary.n_slots == 4
        assert 0.0 <= summary.satisfaction_ratio <= 1.0
        assert summary.total_queries == 120
        assert summary.quality_count("point") > 0
        assert 0.0 <= summary.average_quality("point") <= 1.0

    def test_sensor_lifetime_is_booked(self):
        fleet = SCENARIO.make_fleet()
        workload = PointQueryWorkload(
            SCENARIO.working_region, n_queries=30, budget=25.0, dmax=SCENARIO.dmax
        )
        sim = one_shot_engine(fleet, workload, OptimalPointAllocator(), np.random.default_rng(0))
        sim.run(3)
        assert fleet.total_readings() > 0

    def test_identical_seeds_reproduce(self):
        def run():
            workload = PointQueryWorkload(
                SCENARIO.working_region, n_queries=20, budget=15.0, dmax=SCENARIO.dmax
            )
            sim = one_shot_engine(
                SCENARIO.make_fleet(), workload, OptimalPointAllocator(),
                np.random.default_rng(5),
            )
            return sim.run(3).total_utility

        assert run() == pytest.approx(run())

    def test_aggregate_simulation(self):
        workload = AggregateQueryWorkload(
            SCENARIO.working_region, budget_factor=15.0, mean_queries=5,
            count_spread=2, sensing_range=SCENARIO.dmax,
        )
        from repro.core import GreedyAllocator

        sim = one_shot_engine(
            SCENARIO.make_fleet(), workload, GreedyAllocator(), np.random.default_rng(0)
        )
        summary = sim.run(3)
        assert summary.n_slots == 3


class TestLocationMonitoringSimulation:
    def _workload(self, factor=15.0):
        return LocationMonitoringWorkload(
            SCENARIO.working_region, OZONE.values, OZONE.model(),
            budget_factor=factor, max_live=10, arrivals_per_slot=3,
            duration_range=(3, 6), dmax=SCENARIO.dmax,
        )

    def test_queries_flushed_at_end(self):
        sim = location_monitoring_engine(
            SCENARIO.make_fleet(), self._workload(), OptimalPointAllocator(),
            np.random.default_rng(0),
        )
        summary = sim.run(6)
        assert not sim.stream("location_monitoring").live  # everything retired/flushed
        assert summary.total_queries > 0

    def test_live_count_respects_cap(self):
        sim = location_monitoring_engine(
            SCENARIO.make_fleet(), self._workload(), OptimalPointAllocator(),
            np.random.default_rng(0),
        )
        summary = sim.run(6)
        for record in summary.slots:
            assert record.extras["live"] <= 10

    def test_baseline_controller_variant(self):
        controller = LocationMonitoringController(opportunistic=False, scheduled_only=True)
        sim = location_monitoring_engine(
            SCENARIO.make_fleet(), self._workload(), BaselineAllocator(),
            np.random.default_rng(0), controller=controller,
        )
        summary = sim.run(6)
        assert summary.n_slots == 6


class TestRegionMonitoringSimulation:
    def test_runs_and_collects_quality(self):
        world = build_intel_scenario(seed=31, n_sensors=15, n_slots=8)
        workload = RegionMonitoringWorkload(
            world.scenario.working_region, world.gp, budget_factor=15.0,
            duration_range=(3, 5), sensing_radius=world.scenario.dmax,
        )
        sim = region_monitoring_engine(
            world.scenario.make_fleet(), workload, OptimalPointAllocator(),
            np.random.default_rng(0),
        )
        summary = sim.run(6)
        assert summary.n_slots == 6
        assert "region_monitoring" in summary.quality_stats


class TestMixSimulation:
    def _sim(self, mix):
        point = PointQueryWorkload(
            SCENARIO.working_region, n_queries=15, budget=15.0, dmax=SCENARIO.dmax
        )
        agg = AggregateQueryWorkload(
            SCENARIO.working_region, budget_factor=15.0, mean_queries=3,
            count_spread=1, sensing_range=SCENARIO.dmax,
        )
        lm = LocationMonitoringWorkload(
            SCENARIO.working_region, OZONE.values, OZONE.model(),
            budget_factor=15.0, max_live=6, arrivals_per_slot=2,
            duration_range=(3, 5), dmax=SCENARIO.dmax,
        )
        return mix_engine(
            SCENARIO.make_fleet(), point, agg, lm, np.random.default_rng(3), mix=mix
        )

    def test_mix_simulation_runs(self):
        summary = self._sim(MixAllocator()).run(5)
        assert summary.n_slots == 5
        assert summary.satisfaction_ratio >= 0.0

    def test_baseline_mix_simulation_runs(self):
        summary = self._sim(BaselineMixAllocator()).run(5)
        assert summary.n_slots == 5

    def test_mix_tracks_per_type_quality(self):
        summary = self._sim(MixAllocator()).run(5)
        assert "location_monitoring" in summary.quality_stats
