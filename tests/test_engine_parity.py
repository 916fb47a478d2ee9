"""Seeded parity: the unified SlotEngine vs the four pre-refactor engines.

``legacy_engines`` is a frozen copy of the seed simulation loops.  Each
test runs one of the paper's four figure families through both the legacy
loop and the new engine on identical seeds (same replayed trace, same
workload rng) and requires the resulting :class:`SimulationSummary` to be
identical — slot by slot, sample by sample.  Values use a tight relative
tolerance because per-stream value attribution sums the same floats in a
different order than the legacy ledger-wide sums; counts must be exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from legacy_engines import (
    LegacyLocationMonitoringSimulation,
    LegacyMixSimulation,
    LegacyOneShotSimulation,
    LegacyRegionMonitoringSimulation,
)
from oracles import OracleBaselineMixAllocator, OracleMixAllocator
from repro.core import (
    BaselineAllocator,
    BaselineMixAllocator,
    GreedyAllocator,
    LocalSearchPointAllocator,
    LocationMonitoringController,
    MixAllocator,
    OptimalPointAllocator,
    RegionMonitoringController,
    SimulationSummary,
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

SCENARIO = build_rwm_scenario(seed=101, n_sensors=50, n_slots=10)
OZONE = build_ozone_dataset(seed=101)
N_SLOTS = 5
APPROX = dict(rel=1e-9, abs=1e-9)


def mix_simulation(fleet, point_wl, agg_wl, lm_wl, mix, rng, region_workload=None):
    """``mix_engine`` in the legacy mix loop's argument order."""
    return mix_engine(
        fleet, point_wl, agg_wl, lm_wl, rng, region_workload=region_workload, mix=mix
    )


def assert_summaries_equal(new: SimulationSummary, old: SimulationSummary) -> None:
    assert new.n_slots == old.n_slots
    for got, want in zip(new.slots, old.slots):
        assert got.slot == want.slot
        assert got.issued == want.issued
        assert got.answered == want.answered
        assert got.value == pytest.approx(want.value, **APPROX)
        assert got.cost == pytest.approx(want.cost, **APPROX)
        assert got.qualities == pytest.approx(want.qualities, **APPROX)
        assert set(got.extras) == set(want.extras)
        for key, value in want.extras.items():
            assert got.extras[key] == pytest.approx(value, **APPROX)
    assert set(new.quality_stats) == set(old.quality_stats)
    for label, stat in old.quality_stats.items():
        assert new.quality_stats[label].count == stat.count
        assert new.quality_stats[label].total == pytest.approx(stat.total, **APPROX)
        assert new.quality_stats[label].m2 == pytest.approx(stat.m2, abs=1e-9)
    assert new.total_queries == old.total_queries
    assert new.positive_utility_queries == old.positive_utility_queries
    assert new.average_utility == pytest.approx(old.average_utility, **APPROX)
    assert new.satisfaction_ratio == pytest.approx(old.satisfaction_ratio, **APPROX)


def _point_workload(budget=15.0, n_queries=25):
    return PointQueryWorkload(
        SCENARIO.working_region, n_queries=n_queries, budget=budget, dmax=SCENARIO.dmax
    )


def _aggregate_workload(factor=15.0):
    return AggregateQueryWorkload(
        SCENARIO.working_region, budget_factor=factor, mean_queries=4,
        count_spread=2, sensing_range=SCENARIO.dmax,
    )


def _lm_workload(factor=15.0):
    return LocationMonitoringWorkload(
        SCENARIO.working_region, OZONE.values, OZONE.model(),
        budget_factor=factor, max_live=8, arrivals_per_slot=3,
        duration_range=(2, 5), dmax=SCENARIO.dmax,
    )


class TestOneShotParity:
    @pytest.mark.parametrize(
        "allocator_factory",
        [OptimalPointAllocator, LocalSearchPointAllocator, BaselineAllocator],
        ids=["optimal", "local_search", "baseline"],
    )
    def test_point_queries(self, allocator_factory):
        old = LegacyOneShotSimulation(
            SCENARIO.make_fleet(), _point_workload(), allocator_factory(),
            np.random.default_rng(7),
        ).run(N_SLOTS)
        new = one_shot_engine(
            SCENARIO.make_fleet(), _point_workload(), allocator_factory(),
            np.random.default_rng(7),
        ).run(N_SLOTS)
        assert_summaries_equal(new, old)

    def test_aggregate_queries_greedy(self):
        old = LegacyOneShotSimulation(
            SCENARIO.make_fleet(), _aggregate_workload(), GreedyAllocator(),
            np.random.default_rng(9),
        ).run(N_SLOTS)
        new = one_shot_engine(
            SCENARIO.make_fleet(), _aggregate_workload(), GreedyAllocator(),
            np.random.default_rng(9),
        ).run(N_SLOTS)
        assert_summaries_equal(new, old)


class TestLocationMonitoringParity:
    @pytest.mark.parametrize(
        "allocator_factory,controller_kwargs",
        [
            (LocalSearchPointAllocator, {}),
            (OptimalPointAllocator, {}),
            (BaselineAllocator, {"opportunistic": False, "scheduled_only": True}),
        ],
        ids=["alg2_ls", "alg2_o", "baseline"],
    )
    def test_location_monitoring(self, allocator_factory, controller_kwargs):
        old = LegacyLocationMonitoringSimulation(
            SCENARIO.make_fleet(), _lm_workload(), allocator_factory(),
            np.random.default_rng(21),
            controller=LocationMonitoringController(**controller_kwargs),
        ).run(N_SLOTS)
        new = location_monitoring_engine(
            SCENARIO.make_fleet(), _lm_workload(), allocator_factory(),
            np.random.default_rng(21),
            controller=LocationMonitoringController(**controller_kwargs),
        ).run(N_SLOTS)
        assert_summaries_equal(new, old)


class TestRegionMonitoringParity:
    @pytest.mark.parametrize(
        "allocator_factory,controller_factory",
        [
            (OptimalPointAllocator, RegionMonitoringController),
            (
                BaselineAllocator,
                lambda: RegionMonitoringController(
                    weight_fn=lambda k: 1.0, use_shared_sensors=False
                ),
            ),
        ],
        ids=["alg3", "baseline"],
    )
    def test_region_monitoring(self, allocator_factory, controller_factory):
        world = build_intel_scenario(seed=41, n_sensors=12, n_slots=10)
        workload_args = dict(
            budget_factor=15.0, duration_range=(2, 4),
            sensing_radius=world.scenario.dmax,
        )
        old = LegacyRegionMonitoringSimulation(
            world.scenario.make_fleet(),
            RegionMonitoringWorkload(
                world.scenario.working_region, world.gp, **workload_args
            ),
            allocator_factory(),
            np.random.default_rng(31),
            controller=controller_factory(),
        ).run(N_SLOTS)
        new = region_monitoring_engine(
            world.scenario.make_fleet(),
            RegionMonitoringWorkload(
                world.scenario.working_region, world.gp, **workload_args
            ),
            allocator_factory(),
            np.random.default_rng(31),
            controller=controller_factory(),
        ).run(N_SLOTS)
        assert_summaries_equal(new, old)


class TestMixParity:
    def _run(self, sim_cls, mix_factory, seed=3):
        return sim_cls(
            SCENARIO.make_fleet(),
            _point_workload(n_queries=10),
            _aggregate_workload(),
            _lm_workload(),
            mix_factory(),
            np.random.default_rng(seed),
        ).run(N_SLOTS)

    def test_algorithm5(self):
        old = self._run(LegacyMixSimulation, OracleMixAllocator)
        new = self._run(mix_simulation, MixAllocator)
        assert_summaries_equal(new, old)

    def test_baseline_mix(self):
        old = self._run(LegacyMixSimulation, OracleBaselineMixAllocator)
        new = self._run(mix_simulation, BaselineMixAllocator)
        assert_summaries_equal(new, old)

    def test_algorithm5_with_region_stream(self):
        world = build_intel_scenario(seed=41, n_sensors=12, n_slots=10)
        rm_workload_args = dict(
            budget_factor=10.0, duration_range=(2, 4),
            sensing_radius=world.scenario.dmax,
        )

        def run(sim_cls, mix_cls):
            return sim_cls(
                world.scenario.make_fleet(),
                PointQueryWorkload(
                    world.scenario.working_region, n_queries=6, budget=15.0,
                    dmax=world.scenario.dmax,
                ),
                AggregateQueryWorkload(
                    world.scenario.working_region, budget_factor=15.0,
                    mean_queries=2, count_spread=1,
                    sensing_range=world.scenario.dmax,
                ),
                LocationMonitoringWorkload(
                    world.scenario.working_region, OZONE.values, OZONE.model(),
                    budget_factor=15.0, max_live=4, arrivals_per_slot=2,
                    duration_range=(2, 4), dmax=world.scenario.dmax,
                ),
                mix_cls(),
                np.random.default_rng(13),
                region_workload=RegionMonitoringWorkload(
                    world.scenario.working_region, world.gp, **rm_workload_args
                ),
            ).run(N_SLOTS)

        old = run(LegacyMixSimulation, OracleMixAllocator)
        new = run(mix_simulation, MixAllocator)
        assert_summaries_equal(new, old)
