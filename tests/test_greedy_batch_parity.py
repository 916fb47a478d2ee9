"""Gain-path parity: block and per-row gains vs the scalar oracle states'
``gain`` as both grow by the same commits, and the vectorized greedy vs
the scalar reference path.

Tolerances follow the documented numerics: the aggregate/trajectory gain
block and per-row oracle replicate the scalar operation sequence exactly
(bit-equal), while point-flavoured ones go through ``np.hypot`` where the
scalar path uses ``math.hypot`` — documented to differ only in the final
ulp, asserted here at 1e-12 relative.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    block_gains,
    make_point_query,
    make_snapshot,
    member_block,
    relevance_row,
    sequential_mix,
)
from oracles import (
    DenseGreedyAllocator,
    ScalarGreedyAllocator,
    dense_single_values,
    new_state,
    row_gains,
)
from repro.core import (
    GreedyAllocator,
    MixAllocator,
    ValuationKernel,
    location_monitoring_engine,
    one_shot_engine,
    region_monitoring_engine,
)
from repro.core.engine import mix_engine
from repro.datasets import (
    build_intel_scenario,
    build_ozone_dataset,
    build_rwm_scenario,
)
from repro.queries import (
    AggregateQueryWorkload,
    EventSlotQuery,
    LocationMonitoringWorkload,
    MultiSensorPointQuery,
    PointQuery,
    PointQueryWorkload,
    RegionMonitoringWorkload,
    SensorRoster,
    SpatialAggregateQuery,
    TrajectoryQuery,
)
from repro.spatial import Location, Region, Trajectory

ULP_TOLERANCE = dict(rel=1e-12, abs=1e-12)


def random_sensors(rng, n=25, side=20.0):
    return [
        make_snapshot(
            i,
            x=float(rng.uniform(0, side)),
            y=float(rng.uniform(0, side)),
            cost=float(rng.uniform(1, 10)),
            inaccuracy=float(rng.uniform(0, 0.2)),
            trust=float(rng.uniform(0.5, 1.0)),
        )
        for i in range(n)
    ]


def queries_of_every_type(rng):
    region = Region.from_origin(20, 20)
    sub = Region.random_subregion(region, rng, min_side=5, max_side=12)
    trajectory = Trajectory([Location(2, 2), Location(10, 12), Location(18, 6)])
    return [
        PointQuery(Location(5, 5), budget=15.0, dmax=8.0),
        MultiSensorPointQuery(Location(12, 9), budget=25.0, n_readings=3, dmax=9.0),
        SpatialAggregateQuery(
            sub, budget=40.0, sensing_range=6.0, coverage_radius=3.0
        ),
        TrajectoryQuery(trajectory, budget=35.0, sensing_range=4.0),
        EventSlotQuery(
            Location(8, 14), budget=20.0, required_confidence=0.9,
            theta_min=0.1, dmax=7.0, parent_id="ev-parent",
        ),
    ]


class TestPerPairGainParity:
    """Gain blocks (on relevant pairs) and the per-row oracle (on every
    pair) must agree with the oracle state's scalar ``gain`` while the
    block and the state take the same commits."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("query_index", range(5))
    def test_gain_many_matches_scalar(self, seed, query_index):
        rng = np.random.default_rng(seed)
        sensors = random_sensors(rng)
        query = queries_of_every_type(rng)[query_index]
        roster = SensorRoster(sensors)
        relevant = np.flatnonzero(relevance_row(query, roster))
        state = new_state(query)
        block = member_block(query, roster)
        # Compare on the empty state and as the selected set grows.
        commit_order = rng.permutation(len(sensors))[:3]
        for step in range(len(commit_order) + 1):
            want = np.array([state.gain(s) for s in sensors])
            got = row_gains(state, roster).gain_many(roster.all_indices)
            assert got == pytest.approx(want, **ULP_TOLERANCE)
            got = block_gains(block, relevant)
            assert got == pytest.approx(want[relevant], **ULP_TOLERANCE)
            if step < len(commit_order):
                j = int(commit_order[step])
                assert block.commit(0, j) == state.add(sensors[j])
                assert block.values[0] == state.value

    @pytest.mark.parametrize("seed", range(4))
    def test_gain_many_respects_arbitrary_index_subsets(self, seed):
        rng = np.random.default_rng(100 + seed)
        sensors = random_sensors(rng)
        roster = SensorRoster(sensors)
        for query in queries_of_every_type(rng):
            state = new_state(query)
            block = member_block(query, roster)
            state.add(sensors[0])
            block.commit(0, 0)
            subset = np.asarray(sorted(rng.permutation(len(sensors))[:7]), dtype=np.intp)
            want = np.array([state.gain(sensors[j]) for j in subset])
            got = row_gains(state, roster).gain_many(subset)
            assert got == pytest.approx(want, **ULP_TOLERANCE)
            relevant = relevance_row(query, roster)[subset]
            got = block_gains(block, subset[relevant])
            assert got == pytest.approx(want[relevant], **ULP_TOLERANCE)

    def test_point_rows_from_kernel_block_match(self):
        """On an empty state the point block's gains and the per-row
        oracle's are the kernel's eq.-(3) values, column for column."""
        rng = np.random.default_rng(7)
        sensors = random_sensors(rng)
        queries = [
            make_point_query(
                x=float(rng.uniform(0, 20)), y=float(rng.uniform(0, 20)),
                budget=15.0, dmax=8.0,
            )
            for _ in range(6)
        ]
        kernel = ValuationKernel.from_sensors(sensors)
        block = dense_single_values(kernel, queries)
        roster = kernel.roster()
        every = roster.all_indices
        for i, query in enumerate(queries):
            plain = row_gains(new_state(query), roster).gain_many(every)
            plain_block = block_gains(member_block(query, roster), every)
            assert np.array_equal(plain_block, block[i])
            assert np.array_equal(plain_block, plain)


def exact_allocation_parity(queries, sensors, kernel=None):
    vectorized = GreedyAllocator().allocate(queries, sensors, kernel=kernel)
    scalar = ScalarGreedyAllocator().allocate(queries, sensors, kernel=kernel)
    assert vectorized.assignments == scalar.assignments
    assert set(vectorized.selected) == set(scalar.selected)
    assert vectorized.values.keys() == scalar.values.keys()
    for qid, value in scalar.values.items():
        assert vectorized.values[qid] == pytest.approx(value, **ULP_TOLERANCE)
    assert vectorized.payments.keys() == scalar.payments.keys()
    for key, payment in scalar.payments.items():
        assert vectorized.payments[key] == pytest.approx(payment, **ULP_TOLERANCE)
    return vectorized


class TestAllocatorParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_instances(self, seed):
        rng = np.random.default_rng(1000 + seed)
        sensors = random_sensors(rng, n=30)
        queries = [
            make_point_query(
                x=float(rng.uniform(0, 20)), y=float(rng.uniform(0, 20)),
                budget=float(rng.uniform(5, 25)), dmax=6.0,
            )
            for _ in range(8)
        ] + queries_of_every_type(rng)
        exact_allocation_parity(queries, sensors)

    @pytest.mark.parametrize("seed", range(4))
    def test_with_prebuilt_kernel(self, seed):
        rng = np.random.default_rng(2000 + seed)
        sensors = random_sensors(rng, n=30)
        kernel = ValuationKernel.from_sensors(sensors)
        queries = [
            make_point_query(
                x=float(rng.uniform(0, 20)), y=float(rng.uniform(0, 20)),
                budget=float(rng.uniform(5, 25)), dmax=6.0,
            )
            for _ in range(10)
        ]
        exact_allocation_parity(queries, sensors, kernel)

    def test_reused_kernel_takes_costs_from_current_announcements(self):
        """A kernel reused across re-pricing must not leak stale costs."""
        queries = [make_point_query(x=0, y=0, budget=20.0, theta_min=0.0)]
        original = [make_snapshot(0, x=0, y=0, cost=5.0)]
        kernel = ValuationKernel.from_sensors(original)
        repriced = [make_snapshot(0, x=0, y=0, cost=1.0)]
        assert kernel.matches(repriced)
        result = GreedyAllocator().allocate(queries, repriced, kernel=kernel)
        assert result.selected[0].cost == 1.0
        assert result.sensor_income(0) == pytest.approx(1.0)


def summaries_equal(a, b):
    assert a.n_slots == b.n_slots
    for got, want in zip(a.slots, b.slots):
        assert got.slot == want.slot
        assert got.issued == want.issued
        assert got.answered == want.answered
        assert got.value == pytest.approx(want.value, **ULP_TOLERANCE)
        assert got.cost == pytest.approx(want.cost, **ULP_TOLERANCE)
        assert got.qualities == pytest.approx(want.qualities, **ULP_TOLERANCE)
    assert set(a.quality_stats) == set(b.quality_stats)
    for label, stat in b.quality_stats.items():
        assert a.quality_stats[label].count == stat.count
        assert a.quality_stats[label].total == pytest.approx(stat.total, **ULP_TOLERANCE)
    assert a.total_queries == b.total_queries
    assert a.positive_utility_queries == b.positive_utility_queries


class TestEndToEndFigureFamilies:
    """Vectorized vs scalar and dense-oracle greedy through all four
    figure families."""

    SEED = 321
    N_SLOTS = 5

    def _engines(self, family):
        scenario = build_rwm_scenario(self.SEED, n_sensors=60, n_slots=10)
        engines = []
        for make_allocator in (
            GreedyAllocator, ScalarGreedyAllocator, DenseGreedyAllocator
        ):
            allocator = make_allocator()
            rng = np.random.default_rng(self.SEED)
            if family == "point":
                workload = PointQueryWorkload(
                    scenario.working_region, n_queries=30, budget=15.0,
                    dmax=scenario.dmax,
                )
                engines.append(
                    one_shot_engine(scenario.make_fleet(), workload, allocator, rng)
                )
            elif family == "aggregate":
                workload = AggregateQueryWorkload(
                    scenario.working_region, budget_factor=15.0, mean_queries=4,
                    count_spread=2, sensing_range=scenario.dmax,
                )
                engines.append(
                    one_shot_engine(scenario.make_fleet(), workload, allocator, rng)
                )
            elif family == "location_monitoring":
                ozone = build_ozone_dataset(self.SEED)
                workload = LocationMonitoringWorkload(
                    scenario.working_region, ozone.values, ozone.model(),
                    budget_factor=15.0, max_live=6, arrivals_per_slot=2,
                    duration_range=(2, 5), dmax=scenario.dmax,
                )
                engines.append(
                    location_monitoring_engine(
                        scenario.make_fleet(), workload, allocator, rng
                    )
                )
            else:  # region_monitoring
                world = build_intel_scenario(self.SEED, n_sensors=40, n_slots=10)
                workload = RegionMonitoringWorkload(
                    world.scenario.working_region, world.gp, budget_factor=15.0,
                    duration_range=(2, 4), sensing_radius=world.scenario.dmax,
                )
                engines.append(
                    region_monitoring_engine(
                        world.scenario.make_fleet(), workload, allocator, rng
                    )
                )
        return engines

    @pytest.mark.parametrize(
        "family", ["point", "aggregate", "location_monitoring", "region_monitoring"]
    )
    def test_family_parity(self, family):
        vectorized_engine, scalar_engine, dense_engine = self._engines(family)
        summary = vectorized_engine.run(self.N_SLOTS)
        summaries_equal(summary, scalar_engine.run(self.N_SLOTS))
        summaries_equal(summary, dense_engine.run(self.N_SLOTS))

    def test_mix_family_parity(self):
        """Algorithm 5's joint mix slot, vectorized vs scalar greedy."""
        scenario = build_rwm_scenario(self.SEED, n_sensors=50, n_slots=10)
        ozone = build_ozone_dataset(self.SEED)
        summaries = []
        for make_allocator in (GreedyAllocator, ScalarGreedyAllocator):
            point_wl = PointQueryWorkload(
                scenario.working_region, n_queries=20, budget=15.0,
                dmax=scenario.dmax,
            )
            agg_wl = AggregateQueryWorkload(
                scenario.working_region, budget_factor=15.0, mean_queries=3,
                count_spread=1, sensing_range=scenario.dmax,
            )
            lm_wl = LocationMonitoringWorkload(
                scenario.working_region, ozone.values, ozone.model(),
                budget_factor=15.0, max_live=5, arrivals_per_slot=2,
                duration_range=(2, 4), dmax=scenario.dmax,
            )
            engine = mix_engine(
                scenario.make_fleet(), point_wl, agg_wl, lm_wl,
                np.random.default_rng(self.SEED),
                mix=MixAllocator(joint=make_allocator()),
            )
            summaries.append(engine.run(self.N_SLOTS))
        summaries_equal(summaries[0], summaries[1])

    def test_sequential_buffered_stage2_sees_zero_costs(self):
        """The buffered baseline re-announces stage-1 sensors at zero cost;
        the vectorized greedy must honor the re-priced snapshots even
        though the slot kernel was built from the originally priced ones."""
        scenario = build_rwm_scenario(self.SEED, n_sensors=50, n_slots=10)
        ozone = build_ozone_dataset(self.SEED)
        summaries = []
        for make_allocator in (GreedyAllocator, ScalarGreedyAllocator):
            point_wl = PointQueryWorkload(
                scenario.working_region, n_queries=20, budget=15.0,
                dmax=scenario.dmax,
            )
            agg_wl = AggregateQueryWorkload(
                scenario.working_region, budget_factor=15.0, mean_queries=3,
                count_spread=1, sensing_range=scenario.dmax,
            )
            lm_wl = LocationMonitoringWorkload(
                scenario.working_region, ozone.values, ozone.model(),
                budget_factor=15.0, max_live=5, arrivals_per_slot=2,
                duration_range=(2, 4), dmax=scenario.dmax,
            )
            engine = mix_engine(
                scenario.make_fleet(), point_wl, agg_wl, lm_wl,
                np.random.default_rng(self.SEED),
                mix=sequential_mix(make_allocator),
            )
            summaries.append(engine.run(self.N_SLOTS))
        summaries_equal(summaries[0], summaries[1])
