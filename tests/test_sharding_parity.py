"""Sharded-vs-dense parity: the :class:`ShardedKernel` must produce
bit-identical value matrices and allocations to the dense
:class:`ValuationKernel` on every query type, across shard cell sizes,
and end-to-end through the four figure families.

The contract under test (see ``repro.core.sharding``): candidate shards
are supersets of each query's relevant sensors, every omitted (query,
sensor) pair is exactly ``0.0`` under the dense formulas, and candidate
pairs go through the same elementwise operation sequence — so allocations
must match *exactly*, not just to tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_point_query, make_snapshot
from oracles import ScalarGreedyAllocator
from repro.core import (
    BaselineAllocator,
    GreedyAllocator,
    ShardedKernel,
    ValuationKernel,
    resolve_cell_size,
)
from repro.core.engine import (
    event_detection_engine,
    location_monitoring_engine,
    mix_engine,
    one_shot_engine,
    region_monitoring_engine,
)
from repro.datasets import (
    ScenarioSpec,
    StreamSpec,
    build_intel_scenario,
    build_ozone_dataset,
    build_rwm_scenario,
)
from repro.queries import (
    AggregateQueryWorkload,
    EventDetectionWorkload,
    EventSlotQuery,
    LocationMonitoringWorkload,
    MultiSensorPointQuery,
    PointQuery,
    PointQueryWorkload,
    RegionMonitoringWorkload,
    SpatialAggregateQuery,
    TrajectoryQuery,
)
from repro.spatial import Location, Region, Trajectory

CELL_SIZES = [0.75, 2.5, 6.0, 50.0]  # fine shards ... one-shard degenerate


def random_sensors(rng, n=40, side=30.0):
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


def queries_of_every_type(rng, side=30.0):
    region = Region.from_origin(side, side)
    sub = Region.random_subregion(region, rng, min_side=5, max_side=12)
    trajectory = Trajectory([Location(2, 2), Location(10, 12), Location(25, 6)])
    return [
        PointQuery(Location(5, 5), budget=15.0, dmax=8.0),
        MultiSensorPointQuery(Location(12, 9), budget=25.0, n_readings=3, dmax=9.0),
        SpatialAggregateQuery(sub, budget=40.0, sensing_range=6.0, coverage_radius=3.0),
        TrajectoryQuery(trajectory, budget=35.0, sensing_range=4.0),
        EventSlotQuery(
            Location(8, 14), budget=20.0, required_confidence=0.9,
            theta_min=0.1, dmax=7.0, parent_id="ev-parent",
        ),
    ] + [
        PointQuery(
            region.sample_location(rng),
            budget=float(rng.uniform(5, 25)),
            dmax=6.0,
        )
        for _ in range(12)
    ]


def assert_allocations_identical(a, b):
    """Exact (bitwise) equality of two allocation results."""
    assert a.assignments == b.assignments
    assert set(a.selected) == set(b.selected)
    assert a.values == b.values
    assert a.payments == b.payments


def assert_summaries_identical(a, b):
    assert a.n_slots == b.n_slots
    for got, want in zip(a.slots, b.slots):
        assert got.slot == want.slot
        assert got.issued == want.issued
        assert got.answered == want.answered
        assert got.value == want.value
        assert got.cost == want.cost
        assert got.qualities == want.qualities
        assert got.extras == want.extras
    assert set(a.quality_stats) == set(b.quality_stats)
    for label, stat in b.quality_stats.items():
        assert a.quality_stats[label].count == stat.count
        assert a.quality_stats[label].total == stat.total
    assert a.total_queries == b.total_queries
    assert a.positive_utility_queries == b.positive_utility_queries


# ----------------------------------------------------------------------
# kernel-level parity
# ----------------------------------------------------------------------
class TestKernelParity:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("cell", CELL_SIZES)
    def test_single_values_bit_identical(self, seed, cell):
        rng = np.random.default_rng(seed)
        sensors = random_sensors(rng)
        queries = [
            make_point_query(
                x=float(rng.uniform(-5, 35)), y=float(rng.uniform(-5, 35)),
                budget=15.0, dmax=float(rng.uniform(2, 12)),
            )
            for _ in range(15)
        ]
        dense = ValuationKernel.from_sensors(sensors)
        sharded = ShardedKernel.from_sensors(sensors, cell_size=cell)
        assert np.array_equal(dense.single_values(queries), sharded.single_values(queries))
        assert np.array_equal(dense.relevance(queries), sharded.relevance(queries))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("cell", CELL_SIZES)
    def test_value_rows_bit_identical(self, seed, cell):
        rng = np.random.default_rng(50 + seed)
        sensors = random_sensors(rng)
        queries = [
            make_point_query(
                x=float(rng.uniform(0, 30)), y=float(rng.uniform(0, 30)),
                budget=float(rng.uniform(5, 25)), dmax=7.0,
            )
            for _ in range(10)
        ]
        dense = ValuationKernel.from_sensors(sensors)
        sharded = ShardedKernel.from_sensors(sensors, cell_size=cell)
        assert np.array_equal(dense.value_rows(queries), sharded.value_rows(queries))

    @pytest.mark.parametrize("seed", range(6))
    def test_candidates_are_supersets_of_relevance(self, seed):
        rng = np.random.default_rng(100 + seed)
        sensors = random_sensors(rng)
        sharded = ShardedKernel.from_sensors(sensors, cell_size=3.0)
        for query in queries_of_every_type(rng):
            cand = sharded.candidate_indices(query)
            assert cand is not None
            relevant = {j for j, s in enumerate(sensors) if query.relevant(s)}
            assert relevant <= set(cand.tolist())

    def test_unknown_query_type_falls_back_to_full_scan(self):
        class OpaqueQuery(PointQuery):
            """Subclass — the exact-type contract must refuse to shard it."""

        rng = np.random.default_rng(0)
        sensors = random_sensors(rng)
        sharded = ShardedKernel.from_sensors(sensors, cell_size=3.0)
        assert sharded.candidate_indices(OpaqueQuery(Location(1, 1), 10.0)) is None
        # sparse_single_values must still serve it (full roster).
        [(idx, vals)] = sharded.sparse_single_values([OpaqueQuery(Location(1, 1), 10.0)])
        assert idx.tolist() == list(range(len(sensors)))

    def test_empty_inputs(self):
        sharded = ShardedKernel.from_sensors([])
        assert sharded.single_values([]).shape == (0, 0)
        assert sharded.n_shards == 0
        query = make_point_query(x=0, y=0)
        assert sharded.single_values([query]).shape == (1, 0)

    def test_normalize_sharding_vocabulary(self):
        from repro.core import normalize_sharding

        assert normalize_sharding(None) is None
        assert normalize_sharding(False) is None
        assert normalize_sharding(True) == "auto"
        assert normalize_sharding("auto") == "auto"
        assert normalize_sharding(2) == 2.0
        assert normalize_sharding(3.5) == 3.5
        for junk in ("fast", 0, -1.0, [2.0]):
            with pytest.raises(ValueError):
                normalize_sharding(junk)

    def test_heuristic_cell_size_positive(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform(0, 100, size=(500, 2))
        assert resolve_cell_size(xy) > 0
        assert resolve_cell_size(np.zeros((0, 2))) == 1.0
        assert resolve_cell_size(np.array([[3.0, 3.0]])) == 1.0
        colinear = np.stack([np.arange(50.0), np.full(50, 2.0)], axis=1)
        assert resolve_cell_size(colinear) > 0

    def test_shard_structure(self):
        rng = np.random.default_rng(9)
        sensors = random_sensors(rng, n=60)
        sharded = ShardedKernel.from_sensors(sensors, cell_size=5.0)
        members = np.concatenate([s.indices for s in sharded.shards()])
        assert sorted(members.tolist()) == list(range(60))
        shard = next(iter(sharded.shards()))
        local = shard.kernel  # lazily built shard-local kernel
        assert local.n_sensors == shard.n_sensors
        assert np.array_equal(local.sensor_xy, sharded.sensor_xy[shard.indices])
        # The shard-local kernel is itself a full protocol citizen.
        query = make_point_query(
            x=float(local.sensor_xy[0, 0]), y=float(local.sensor_xy[0, 1])
        )
        dense_row = ValuationKernel.from_sensors(local.sensors).single_values([query])
        assert np.array_equal(local.single_values([query]), dense_row)

    def test_ensure_reuses_matching_sharded_kernel(self):
        rng = np.random.default_rng(3)
        sensors = random_sensors(rng)
        kernel = ShardedKernel.from_sensors(sensors, cell_size=4.0)
        _ = kernel.index  # warm the grid
        repriced = [
            make_snapshot(
                s.sensor_id, x=s.location.x, y=s.location.y, cost=1.0,
                inaccuracy=s.inaccuracy, trust=s.trust,
            )
            for s in sensors
        ]
        reused = ShardedKernel.ensure(kernel, repriced, cell_size=4.0)
        assert reused is kernel
        assert reused.sensors is repriced  # rebound to the current list
        moved = random_sensors(np.random.default_rng(4))
        rebuilt = ShardedKernel.ensure(kernel, moved, cell_size=4.0)
        assert rebuilt is not kernel
        # A dense kernel never satisfies the sharded reuse check.
        dense = ValuationKernel.from_sensors(sensors)
        assert isinstance(ShardedKernel.ensure(dense, sensors), ShardedKernel)


# ----------------------------------------------------------------------
# boundary-straddling edge cases
# ----------------------------------------------------------------------
class TestBoundaryStraddling:
    def grid_world(self):
        # Sensors on an exact integer lattice, shard cell 2.0: rows/columns
        # of sensors sit exactly on shard boundaries.
        sensors = [
            make_snapshot(
                10 * c + r, x=float(c), y=float(r), cost=3.0,
                inaccuracy=0.1, trust=1.0,
            )
            for c in range(10)
            for r in range(10)
        ]
        return sensors

    @pytest.mark.parametrize("cell", [1.0, 2.0, 3.0])
    def test_queries_on_shard_corners(self, cell):
        sensors = self.grid_world()
        dense = ValuationKernel.from_sensors(sensors)
        sharded = ShardedKernel.from_sensors(sensors, cell_size=cell)
        # Query locations on cell corners, edges and centres; radii that
        # end exactly on boundaries.
        queries = [
            PointQuery(Location(x, y), budget=15.0, dmax=r, theta_min=0.2)
            for (x, y) in [(2.0, 2.0), (2.0, 3.5), (4.999, 5.001), (0.0, 0.0), (9.0, 9.0)]
            for r in (1.0, 2.0, 2.5)
        ]
        assert np.array_equal(dense.single_values(queries), sharded.single_values(queries))
        a = GreedyAllocator().allocate(queries, sensors, kernel=dense)
        b = GreedyAllocator().allocate(queries, sensors, kernel=sharded)
        assert_allocations_identical(a, b)

    def test_region_query_aligned_with_shard_edges(self):
        sensors = self.grid_world()
        dense = ValuationKernel.from_sensors(sensors)
        sharded = ShardedKernel.from_sensors(sensors, cell_size=2.0)
        queries = [
            SpatialAggregateQuery(
                Region(2.0, 2.0, 6.0, 6.0), budget=50.0,
                sensing_range=2.0, coverage_radius=1.0,
            ),
            SpatialAggregateQuery(
                Region(3.0, 1.0, 5.0, 9.0), budget=40.0,
                sensing_range=1.0, coverage_radius=1.0,
            ),
        ]
        a = GreedyAllocator().allocate(queries, sensors, kernel=dense)
        b = GreedyAllocator().allocate(queries, sensors, kernel=sharded)
        assert_allocations_identical(a, b)

    def test_single_shard_reach_uses_shard_members_directly(self):
        sensors = self.grid_world()
        sharded = ShardedKernel.from_sensors(sensors, cell_size=20.0)
        assert sharded.n_shards == 1
        query = PointQuery(Location(5.0, 5.0), budget=15.0, dmax=3.0)
        cand = sharded.candidate_indices(query)
        assert sorted(cand.tolist()) == list(range(100))

    def test_query_outside_fleet_bbox(self):
        sensors = self.grid_world()
        dense = ValuationKernel.from_sensors(sensors)
        sharded = ShardedKernel.from_sensors(sensors, cell_size=2.0)
        queries = [
            PointQuery(Location(-50.0, -50.0), budget=15.0, dmax=5.0),  # far off-grid
            PointQuery(Location(-3.0, 5.0), budget=15.0, dmax=4.0),     # straddles the edge
            PointQuery(Location(11.0, 11.0), budget=15.0, dmax=3.0),    # beyond max corner
        ]
        assert np.array_equal(dense.single_values(queries), sharded.single_values(queries))


# ----------------------------------------------------------------------
# allocator-level parity
# ----------------------------------------------------------------------
class TestAllocatorParity:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cell", CELL_SIZES)
    def test_greedy_mixed_instances(self, seed, cell):
        rng = np.random.default_rng(1000 + seed)
        sensors = random_sensors(rng, n=45)
        queries = queries_of_every_type(rng)
        a = GreedyAllocator().allocate(
            queries, sensors, kernel=ValuationKernel.from_sensors(sensors)
        )
        b = GreedyAllocator().allocate(
            queries, sensors, kernel=ShardedKernel.from_sensors(sensors, cell_size=cell)
        )
        assert_allocations_identical(a, b)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cell", [0.75, 2.5, 6.0])
    def test_baseline_mixed_instances(self, seed, cell):
        rng = np.random.default_rng(2000 + seed)
        sensors = random_sensors(rng, n=45)
        queries = queries_of_every_type(rng)
        a = BaselineAllocator().allocate(
            queries, sensors, kernel=ValuationKernel.from_sensors(sensors)
        )
        b = BaselineAllocator().allocate(
            queries, sensors, kernel=ShardedKernel.from_sensors(sensors, cell_size=cell)
        )
        assert_allocations_identical(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_greedy_accepts_sharded_kernel(self, seed):
        rng = np.random.default_rng(3000 + seed)
        sensors = random_sensors(rng, n=35)
        queries = queries_of_every_type(rng)
        a = ScalarGreedyAllocator().allocate(
            queries, sensors, kernel=ValuationKernel.from_sensors(sensors)
        )
        b = ScalarGreedyAllocator().allocate(
            queries, sensors, kernel=ShardedKernel.from_sensors(sensors, cell_size=3.0)
        )
        assert_allocations_identical(a, b)

    def test_sharded_kernel_with_repriced_announcements(self):
        """Costs come from the passed announcements, never the shard cache."""
        queries = [make_point_query(x=0, y=0, budget=20.0, theta_min=0.0)]
        original = [make_snapshot(0, x=0, y=0, cost=5.0)]
        kernel = ShardedKernel.from_sensors(original, cell_size=2.0)
        kernel.single_values(queries)  # warm the shard caches
        repriced = [make_snapshot(0, x=0, y=0, cost=1.0)]
        assert kernel.matches(repriced)
        result = GreedyAllocator().allocate(queries, repriced, kernel=kernel)
        assert result.selected[0].cost == 1.0
        assert result.sensor_income(0) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# end-to-end: the four figure families + mix, sharded vs dense engines
# ----------------------------------------------------------------------
class TestEndToEndFigureFamilies:
    SEED = 321
    N_SLOTS = 5

    def _run(self, family, sharding):
        scenario = build_rwm_scenario(self.SEED, n_sensors=60, n_slots=10)
        allocator = GreedyAllocator()
        rng = np.random.default_rng(self.SEED)
        if family == "point":
            workload = PointQueryWorkload(
                scenario.working_region, n_queries=30, budget=15.0, dmax=scenario.dmax
            )
            engine = one_shot_engine(
                scenario.make_fleet(), workload, allocator, rng, sharding=sharding
            )
        elif family == "aggregate":
            workload = AggregateQueryWorkload(
                scenario.working_region, budget_factor=15.0, mean_queries=4,
                count_spread=2, sensing_range=scenario.dmax,
            )
            engine = one_shot_engine(
                scenario.make_fleet(), workload, allocator, rng, sharding=sharding
            )
        elif family == "location_monitoring":
            ozone = build_ozone_dataset(self.SEED)
            workload = LocationMonitoringWorkload(
                scenario.working_region, ozone.values, ozone.model(),
                budget_factor=15.0, max_live=6, arrivals_per_slot=2,
                duration_range=(2, 5), dmax=scenario.dmax,
            )
            engine = location_monitoring_engine(
                scenario.make_fleet(), workload, allocator, rng, sharding=sharding
            )
        elif family == "event":
            workload = EventDetectionWorkload(
                scenario.working_region, threshold=40.0, arrivals_per_slot=2,
                duration_range=(2, 5), dmax=scenario.dmax,
            )
            engine = event_detection_engine(
                scenario.make_fleet(), workload, allocator, rng, sharding=sharding
            )
        else:  # region_monitoring
            world = build_intel_scenario(self.SEED, n_sensors=40, n_slots=10)
            workload = RegionMonitoringWorkload(
                world.scenario.working_region, world.gp, budget_factor=15.0,
                duration_range=(2, 4), sensing_radius=world.scenario.dmax,
            )
            engine = region_monitoring_engine(
                world.scenario.make_fleet(), workload, allocator, rng,
                sharding=sharding,
            )
        return engine.run(self.N_SLOTS)

    @pytest.mark.parametrize(
        "family",
        ["point", "aggregate", "location_monitoring", "region_monitoring", "event"],
    )
    def test_family_parity(self, family):
        assert_summaries_identical(
            self._run(family, sharding=None), self._run(family, sharding=True)
        )

    @pytest.mark.parametrize("sharding", [True, 2.0])
    def test_mix_family_parity(self, sharding):
        scenario = build_rwm_scenario(self.SEED, n_sensors=50, n_slots=10)
        ozone = build_ozone_dataset(self.SEED)
        summaries = []
        for mode in (None, sharding):
            point_wl = PointQueryWorkload(
                scenario.working_region, n_queries=20, budget=15.0, dmax=scenario.dmax
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
                joint=GreedyAllocator(), sharding=mode,
            )
            summaries.append(engine.run(self.N_SLOTS))
        assert_summaries_identical(summaries[0], summaries[1])

    def test_sequential_buffered_parity(self):
        """Stage-2 zero-cost re-announcements must reuse the sharded kernel
        (positions unchanged) while taking costs from the re-priced list."""
        scenario = build_rwm_scenario(self.SEED, n_sensors=50, n_slots=10)
        ozone = build_ozone_dataset(self.SEED)
        summaries = []
        for mode in (None, True):
            point_wl = PointQueryWorkload(
                scenario.working_region, n_queries=20, budget=15.0, dmax=scenario.dmax
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
                sequential=True,
                stage1_allocator=GreedyAllocator(),
                stage2_allocator=GreedyAllocator(),
                sharding=mode,
            )
            summaries.append(engine.run(self.N_SLOTS))
        assert_summaries_identical(summaries[0], summaries[1])

    def test_baseline_allocator_end_to_end(self):
        scenario = build_rwm_scenario(self.SEED, n_sensors=60, n_slots=10)
        summaries = []
        for mode in (None, 2.0):
            workload = PointQueryWorkload(
                scenario.working_region, n_queries=30, budget=15.0, dmax=scenario.dmax
            )
            engine = one_shot_engine(
                scenario.make_fleet(), workload, BaselineAllocator(),
                np.random.default_rng(self.SEED), sharding=mode,
            )
            summaries.append(engine.run(self.N_SLOTS))
        assert_summaries_identical(summaries[0], summaries[1])

    def test_scenario_spec_sharding_knob(self):
        base = ScenarioSpec(
            name="parity",
            dataset="rwm",
            seed=77,
            n_sensors=50,
            n_slots=4,
            allocator="greedy",
            streams=(
                StreamSpec("point", params={"n_queries": 20, "budget": 15.0}),
                StreamSpec("event", params={"threshold": 45.0, "arrivals_per_slot": 1}),
            ),
        )
        import dataclasses

        sharded = dataclasses.replace(base, sharding=True)
        assert sharded.to_dict()["sharding"] is True
        assert ScenarioSpec.from_dict(sharded.to_dict()) == sharded
        # "auto" is the same spelling the engine and CLI accept.
        auto = dataclasses.replace(base, sharding="auto")
        assert ScenarioSpec.from_dict(auto.to_dict()) == auto
        with pytest.raises(ValueError, match="sharding"):
            dataclasses.replace(base, sharding="fast")
        with pytest.raises(ValueError, match="sharding"):
            dataclasses.replace(base, sharding=-1.0)
        assert_summaries_identical(base.run(), sharded.run())
        assert_summaries_identical(base.run(), auto.run())
