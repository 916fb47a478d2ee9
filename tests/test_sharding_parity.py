"""Candidate-view parity: :class:`ValuationKernel`'s grid candidate views
must produce bit-identical values and allocations to the full-fleet
:class:`~oracles.DenseKernel` on every query type, across grid cell sizes,
and end-to-end through the four figure families.

The contract under test (see ``repro.core.valuation``): candidate cells
are supersets of each query's relevant sensors, every omitted (query,
sensor) pair is exactly ``0.0`` under the full-fleet formulas, and
candidate pairs go through the same elementwise operation sequence — so
allocations must match *exactly*, not just to tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import gridded_kernel, make_point_query, make_snapshot, sequential_mix
from oracles import (
    DenseKernel,
    ScalarGreedyAllocator,
    compile_kernel_as,
    dense_single_values,
    relevance,
    single_values,
)
from repro.core import (
    BaselineAllocator,
    GreedyAllocator,
    MixAllocator,
    PointProblem,
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
from repro.spatial.index import UniformGridIndex

CELL_SIZES = [0.75, 2.5, 6.0, 50.0]  # fine cells ... one-cell degenerate


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
        dense = DenseKernel.from_sensors(sensors)
        sharded = gridded_kernel(sensors, cell)
        values = dense_single_values(sharded, queries)
        assert np.array_equal(single_values(dense, queries), values)
        assert np.array_equal(relevance(dense, queries), values > 0.0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("cell", CELL_SIZES)
    def test_value_rows_vanish_outside_candidates(self, seed, cell):
        """PointProblem's dense value rows (eq. 9/12) are nonzero only on
        candidate columns."""
        rng = np.random.default_rng(50 + seed)
        sensors = random_sensors(rng)
        queries = [
            make_point_query(
                x=float(rng.uniform(0, 30)), y=float(rng.uniform(0, 30)),
                budget=float(rng.uniform(5, 25)), dmax=7.0,
            )
            for _ in range(10)
        ]
        sharded = gridded_kernel(sensors, cell)
        problem = PointProblem.build(queries, sensors)
        for query in queries:
            row = problem.query_values[query.query_id]
            outside = np.ones(len(sensors), dtype=bool)
            outside[sharded.candidate_indices(query)] = False
            assert not row[outside].any()

    @pytest.mark.parametrize("seed", range(6))
    def test_candidates_are_supersets_of_relevance(self, seed):
        rng = np.random.default_rng(100 + seed)
        sensors = random_sensors(rng)
        sharded = gridded_kernel(sensors, 3.0)
        for query in queries_of_every_type(rng):
            cand = sharded.candidate_indices(query)
            relevant = {j for j, s in enumerate(sensors) if query.relevant(s)}
            assert relevant <= set(cand.tolist())

    def test_unknown_query_type_falls_back_to_full_scan(self):
        class OpaqueQuery(PointQuery):
            """New relevance without a reach box: the kernel must not shard it."""

            def relevant_mask(self, xy, gamma=None, trust=None):
                return super().relevant_mask(xy, gamma, trust)

        rng = np.random.default_rng(0)
        sensors = random_sensors(rng)
        sharded = gridded_kernel(sensors, 3.0)
        every = list(range(len(sensors)))
        query = OpaqueQuery(Location(1, 1), 10.0)
        assert sharded.candidate_indices(query).tolist() == every
        cand, xy, gamma, trust = sharded.candidate_view(query)
        assert cand.tolist() == every
        assert xy is sharded.sensor_xy
        assert gamma is sharded.gamma and trust is sharded.trust
        # sparse_single_values must still serve it (full roster).
        [(idx, vals)] = sharded.sparse_single_values([query])
        assert idx.tolist() == every

    def test_empty_inputs(self):
        sharded = ValuationKernel.from_sensors([])
        assert sharded.sparse_single_values([]) == []
        assert sharded.index.n_shards == 0
        query = make_point_query(x=0, y=0)
        [(idx, vals)] = sharded.sparse_single_values([query])
        assert idx.size == 0 and vals.size == 0

    def test_heuristic_cell_size_positive(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform(0, 100, size=(500, 2))
        assert resolve_cell_size(xy) > 0
        assert resolve_cell_size(np.zeros((0, 2))) == 1.0
        assert resolve_cell_size(np.array([[3.0, 3.0]])) == 1.0
        colinear = np.stack([np.arange(50.0), np.full(50, 2.0)], axis=1)
        assert resolve_cell_size(colinear) > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tiny", [2.2e-311, 5e-324, 1e-300, 1e-160])
    def test_heuristic_cell_keeps_near_degenerate_grids_small(self, tiny):
        """One side only ulps wide must not shrink the cell towards zero:
        no axis gets more cells than there are sensors."""
        xy = np.array([[0.0, tiny], [1.0, 0.0], [0.5, 0.0]])
        index = UniformGridIndex(xy, resolve_cell_size(xy))
        assert index.n_cols <= len(xy) + 1 and index.n_rows <= len(xy) + 1
        every = index.indices_in_cell_range(0, index.n_cols, 0, index.n_rows)
        assert np.array_equal(np.sort(every), np.arange(len(xy)))

    def test_ensure_reuses_matching_sharded_kernel(self):
        rng = np.random.default_rng(3)
        sensors = random_sensors(rng)
        kernel = gridded_kernel(sensors, 4.0)
        index = kernel.index
        probe = queries_of_every_type(rng)[0]
        view = kernel.candidate_view(probe)
        repriced = [
            make_snapshot(
                s.sensor_id, x=s.location.x, y=s.location.y, cost=1.0,
                inaccuracy=s.inaccuracy, trust=s.trust,
            )
            for s in sensors
        ]
        reused = ValuationKernel.ensure(kernel, repriced)
        assert reused is kernel
        # Rebound to a batch over the current list's own snapshots.
        assert all(a is b for a, b in zip(reused.sensors, repriced, strict=True))
        # The warm grid and candidate caches survive the reuse.
        assert reused.index is index
        assert reused.candidate_view(probe) is view
        moved = random_sensors(np.random.default_rng(4))
        rebuilt = ValuationKernel.ensure(kernel, moved)
        assert rebuilt is not kernel


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
        dense = DenseKernel.from_sensors(sensors)
        sharded = gridded_kernel(sensors, cell)
        # Query locations on cell corners, edges and centres; radii that
        # end exactly on boundaries.
        queries = [
            PointQuery(Location(x, y), budget=15.0, dmax=r, theta_min=0.2)
            for (x, y) in [(2.0, 2.0), (2.0, 3.5), (4.999, 5.001), (0.0, 0.0), (9.0, 9.0)]
            for r in (1.0, 2.0, 2.5)
        ]
        assert np.array_equal(
            single_values(dense, queries), dense_single_values(sharded, queries)
        )
        a = GreedyAllocator().allocate(queries, sensors, kernel=dense)
        b = GreedyAllocator().allocate(queries, sensors, kernel=sharded)
        assert_allocations_identical(a, b)

    def test_region_query_aligned_with_shard_edges(self):
        sensors = self.grid_world()
        dense = DenseKernel.from_sensors(sensors)
        sharded = gridded_kernel(sensors, 2.0)
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
        sharded = gridded_kernel(sensors, 20.0)
        assert sharded.index.n_shards == 1
        query = PointQuery(Location(5.0, 5.0), budget=15.0, dmax=3.0)
        cand = sharded.candidate_indices(query)
        assert sorted(cand.tolist()) == list(range(100))

    def test_query_outside_fleet_bbox(self):
        sensors = self.grid_world()
        dense = DenseKernel.from_sensors(sensors)
        sharded = gridded_kernel(sensors, 2.0)
        queries = [
            PointQuery(Location(-50.0, -50.0), budget=15.0, dmax=5.0),  # far off-grid
            PointQuery(Location(-3.0, 5.0), budget=15.0, dmax=4.0),     # straddles the edge
            PointQuery(Location(11.0, 11.0), budget=15.0, dmax=3.0),    # beyond max corner
        ]
        assert np.array_equal(
            single_values(dense, queries), dense_single_values(sharded, queries)
        )


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
            queries, sensors, kernel=DenseKernel.from_sensors(sensors)
        )
        b = GreedyAllocator().allocate(
            queries, sensors, kernel=gridded_kernel(sensors, cell)
        )
        assert_allocations_identical(a, b)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cell", [0.75, 2.5, 6.0])
    def test_baseline_mixed_instances(self, seed, cell):
        rng = np.random.default_rng(2000 + seed)
        sensors = random_sensors(rng, n=45)
        queries = queries_of_every_type(rng)
        a = BaselineAllocator().allocate(
            queries, sensors, kernel=DenseKernel.from_sensors(sensors)
        )
        b = BaselineAllocator().allocate(
            queries, sensors, kernel=gridded_kernel(sensors, cell)
        )
        assert_allocations_identical(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_greedy_matches_candidate_path(self, seed):
        rng = np.random.default_rng(3000 + seed)
        sensors = random_sensors(rng, n=35)
        queries = queries_of_every_type(rng)
        a = ScalarGreedyAllocator().allocate(
            queries, sensors, kernel=DenseKernel.from_sensors(sensors)
        )
        b = GreedyAllocator().allocate(
            queries, sensors, kernel=gridded_kernel(sensors, 3.0)
        )
        assert_allocations_identical(a, b)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("allocator", [GreedyAllocator, BaselineAllocator])
    def test_unknown_types_take_the_full_fleet_view(self, seed, allocator):
        """Subclasses of the built-in types get the full-fleet candidate
        view (the kernel's reach boxes trust exact types only)."""

        class OpaquePoint(PointQuery):
            def relevant(self, snapshot):
                return super().relevant(snapshot)

            def relevant_mask(self, xy, gamma=None, trust=None):
                return super().relevant_mask(xy, gamma, trust)

        class OpaqueAggregate(SpatialAggregateQuery):
            def relevant(self, snapshot):
                return super().relevant(snapshot)

            def relevant_mask(self, xy, gamma=None, trust=None):
                return super().relevant_mask(xy, gamma, trust)

        rng = np.random.default_rng(4000 + seed)
        sensors = random_sensors(rng, n=45)
        region = Region.random_subregion(
            Region.from_origin(30.0, 30.0), rng, min_side=5, max_side=12
        )
        queries = queries_of_every_type(rng) + [
            OpaquePoint(Location(14, 14), budget=18.0, dmax=7.0),
            OpaqueAggregate(region, budget=30.0, sensing_range=5.0, coverage_radius=3.0),
        ]
        a = allocator().allocate(queries, sensors, kernel=DenseKernel.from_sensors(sensors))
        b = allocator().allocate(queries, sensors, kernel=gridded_kernel(sensors, 2.5))
        assert_allocations_identical(a, b)
        assert any(q.query_id in b.assignments for q in queries[-2:])

    def test_sharded_kernel_with_repriced_announcements(self):
        """Costs come from the passed announcements, never the shard cache."""
        queries = [make_point_query(x=0, y=0, budget=20.0, theta_min=0.0)]
        original = [make_snapshot(0, x=0, y=0, cost=5.0)]
        kernel = gridded_kernel(original, 2.0)
        kernel.sparse_single_values(queries)  # warm the candidate caches
        repriced = [make_snapshot(0, x=0, y=0, cost=1.0)]
        assert kernel.matches(repriced)
        result = GreedyAllocator().allocate(queries, repriced, kernel=kernel)
        assert result.selected[0].cost == 1.0
        assert result.sensor_income(0) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# end-to-end: the four figure families + mix, candidate views vs DenseKernel
# ----------------------------------------------------------------------
class TestEndToEndFigureFamilies:
    SEED = 321
    N_SLOTS = 5

    def _run(self, family):
        scenario = build_rwm_scenario(self.SEED, n_sensors=60, n_slots=10)
        allocator = GreedyAllocator()
        rng = np.random.default_rng(self.SEED)
        if family == "point":
            workload = PointQueryWorkload(
                scenario.working_region, n_queries=30, budget=15.0, dmax=scenario.dmax
            )
            engine = one_shot_engine(scenario.make_fleet(), workload, allocator, rng)
        elif family == "aggregate":
            workload = AggregateQueryWorkload(
                scenario.working_region, budget_factor=15.0, mean_queries=4,
                count_spread=2, sensing_range=scenario.dmax,
            )
            engine = one_shot_engine(scenario.make_fleet(), workload, allocator, rng)
        elif family == "location_monitoring":
            ozone = build_ozone_dataset(self.SEED)
            workload = LocationMonitoringWorkload(
                scenario.working_region, ozone.values, ozone.model(),
                budget_factor=15.0, max_live=6, arrivals_per_slot=2,
                duration_range=(2, 5), dmax=scenario.dmax,
            )
            engine = location_monitoring_engine(
                scenario.make_fleet(), workload, allocator, rng
            )
        elif family == "event":
            workload = EventDetectionWorkload(
                scenario.working_region, threshold=40.0, arrivals_per_slot=2,
                duration_range=(2, 5), dmax=scenario.dmax,
            )
            engine = event_detection_engine(
                scenario.make_fleet(), workload, allocator, rng
            )
        else:  # region_monitoring
            world = build_intel_scenario(self.SEED, n_sensors=40, n_slots=10)
            workload = RegionMonitoringWorkload(
                world.scenario.working_region, world.gp, budget_factor=15.0,
                duration_range=(2, 4), sensing_radius=world.scenario.dmax,
            )
            engine = region_monitoring_engine(
                world.scenario.make_fleet(), workload, allocator, rng
            )
        return engine.run(self.N_SLOTS)

    @staticmethod
    def _on_both_kernels(monkeypatch, run):
        """``run()`` on the production kernel, then on the dense oracle."""
        candidate = run()
        with monkeypatch.context() as patch:
            compile_kernel_as(patch, DenseKernel)
            dense = run()
        return dense, candidate

    @pytest.mark.parametrize(
        "family",
        ["point", "aggregate", "location_monitoring", "region_monitoring", "event"],
    )
    def test_family_parity(self, family, monkeypatch):
        assert_summaries_identical(
            *self._on_both_kernels(monkeypatch, lambda: self._run(family))
        )

    def _mix(self, **options):
        scenario = build_rwm_scenario(self.SEED, n_sensors=50, n_slots=10)
        ozone = build_ozone_dataset(self.SEED)
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
            np.random.default_rng(self.SEED), **options,
        )
        return engine.run(self.N_SLOTS)

    def test_mix_family_parity(self, monkeypatch):
        assert_summaries_identical(
            *self._on_both_kernels(
                monkeypatch, lambda: self._mix(mix=MixAllocator(joint=GreedyAllocator()))
            )
        )

    def test_sequential_buffered_parity(self, monkeypatch):
        """Stage-2 zero-cost re-announcements must reuse the slot kernel
        (positions unchanged) while taking costs from the re-priced list."""
        assert_summaries_identical(
            *self._on_both_kernels(
                monkeypatch,
                lambda: self._mix(mix=sequential_mix(GreedyAllocator)),
            )
        )

    def test_baseline_allocator_end_to_end(self, monkeypatch):
        scenario = build_rwm_scenario(self.SEED, n_sensors=60, n_slots=10)

        def run():
            workload = PointQueryWorkload(
                scenario.working_region, n_queries=30, budget=15.0, dmax=scenario.dmax
            )
            engine = one_shot_engine(
                scenario.make_fleet(), workload, BaselineAllocator(),
                np.random.default_rng(self.SEED),
            )
            return engine.run(self.N_SLOTS)

        assert_summaries_identical(*self._on_both_kernels(monkeypatch, run))

    def test_scenario_spec_runs_on_dense_oracle(self, monkeypatch):
        spec = ScenarioSpec(
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
        assert_summaries_identical(*self._on_both_kernels(monkeypatch, spec.run))
