"""Batch-relevance geometry parity: ``Query.relevant_mask`` vs the scalar
``Query.relevant`` scan, array-native coverage-mask matrices vs the
``Location``-built ones, and mask-driven allocations vs the scalar-relevance
reference paths — on the production kernel and the full-fleet
:class:`oracles.DenseKernel`.

The contract under test (see ``repro.queries.base``): every built-in query
type's ``relevant_mask`` answers the scalar predicate for each stacked
announcement column.  The purely geometric types (aggregate, trajectory,
region monitoring) share one arithmetic path between the scalar and batch
forms, so those agree *bitwise by construction*; the quality-gated types
(point, multi-point, event, location monitoring) keep their historical
``math.hypot`` scalar while the mask uses ``np.hypot`` — equivalent except
in the final ulp on engineered boundary instances, which random fleets never
hit.  Region-heavy allocations through the mask path must therefore compare
``==`` (assignments, values, payments) against the scalar-relevance
reference implementations, on both kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import gridded_kernel, make_snapshot, relevance_row
from oracles import DenseKernel, ScalarGreedyAllocator, new_state
from repro.core import (
    BaselineAllocator,
    GreedyAllocator,
    ValuationKernel,
)
from repro.core.allocation import AllocationResult
from repro.datasets import build_intel_scenario, build_ozone_dataset
from repro.queries import (
    AggregateQueryWorkload,
    EventSlotQuery,
    LocationMonitoringQuery,
    MultiSensorPointQuery,
    PointQuery,
    RegionMonitoringQuery,
    SensorRoster,
    SpatialAggregateQuery,
    TrajectoryQuery,
    TrajectoryQueryWorkload,
)
from repro.sensors import AnnouncementBatch
from repro.spatial import (
    AreaCoverage,
    Location,
    Region,
    Trajectory,
    TrajectoryCoverage,
)

SIDE = 30.0


def random_sensors(rng, n=50, side=SIDE):
    return [
        make_snapshot(
            i,
            x=float(rng.uniform(0, side)),
            y=float(rng.uniform(0, side)),
            cost=float(rng.uniform(1, 10)),
            inaccuracy=float(rng.uniform(0, 0.3)),
            trust=float(rng.uniform(0.4, 1.0)),
        )
        for i in range(n)
    ]


def stacked(sensors):
    xy = np.asarray([(s.location.x, s.location.y) for s in sensors], dtype=float)
    gamma = np.asarray([s.inaccuracy for s in sensors], dtype=float)
    trust = np.asarray([s.trust for s in sensors], dtype=float)
    return xy, gamma, trust


def one_of_each_query_type(rng, side=SIDE):
    region = Region.from_origin(side, side)
    sub = Region.random_subregion(region, rng, min_side=6, max_side=14)
    trajectory = Trajectory([Location(3, 2), Location(12, 15), Location(26, 8)])
    return [
        PointQuery(Location(6, 7), budget=15.0, dmax=8.0),
        MultiSensorPointQuery(Location(14, 10), budget=25.0, n_readings=3, dmax=9.0),
        SpatialAggregateQuery(sub, budget=40.0, sensing_range=6.0, coverage_radius=3.0),
        TrajectoryQuery(trajectory, budget=35.0, sensing_range=4.0),
        EventSlotQuery(
            Location(9, 16), budget=20.0, required_confidence=0.9,
            theta_min=0.1, dmax=7.0, parent_id="ev-parent",
        ),
    ]


def assert_allocations_identical(a, b):
    """Exact (bitwise) equality of two allocation results."""
    assert a.assignments == b.assignments
    assert set(a.selected) == set(b.selected)
    assert a.values == b.values
    assert a.payments == b.payments


# ----------------------------------------------------------------------
# per-type relevant_mask vs scalar relevant
# ----------------------------------------------------------------------
class TestRelevantMaskParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_builtin_type_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        sensors = random_sensors(rng)
        xy, gamma, trust = stacked(sensors)
        for query in one_of_each_query_type(rng):
            mask = query.relevant_mask(xy, gamma, trust)
            assert mask is not None and mask.dtype == bool
            expected = np.asarray([query.relevant(s) for s in sensors])
            assert np.array_equal(mask, expected), type(query).__name__

    @pytest.mark.parametrize("seed", range(4))
    def test_n_equals_1_is_the_scalar_case(self, seed):
        rng = np.random.default_rng(100 + seed)
        sensors = random_sensors(rng, n=12)
        for query in one_of_each_query_type(rng):
            for s in sensors:
                row = np.asarray([[s.location.x, s.location.y]])
                mask = query.relevant_mask(
                    row, np.asarray([s.inaccuracy]), np.asarray([s.trust])
                )
                assert bool(mask[0]) == query.relevant(s)

    def test_location_list_inputs_accepted(self):
        rng = np.random.default_rng(7)
        sensors = random_sensors(rng, n=10)
        locations = [s.location for s in sensors]
        _, gamma, trust = stacked(sensors)
        query = SpatialAggregateQuery(
            Region(5, 5, 15, 15), budget=30.0, sensing_range=5.0
        )
        assert np.array_equal(
            query.relevant_mask(locations),
            np.asarray([query.relevant(s) for s in sensors]),
        )
        point = PointQuery(Location(8, 8), budget=15.0, dmax=6.0)
        assert np.array_equal(
            point.relevant_mask(locations, gamma, trust),
            np.asarray([point.relevant(s) for s in sensors]),
        )

    def test_quality_gated_masks_require_columns(self):
        xy = np.zeros((3, 2))
        for query in (
            PointQuery(Location(0, 0), budget=10.0),
            MultiSensorPointQuery(Location(0, 0), budget=10.0, n_readings=2),
            EventSlotQuery(
                Location(0, 0), budget=10.0, required_confidence=0.9,
                theta_min=0.1, dmax=5.0, parent_id="p",
            ),
        ):
            with pytest.raises(ValueError, match="gamma and trust"):
                query.relevant_mask(xy)

    def test_monitoring_masks(self):
        rng = np.random.default_rng(11)
        sensors = random_sensors(rng)
        xy, gamma, trust = stacked(sensors)
        ozone = build_ozone_dataset(11)
        lm = LocationMonitoringQuery(
            location=Location(10, 10), t1=0, t2=4, desired_times=[0, 2],
            budget=30.0, series=ozone.values, model=ozone.model(),
            theta_min=0.2, dmax=8.0,
        )
        # Location monitoring: the derived point queries' quality gate.
        derived = PointQuery(lm.location, budget=1.0, theta_min=lm.theta_min, dmax=lm.dmax)
        assert np.array_equal(
            lm.relevant_mask(xy, gamma, trust),
            np.asarray([derived.relevant(s) for s in sensors]),
        )
        with pytest.raises(ValueError, match="gamma and trust"):
            lm.relevant_mask(xy)
        # Region monitoring: Algorithm 3's in-region test.
        world = build_intel_scenario(11, n_sensors=10, n_slots=5)
        rm = RegionMonitoringQuery(
            region=Region(5, 5, 20, 20), t1=0, t2=4, budget=30.0, gp=world.gp
        )
        assert np.array_equal(
            rm.relevant_mask(xy),
            np.asarray([rm.region.contains(s.location) for s in sensors]),
        )

    def test_relevance_override_of_a_builtin_is_honoured(self):
        """A subclass of a built-in type that narrows ``relevant`` together
        with ``relevant_mask`` is screened through its own mask by the
        roster and both allocators."""

        class TrustedOnly(MultiSensorPointQuery):
            def relevant(self, snapshot):
                return snapshot.trust >= 0.9 and super().relevant(snapshot)

            def relevant_mask(self, xy, gamma=None, trust=None):
                return super().relevant_mask(xy, gamma, trust) & (trust >= 0.9)

        query = TrustedOnly(Location(0.0, 0.0), budget=20.0, n_readings=2, dmax=10.0)
        sensors = [
            make_snapshot(0, x=1.0, y=0.0, cost=1.0, trust=0.5),
            make_snapshot(1, x=2.0, y=0.0, cost=1.0, trust=0.95),
        ]
        roster = SensorRoster(sensors)
        assert relevance_row(query, roster).tolist() == [False, True]
        assert [query.relevant(s) for s in sensors] == [False, True]
        for allocator in (GreedyAllocator(), BaselineAllocator()):
            result = allocator.allocate([query], sensors)
            assert set(result.selected) == {1}, type(allocator).__name__

    def test_quality_hook_override_is_honoured(self):
        """A subclass that tightens ``quality`` (a hook the scalar predicate
        delegates to) and its mask together allocates by the tighter reach."""

        class StrictEvent(EventSlotQuery):
            def quality(self, snapshot):  # tighter reach than the base mask
                theta = super().quality(snapshot)
                distance = snapshot.location.distance_to(self.location)
                return theta if distance <= self.dmax / 2 else 0.0

            def relevant_mask(self, xy, gamma=None, trust=None):
                near = np.hypot(xy[:, 0] - self.location.x, xy[:, 1] - self.location.y)
                return super().relevant_mask(xy, gamma, trust) & (near <= self.dmax / 2)

        query = StrictEvent(
            Location(0.0, 0.0), budget=20.0, required_confidence=0.9,
            theta_min=0.0, dmax=8.0, parent_id="p",
        )
        sensors = [
            make_snapshot(0, x=1.0, y=0.0, cost=1.0),
            make_snapshot(1, x=6.0, y=0.0, cost=1.0),  # beyond dmax/2
        ]
        assert relevance_row(query, SensorRoster(sensors)).tolist() == [True, False]
        assert [query.relevant(s) for s in sensors] == [True, False]
        result = GreedyAllocator().allocate([query], sensors)
        assert set(result.selected) == {0}

    def test_roster_relevance_row_uses_the_mask(self):
        """A roster's relevance comes from the mask alone: it answers the
        scalar predicate without touching a snapshot."""

        class ExplodingSnapshots(list):
            def __getitem__(self, item):  # pragma: no cover - guard only
                raise AssertionError("scalar fallback touched a snapshot")

        rng = np.random.default_rng(4)
        sensors = random_sensors(rng, n=20)
        roster = SensorRoster(list(sensors))
        roster.snapshots = ExplodingSnapshots()
        query = SpatialAggregateQuery(
            Region(2, 2, 12, 12), budget=20.0, sensing_range=5.0
        )
        row = relevance_row(query, roster)
        assert row.tolist() == [query.relevant(s) for s in sensors]


# ----------------------------------------------------------------------
# coverage-mask matrices: (n, 2) arrays vs Location sequences
# ----------------------------------------------------------------------
class TestMaskMatrixParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_masks_for_bit_identical_across_input_forms(self, seed):
        rng = np.random.default_rng(200 + seed)
        sensors = random_sensors(rng, n=30)
        locations = [s.location for s in sensors]
        xy, _, _ = stacked(sensors)
        region = Region.random_subregion(
            Region.from_origin(SIDE, SIDE), rng, min_side=5, max_side=12
        )
        trajectory = Trajectory.random(Region.from_origin(SIDE, SIDE), rng)
        functions = [
            AreaCoverage(region, sensing_range=4.0),
            TrajectoryCoverage(trajectory, sensing_range=3.0, spacing=1.5),
        ]
        for fn in functions:
            from_locations = fn.masks_for(locations)
            from_array = fn.masks_for(xy)
            stacked_scalar = np.stack([fn.mask_for(loc) for loc in locations])
            assert np.array_equal(from_array, from_locations)
            assert np.array_equal(from_array, stacked_scalar)
            # The callable form accepts arrays too, same value.
            assert fn(xy) == fn(locations)

    def test_empty_inputs(self):
        fn = AreaCoverage(Region(0, 0, 4, 4), sensing_range=2.0)
        assert fn.masks_for([]).shape == (0, fn.cell_count)
        assert fn.masks_for(np.zeros((0, 2))).shape == (0, fn.cell_count)

    def test_default_masks_for_loops_over_mask_for(self):
        """The scalar fallback contract of CoverageFunction.masks_for: the
        base implementation (mask_for loop) matches the broadcasted
        override for both input forms."""
        from repro.spatial.coverage import CoverageFunction

        fn = AreaCoverage(Region(0, 0, 6, 6), sensing_range=2.5)
        rng = np.random.default_rng(0)
        xy = rng.uniform(0, 6, size=(7, 2))
        locations = [Location(float(x), float(y)) for x, y in xy]
        assert np.array_equal(CoverageFunction.masks_for(fn, xy), fn.masks_for(xy))
        assert np.array_equal(CoverageFunction.masks_for(fn, locations), fn.masks_for(xy))


# ----------------------------------------------------------------------
# region-heavy allocation parity: mask path vs scalar-relevance reference
# ----------------------------------------------------------------------
def region_heavy_slot(seed, n_sensors=140, side=60.0):
    """A miniature of the 20k-sensor bench slot: only aggregate/trajectory
    queries (their scalar/batch arithmetic is bit-identical, so allocations
    must compare ``==``)."""
    rng = np.random.default_rng(seed)
    region = Region.from_origin(side, side)
    sensors = random_sensors(rng, n=n_sensors, side=side)
    agg = AggregateQueryWorkload(
        region, budget_factor=6.0, mean_queries=5, count_spread=2,
        sensing_range=8.0, coverage_radius=4.0, min_side=12.0, max_side=24.0,
    )
    traj = TrajectoryQueryWorkload(
        region, budget_factor=6.0, queries_per_slot=3, sensing_range=8.0
    )
    return agg.generate(0, rng) + traj.generate(0, rng), sensors


class _ReferenceBaseline:
    """The historical sequential baseline: scalar ``relevant`` candidate
    scans and a per-candidate Python pick loop over the scalar oracle
    states' ``gain`` calls — the executable reference the array-native
    allocator is pinned against (region queries only; their gains are
    bit-identical between the oracle states and the gain blocks)."""

    def __init__(self, min_gain: float = 1e-9) -> None:
        self.min_gain = min_gain

    def allocate(self, queries, sensors) -> AllocationResult:
        result = AllocationResult()
        paid: set[int] = set()
        for query in queries:
            state = new_state(query)
            candidates = [s for s in sensors if query.relevant(s)]
            chosen: set[int] = set()
            while True:
                best, best_net, best_gain = None, 0.0, 0.0
                for snapshot in candidates:
                    if snapshot.sensor_id in chosen:
                        continue
                    gain = float(state.gain(snapshot))
                    if gain <= self.min_gain:
                        continue
                    effective = 0.0 if snapshot.sensor_id in paid else snapshot.cost
                    net = gain - effective
                    if net > best_net + self.min_gain:
                        best, best_net, best_gain = snapshot, net, gain
                if best is None:
                    break
                newly_paid = best.sensor_id not in paid
                state.add(best)
                chosen.add(best.sensor_id)
                paid.add(best.sensor_id)
                result.record(query, best, best_gain, best.cost if newly_paid else 0.0)
        result.verify()
        return result


class TestRegionHeavyAllocationParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_masked_equals_scalar_dense_and_sharded(self, seed):
        queries, sensors = region_heavy_slot(300 + seed)
        scalar = ScalarGreedyAllocator().allocate(
            queries, sensors, kernel=ValuationKernel.from_sensors(sensors)
        )
        dense = GreedyAllocator().allocate(
            queries, sensors, kernel=DenseKernel.from_sensors(sensors)
        )
        sharded = GreedyAllocator().allocate(
            queries, sensors, kernel=gridded_kernel(sensors, 6.0)
        )
        assert_allocations_identical(dense, scalar)
        assert_allocations_identical(sharded, scalar)

    @pytest.mark.parametrize("seed", range(6))
    def test_baseline_masked_equals_scalar_reference(self, seed):
        queries, sensors = region_heavy_slot(400 + seed, n_sensors=90)
        reference = _ReferenceBaseline().allocate(queries, sensors)
        dense = BaselineAllocator().allocate(
            queries, sensors, kernel=DenseKernel.from_sensors(sensors)
        )
        sharded = BaselineAllocator().allocate(
            queries, sensors, kernel=gridded_kernel(sensors, 7.5)
        )
        assert_allocations_identical(dense, reference)
        assert_allocations_identical(sharded, reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_type_slots_stay_identical(self, seed):
        """Masks cover every type at once (point rows ride the kernel)."""
        rng = np.random.default_rng(500 + seed)
        sensors = random_sensors(rng, n=60)
        queries = one_of_each_query_type(rng)
        scalar = ScalarGreedyAllocator().allocate(queries, sensors)
        dense = GreedyAllocator().allocate(queries, sensors)
        assert_allocations_identical(dense, scalar)


# ----------------------------------------------------------------------
# snapshots materialize only at result.record time
# ----------------------------------------------------------------------
def make_batch(rng, n=80, side=60.0):
    xy = rng.uniform(0, side, size=(n, 2))
    return AnnouncementBatch(
        ids=np.arange(n, dtype=np.intp),
        xy=xy,
        costs=rng.uniform(1, 10, size=n),
        gamma=rng.uniform(0, 0.3, size=n),
        trust=rng.uniform(0.4, 1.0, size=n),
        clock=0,
    )


class TestLazySnapshots:
    def test_greedy_materializes_only_the_picks(self):
        rng = np.random.default_rng(21)
        batch = make_batch(rng)
        queries, _ = region_heavy_slot(21, n_sensors=1)
        result = GreedyAllocator().allocate(queries, batch)
        materialized = {j for j, s in enumerate(batch._snapshots) if s is not None}
        picked = {int(sid) for sid in result.selected}
        assert materialized == picked
        assert len(picked) > 0

    def test_baseline_materializes_only_the_picks(self):
        rng = np.random.default_rng(22)
        batch = make_batch(rng)
        queries, _ = region_heavy_slot(22, n_sensors=1)
        result = BaselineAllocator().allocate(queries, batch)
        materialized = {j for j, s in enumerate(batch._snapshots) if s is not None}
        picked = {int(sid) for sid in result.selected}
        assert materialized == picked
        assert len(picked) > 0


# ----------------------------------------------------------------------
# candidate views: memoized gathers reused across queries
# ----------------------------------------------------------------------
class TestShardedCandidateViews:
    def test_queries_sharing_a_cell_range_share_the_gather(self):
        rng = np.random.default_rng(31)
        sensors = random_sensors(rng, n=60, side=40.0)
        kernel = gridded_kernel(sensors, 5.0)
        region = Region(10, 10, 25, 25)
        a = SpatialAggregateQuery(region, budget=30.0, sensing_range=5.0)
        b = SpatialAggregateQuery(region, budget=99.0, sensing_range=5.0)
        va = kernel.candidate_view(a)
        vb = kernel.candidate_view(b)
        assert va[1] is vb[1] and va[2] is vb[2] and va[3] is vb[3]

    def test_view_matches_candidate_indices(self):
        rng = np.random.default_rng(32)
        sensors = random_sensors(rng, n=50, side=40.0)
        kernel = gridded_kernel(sensors, 4.0)
        for query in one_of_each_query_type(rng, side=40.0):
            view = kernel.candidate_view(query)
            idx = kernel.candidate_indices(query)
            assert np.array_equal(view[0], idx)
            assert np.array_equal(view[1], kernel.sensor_xy[idx])
            assert np.array_equal(view[2], kernel.gamma[idx])
            assert np.array_equal(view[3], kernel.trust[idx])

    def test_unknown_type_returns_the_full_fleet(self):
        class OpaquePoint(PointQuery):
            def relevant_mask(self, xy, gamma=None, trust=None):
                return super().relevant_mask(xy, gamma, trust)

        rng = np.random.default_rng(33)
        sensors = random_sensors(rng, n=20)
        kernel = gridded_kernel(sensors, 4.0)
        cand, xy, gamma, trust = kernel.candidate_view(OpaquePoint(Location(1, 1), 10.0))
        assert cand.tolist() == list(range(20))
        assert xy is kernel.sensor_xy and gamma is kernel.gamma and trust is kernel.trust
