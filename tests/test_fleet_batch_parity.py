"""Announcement-batch parity: the vectorized array path vs the object path.

The array-backed fleet must be indistinguishable from the historical
per-sensor object walk: same announcement sets (region mask + exhaustion),
bit-identical eq.-8 prices (energy + windowed privacy) across energy and
privacy configs, identical snapshots, and — downstream — bit-identical
allocations (sensor picks, values, payments) through the dense and sharded
kernels.  ``object_path_announcements`` below *is* the seed implementation,
driven through the fleet's read-only :class:`Sensor` views so it always
reflects the live array state.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import DenseKernel
from repro.core import (
    BaselineAllocator,
    GreedyAllocator,
    LocalSearchPointAllocator,
    OptimalPointAllocator,
    RegionMonitoringController,
    ValuationKernel,
    one_shot_engine,
)
from repro.mobility import RandomWaypointMobility, StationaryMobility
from repro.phenomena import GaussianProcessField, RBFKernel
from repro.queries import PointQueryWorkload, RegionMonitoringQuery
from repro.sensors import (
    AnnouncementBatch,
    FleetConfig,
    SensorFleet,
    TieredTrust,
    UniformTrust,
)
from repro.spatial import Location, Region

REGION = Region.from_origin(40, 40)
HOTSPOT = Region.centered_in(REGION, 26, 26)

#: The announcement-relevant config axes: energy model x privacy x trust.
CONFIGS = {
    "paper_default": FleetConfig(),
    "linear_energy": FleetConfig(linear_energy=True, lifetime=4),
    "random_privacy": FleetConfig(random_privacy=True, privacy_window=3),
    "linear_and_privacy": FleetConfig(
        linear_energy=True,
        beta_range=(0.5, 3.0),
        random_privacy=True,
        privacy_window=4,
        lifetime=5,
    ),
    "uniform_trust": FleetConfig(trust_model=UniformTrust(0.2, 0.9)),
    "tiered_trust_linear": FleetConfig(
        trust_model=TieredTrust(), linear_energy=True, lifetime=3
    ),
}


def make_fleet(config: FleetConfig, seed: int = 7, n: int = 60) -> SensorFleet:
    rng = np.random.default_rng(seed)
    return SensorFleet(RandomWaypointMobility(REGION, n, rng), HOTSPOT, config, rng)


def object_path_announcements(fleet: SensorFleet):
    """The seed implementation's per-sensor loop, over the live state."""
    snapshots = []
    locations = fleet.mobility.locations()
    for sensor, location in zip(fleet.sensors, locations):
        if sensor.is_exhausted:
            continue
        if not fleet.working_region.contains(location):
            continue
        snapshots.append(sensor.snapshot(location, fleet.clock))
    return snapshots


class ObjectPathFleet(SensorFleet):
    """A fleet whose announcements use the per-sensor object walk."""

    def announcements(self):  # type: ignore[override]
        super().announcements()  # keep position bookkeeping identical
        return object_path_announcements(self)


def drive_slot(fleet: SensorFleet, rng: np.random.Generator, batch) -> None:
    """Allocate a point-query slot and book the results, advancing state."""
    queries = PointQueryWorkload(
        HOTSPOT, n_queries=25, budget=18.0, dmax=6.0
    ).generate(fleet.clock, rng)
    result = GreedyAllocator().allocate(queries, batch)
    fleet.record_measurements(list(result.selected))
    fleet.advance()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batch_bit_identical_to_object_path(name):
    """Region mask, exhaustion, eq.-8 costs, snapshots, over live slots."""
    config = CONFIGS[name]
    fleet = make_fleet(config)
    workload_rng = np.random.default_rng(101)
    for _ in range(6):
        batch = fleet.announcements()
        reference = object_path_announcements(fleet)
        assert isinstance(batch, AnnouncementBatch)
        assert len(batch) == len(reference)
        for j, snap in enumerate(reference):
            assert int(batch.ids[j]) == snap.sensor_id
            assert batch.xy[j, 0] == snap.location.x  # exact
            assert batch.xy[j, 1] == snap.location.y
            assert batch.costs[j] == snap.cost  # eq. 8, bit-identical
            assert batch.gamma[j] == snap.inaccuracy
            assert batch.trust[j] == snap.trust
            assert batch[j] == snap  # lazy snapshot view, field-for-field
        drive_slot(fleet, workload_rng, batch)


@pytest.mark.parametrize("name", ["paper_default", "linear_and_privacy"])
@pytest.mark.parametrize("sharded", [False, True], ids=["dense", "sharded"])
def test_allocations_bit_identical(name, sharded):
    """Greedy picks, values and payments match the object path exactly."""
    config = CONFIGS[name]
    batch_fleet = make_fleet(config)
    object_fleet = make_fleet(config)
    rng_a = np.random.default_rng(55)
    rng_b = np.random.default_rng(55)
    allocator = GreedyAllocator()
    for _ in range(5):
        batch = batch_fleet.announcements()
        reference = object_path_announcements(object_fleet)
        queries_a = PointQueryWorkload(
            HOTSPOT, n_queries=30, budget=18.0, dmax=6.0
        ).generate(batch_fleet.clock, rng_a)
        queries_b = PointQueryWorkload(
            HOTSPOT, n_queries=30, budget=18.0, dmax=6.0
        ).generate(object_fleet.clock, rng_b)
        kernel_cls = ValuationKernel if sharded else DenseKernel
        kernel_a = kernel_cls.from_sensors(batch)
        kernel_b = kernel_cls.from_sensors(reference)
        a = allocator.allocate(queries_a, batch, kernel=kernel_a)
        b = allocator.allocate(queries_b, reference, kernel=kernel_b)
        # Workloads are seeded identically but query ids are process-unique;
        # compare by position in the (identical) query order.
        id_map = {qa.query_id: qb.query_id for qa, qb in zip(queries_a, queries_b)}
        assert {id_map[q]: v for q, v in a.values.items()} == b.values
        assert {id_map[q]: s for q, s in a.assignments.items()} == b.assignments
        assert set(a.selected) == set(b.selected)
        assert {(id_map[q], s): p for (q, s), p in a.payments.items()} == b.payments
        batch_fleet.record_measurements(list(a.selected))
        object_fleet.record_measurements(list(b.selected))
        batch_fleet.advance()
        object_fleet.advance()


def test_baseline_allocations_bit_identical():
    config = CONFIGS["linear_and_privacy"]
    fleet = make_fleet(config)
    rng = np.random.default_rng(77)
    for _ in range(3):
        batch = fleet.announcements()
        reference = object_path_announcements(fleet)
        queries = PointQueryWorkload(
            HOTSPOT, n_queries=20, budget=18.0, dmax=6.0
        ).generate(fleet.clock, rng)
        a = BaselineAllocator().allocate(queries, batch)
        b = BaselineAllocator().allocate(queries, reference)
        assert a.values == b.values
        assert a.assignments == b.assignments
        assert a.payments == b.payments
        fleet.record_measurements(list(a.selected))
        fleet.advance()


def test_end_to_end_engine_parity():
    """Full SlotEngine runs: batch fleet vs object-path fleet, slot by slot."""
    config = CONFIGS["linear_and_privacy"]

    def build(cls):
        rng = np.random.default_rng(13)
        fleet = cls(RandomWaypointMobility(REGION, 50, rng), HOTSPOT, config, rng)
        workload = PointQueryWorkload(HOTSPOT, n_queries=25, budget=18.0, dmax=6.0)
        return one_shot_engine(
            fleet, workload, GreedyAllocator(), np.random.default_rng(29)
        )

    summary_batch = build(SensorFleet).run(6)
    summary_object = build(ObjectPathFleet).run(6)
    assert summary_batch.average_utility == summary_object.average_utility
    for rec_a, rec_b in zip(summary_batch.slots, summary_object.slots):
        assert rec_a.value == rec_b.value
        assert rec_a.cost == rec_b.cost
        assert rec_a.issued == rec_b.issued
        assert rec_a.answered == rec_b.answered


# ----------------------------------------------------------------------
# which announcements a slot kernel covers
# ----------------------------------------------------------------------
def stationary_fleet(lifetime: int = 50) -> SensorFleet:
    rng = np.random.default_rng(3)
    positions = [Location(float(5 + i), 20.0) for i in range(10)]
    mobility = StationaryMobility(REGION, positions)
    return SensorFleet(mobility, HOTSPOT, FleetConfig(lifetime=lifetime), rng)


def test_kernel_covers_unchanged_slots():
    fleet = stationary_fleet()
    kernel = ValuationKernel.from_sensors(fleet.announcements())
    fleet.advance()
    assert kernel.covers(fleet.announcements())


def test_kernel_does_not_cover_exhaustion_or_movement():
    fleet = stationary_fleet(lifetime=1)
    first = fleet.announcements()
    kernel = ValuationKernel.from_sensors(first)
    fleet.record_measurements([int(first.ids[0])])  # exhausts it
    fleet.advance()
    second = fleet.announcements()
    assert len(second) == len(first) - 1
    assert not kernel.covers(second)

    moving = make_fleet(FleetConfig(), seed=11, n=20)
    k = ValuationKernel.from_sensors(moving.announcements())
    moving.advance()
    assert not k.covers(moving.announcements())


def test_kernel_covers_cost_only_changes():
    """Privacy-driven price moves leave the announcement identity, and so
    the kernel's coverage, unchanged."""
    rng = np.random.default_rng(3)
    positions = [Location(float(5 + i), 20.0) for i in range(10)]
    fleet = SensorFleet(
        StationaryMobility(REGION, positions),
        HOTSPOT,
        FleetConfig(random_privacy=True, privacy_window=3, lifetime=50),
        rng,
    )
    first = fleet.announcements()
    kernel = ValuationKernel.from_sensors(first)
    fleet.record_measurements([int(first.ids[0])])  # lifetime 50: not exhausted
    fleet.advance()
    second = fleet.announcements()
    # The reporting sensor's privacy window makes its price move...
    assert second.costs[0] > first.costs[0]
    # ...while the kernel still covers the batch.
    assert kernel.covers(second)


def test_same_slot_reannouncement_prices_current_report():
    """Announcing again after a same-slot recording must price the age-0
    report exactly like the scalar history walk (weight ``w``), not skip
    it — regression for the vectorized eq.-14 weight vector."""
    rng = np.random.default_rng(3)
    positions = [Location(float(5 + i), 20.0) for i in range(8)]
    fleet = SensorFleet(
        StationaryMobility(REGION, positions),
        HOTSPOT,
        FleetConfig(random_privacy=True, privacy_window=3, lifetime=50),
        rng,
    )
    first = fleet.announcements()
    fleet.record_measurements([int(first.ids[0]), int(first.ids[1])])
    again = fleet.announcements()  # same slot, after the recording
    reference = object_path_announcements(fleet)
    for j, snap in enumerate(reference):
        assert again.costs[j] == snap.cost


def test_kernel_does_not_cover_another_announce_region():
    fleet = stationary_fleet()
    state, clock = fleet.state, fleet.clock
    whole = state.announce(clock, REGION)
    hotspot = state.announce(clock, HOTSPOT)
    assert len(whole) != len(hotspot)
    assert not ValuationKernel.from_sensors(whole).covers(hotspot)


def test_sequential_buffering_keeps_the_batch_lazy():
    """SequentialBufferedAllocation's zero-cost stage reprices the batch
    through a shared-identity cost view instead of materializing every
    snapshot; settlements stay invariant-clean."""
    from repro.core.engine import OneShotStream, SequentialBufferedAllocation

    fleet = stationary_fleet()
    batch = fleet.announcements()
    rng = np.random.default_rng(5)
    stage1 = OneShotStream(
        PointQueryWorkload(HOTSPOT, n_queries=2, budget=18.0, dmax=4.0),
        kind="aggregate",
    )
    stage2 = OneShotStream(
        PointQueryWorkload(HOTSPOT, n_queries=2, budget=18.0, dmax=4.0),
        kind="point",
    )
    for stream in (stage1, stage2):
        stream.begin_slot(0, rng, None)
    allocation = SequentialBufferedAllocation(GreedyAllocator(), GreedyAllocator())
    kernel = ValuationKernel.from_sensors(batch)
    result = allocation.run(0, [stage1, stage2], batch, kernel)
    result.verify()
    materialized = sum(s is not None for s in batch._snapshots)
    assert materialized < len(batch)  # no full per-sensor walk happened


def test_with_costs_shares_identity():
    fleet = stationary_fleet()
    batch = fleet.announcements()
    zero = batch.with_costs(np.zeros(len(batch)))
    assert zero.ids is batch.ids and zero.xy is batch.xy
    assert zero.gamma is batch.gamma and zero.trust is batch.trust
    assert zero[0].cost == 0.0 and batch[0].cost == 10.0
    kernel = ValuationKernel.from_sensors(batch)
    assert kernel.covers(zero)  # costs are excluded from identity
    with pytest.raises(ValueError):
        batch.with_costs(np.zeros(len(batch) + 1))


def test_record_measurements_validation():
    fleet = stationary_fleet(lifetime=1)
    batch = fleet.announcements()
    sid = int(batch.ids[0])
    with pytest.raises(ValueError, match="unknown sensor ids"):
        fleet.record_measurements([sid, 10**6])
    fleet.record_measurements([sid, sid, sid])  # dedupe: one reading
    assert fleet.sensor(sid).readings_taken == 1
    with pytest.raises(RuntimeError, match="exhausted"):
        fleet.record_measurements([sid])


def test_batch_is_a_lazy_snapshot_sequence():
    fleet = stationary_fleet()
    batch = fleet.announcements()
    assert len(batch) == len(list(batch))
    assert batch[0].sensor_id == int(batch.ids[0])
    assert batch[-1] == batch[len(batch) - 1]
    assert batch[1:3] == [batch[1], batch[2]]
    with pytest.raises(IndexError):
        batch[len(batch)]
    # Snapshots are cached: same object on re-access.
    assert batch[0] is batch[0]


# ----------------------------------------------------------------------
# the announcement boundary: a snapshot list converts to a batch once
# ----------------------------------------------------------------------
BOUNDARY_ALLOCATORS = {
    "greedy": GreedyAllocator,
    "baseline": BaselineAllocator,
    "optimal": OptimalPointAllocator,
    "local_search": LocalSearchPointAllocator,
}


def boundary_slot(seed: int = 19):
    fleet = make_fleet(CONFIGS["linear_and_privacy"], seed=seed)
    queries = PointQueryWorkload(
        HOTSPOT, n_queries=20, budget=18.0, dmax=6.0
    ).generate(fleet.clock, np.random.default_rng(seed))
    return fleet, queries


@pytest.mark.parametrize("name", sorted(BOUNDARY_ALLOCATORS))
def test_allocators_equal_on_batch_and_snapshot_list(name):
    fleet, queries = boundary_slot()
    batch = fleet.announcements()
    a = BOUNDARY_ALLOCATORS[name]().allocate(queries, batch)
    b = BOUNDARY_ALLOCATORS[name]().allocate(queries, list(batch))
    assert a.selected == b.selected
    assert a.assignments == b.assignments
    assert a.values == b.values
    assert a.payments == b.payments
    assert a.selected


def test_region_controller_equal_on_batch_and_snapshot_list():
    fleet, _ = boundary_slot()
    batch = fleet.announcements()
    gp = GaussianProcessField(RBFKernel(1.0, 2.0), noise=0.2)
    queries = [
        RegionMonitoringQuery(Region(10, 10, 22, 20), 0, 5, 80.0, gp),
        RegionMonitoringQuery(Region(15, 12, 30, 30), 0, 5, 60.0, gp),
    ]
    controller = RegionMonitoringController()
    children_a, plans_a = controller.create_point_queries(queries, batch, 0)
    children_b, plans_b = controller.create_point_queries(queries, list(batch), 0)
    assert plans_a == plans_b
    assert any(plan.current for plan in plans_a.values())

    def fields(children):
        return [(c.location, c.budget, c.theta_min, c.dmax, c.parent_id) for c in children]

    assert fields(children_a) == fields(children_b)
    assert controller.region_counts(queries, batch, 0) == controller.region_counts(
        queries, list(batch), 0
    )


@pytest.mark.parametrize("name", ["optimal", "local_search"])
def test_point_allocators_materialize_only_their_picks(name):
    """The matrix allocators read the batch's arrays: only the sensors a
    result selects ever become snapshot objects."""
    fleet, queries = boundary_slot()
    batch = fleet.announcements()
    result = BOUNDARY_ALLOCATORS[name]().allocate(queries, batch)
    assert result.selected
    materialized = sum(s is not None for s in batch._snapshots)
    assert materialized <= len(result.selected) < len(batch)
