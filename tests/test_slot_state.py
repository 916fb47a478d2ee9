"""Per-slot state: every slot builds its kernel, grid index and coverage
rows fresh from that slot's announcement, and none of it outlives the slot.

The fleet re-announces every sensor at the start of every slot
(Section 2.1), and :meth:`SlotEngine.step` builds one
:class:`ValuationKernel` from that batch.  The suites below pin that

* spec-built engines over a stationary, a low-churn trace and a
  random-waypoint fleet settle per-slot allocations ``==`` those recorded
  when the engine still carried its kernel across unchanged slots
  (``fixtures/slot_state_signatures.json``), across kernels x gain
  pipelines;
* no kernel and no :class:`WorldRaster` of a slot is alive once ``step``
  (or the service's ``tick_once``) has returned;
* an allocator honours a passed kernel exactly when it covers the
  announcements it is given (an equal snapshot list, or a
  :meth:`~repro.sensors.AnnouncementBatch.with_costs` repricing), and
  builds its own for a moved or shorter batch;
* coverage rows follow each slot's coordinates.
"""

from __future__ import annotations

import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    DenseKernel,
    PerRowGreedyAllocator,
    compile_greedy_as,
    compile_kernel_as,
)
from repro.core import BaselineAllocator, GreedyAllocator, SimulationSummary, ValuationKernel
from repro.datasets import ScenarioSpec, StreamSpec
from repro.experiments import allocation_signature
from repro.mobility import ChurnMobility, RandomWaypointMobility, StationaryMobility
from repro.queries import AggregateQueryWorkload, PointQueryWorkload
from repro.sensors import FleetConfig, SensorFleet, TieredTrust, UniformTrust
from repro.service import LoadGenerator, MarketplaceService, PoissonProfile
from repro.spatial import AreaCoverage, Location, Region, WorldRaster

REGION = Region.from_origin(40, 40)
HOTSPOT = Region.centered_in(REGION, 26, 26)
SIGNATURES = Path(__file__).parent / "fixtures" / "slot_state_signatures.json"

#: Announcement-relevant fleet configs: energy model x privacy x trust.
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


def waypoint_fleet(config: FleetConfig, seed: int = 7, n: int = 60) -> SensorFleet:
    rng = np.random.default_rng(seed)
    return SensorFleet(RandomWaypointMobility(REGION, n, rng), HOTSPOT, config, rng)


def churn_fleet(
    config: FleetConfig, seed: int = 7, n: int = 60, fraction: float = 0.1
) -> SensorFleet:
    rng = np.random.default_rng(seed)
    return SensorFleet(
        ChurnMobility(REGION, n, rng, fraction=fraction), HOTSPOT, config, rng
    )


def stationary_fleet(config: FleetConfig, seed: int = 7, n: int = 60) -> SensorFleet:
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, 40, size=(n, 2))
    positions = [Location(float(x), float(y)) for x, y in xy]
    return SensorFleet(StationaryMobility(REGION, positions), HOTSPOT, config, rng)


MOBILITIES = {"rwp": waypoint_fleet, "churn": churn_fleet, "stationary": stationary_fleet}


def identity(batch) -> tuple:
    """The announcement identity a kernel covers (prices excluded)."""
    return (
        np.asarray(batch.ids).tobytes(),
        np.asarray(batch.xy).tobytes(),
        np.asarray(batch.gamma).tobytes(),
        np.asarray(batch.trust).tobytes(),
    )


@pytest.fixture
def kernel_builds(monkeypatch):
    """The batches every ``gain_setup`` kernel build of the test covers."""
    built = []

    class Counting(ValuationKernel):
        @classmethod
        def from_sensors(cls, sensors):
            built.append(sensors)
            return super().from_sensors(sensors)

    monkeypatch.setattr("repro.core.greedy.ValuationKernel", Counting)
    return built


# ----------------------------------------------------------------------
# a passed kernel is honoured exactly when it covers the announcements
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", CONFIGS, ids=list(CONFIGS))
@pytest.mark.parametrize("mobility", MOBILITIES, ids=list(MOBILITIES))
def test_previous_slot_kernel_is_honoured_only_over_equal_announcements(
    name, mobility, kernel_builds
):
    """Slot after slot (measurements driving exhaustion and privacy
    repricing), the previous slot's kernel handed to the next slot's
    allocator is used exactly when the announcement identity is unchanged,
    and the allocation equals one over a kernel built from scratch."""
    fleet = MOBILITIES[mobility](CONFIGS[name], seed=11)
    workload = PointQueryWorkload(HOTSPOT, n_queries=20, budget=18.0, dmax=6.0)
    rng = np.random.default_rng(3)
    previous = None
    for _ in range(8):
        batch = fleet.announcements()
        queries = workload.generate(fleet.clock, rng)
        fresh = GreedyAllocator().allocate(
            queries, batch, kernel=ValuationKernel.from_sensors(batch)
        )
        if previous is not None:
            kernel_builds.clear()
            stale = GreedyAllocator().allocate(queries, batch, kernel=previous)
            covered = identity(batch) == identity(previous.sensors)
            assert previous.covers(batch) == covered
            assert len(kernel_builds) == (0 if covered else 1)
            assert allocation_signature(stale) == allocation_signature(fresh)
        previous = ValuationKernel.from_sensors(batch)
        fleet.record_measurements(list(fresh.selected))
        fleet.advance()


@pytest.mark.parametrize("allocator", [GreedyAllocator, BaselineAllocator])
def test_passed_kernel_is_honoured_exactly_when_it_covers_equal_announcements(
    allocator, kernel_builds
):
    fleet = waypoint_fleet(FleetConfig(), seed=9, n=70)
    batch = fleet.announcements()
    rng = np.random.default_rng(5)
    queries = PointQueryWorkload(HOTSPOT, n_queries=12, budget=18.0, dmax=6.0).generate(
        0, rng
    ) + AggregateQueryWorkload(HOTSPOT, mean_queries=3, count_spread=0).generate(0, rng)
    kernel = ValuationKernel.from_sensors(batch)
    snapshots = list(batch)
    moved_xy = batch.xy.copy()
    moved_xy[0, 0] += 0.5
    moved = type(batch)(
        batch.ids, moved_xy, batch.costs, batch.gamma, batch.trust, clock=batch.clock
    )
    cases = {
        "own batch": (batch, True),
        "equal snapshot list": (snapshots, True),
        "repriced": (batch.with_costs(batch.costs * 0.5), True),
        "moved": (moved, False),
        "shorter": (snapshots[:-1], False),
    }
    for case, (sensors, honoured) in cases.items():
        kernel_builds.clear()
        result = allocator().allocate(queries, sensors, kernel=kernel)
        assert len(kernel_builds) == (0 if honoured else 1), case
        reference = allocator().allocate(queries, sensors)
        assert allocation_signature(result) == allocation_signature(reference), case
        if case == "equal snapshot list":
            # The caller's snapshot objects come back, not the kernel's.
            assert all(result.selected[s.sensor_id] is s for s in snapshots
                       if s.sensor_id in result.selected)


# ----------------------------------------------------------------------
# nothing of a slot outlives it
# ----------------------------------------------------------------------
@pytest.fixture
def slot_objects(monkeypatch):
    """Weak references to every kernel and raster built during the test."""
    refs = []
    for cls in (ValuationKernel, WorldRaster):
        init = cls.__init__

        def tracked(self, *args, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", tracked)
    return refs


def alive(refs) -> list:
    return [obj for obj in (ref() for ref in refs) if obj is not None]


STREAMS = (
    StreamSpec("point", params={"n_queries": 15, "budget": 12.0}),
    StreamSpec(
        "aggregate",
        params={"mean_queries": 4, "count_spread": 2, "min_side": 4.0},
    ),
)

FLEETS = {
    # nobody moves: exhaustion is the only change between slots.
    "stationary": {"mobility": {"kind": "churn", "fraction": 0.0}},
    # a low-churn recorded trace.
    "trace": {"mobility": {"kind": "churn", "fraction": 0.05}},
    # everyone moves every slot.
    "waypoint": {},
}


def fleet_spec(fleet: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"replay-{fleet}",
        n_sensors=200,
        n_slots=4,
        seed=23,
        streams=STREAMS,
        fleet={"linear_energy": True, "random_privacy": True, "lifetime": 6},
        **FLEETS[fleet],
    )


@pytest.mark.parametrize("dense", [False, True], ids=["grid", "dense"])
@pytest.mark.parametrize("fleet", FLEETS, ids=list(FLEETS))
def test_no_slot_state_survives_step(fleet, dense, monkeypatch, slot_objects):
    if dense:
        compile_kernel_as(monkeypatch, DenseKernel)
    spec = fleet_spec(fleet)
    engine = spec.build()
    summary = SimulationSummary()
    for _ in range(spec.n_slots):
        before = len(slot_objects)
        engine.step(summary)
        assert len(slot_objects) > before
        assert alive(slot_objects) == []
    assert summary.total_queries > 0


def test_no_slot_state_survives_a_service_tick(slot_objects):
    spec = fleet_spec("trace")
    service = MarketplaceService.from_spec(spec)
    schedule = LoadGenerator(PoissonProfile(6.0), service.workloads, seed=3).schedule(
        spec.n_slots
    )
    for batch in schedule:
        for query in batch:
            service.submit(query)
        before = len(slot_objects)
        service.tick_once()
        assert len(slot_objects) > before
        assert alive(slot_objects) == []
    assert service.metrics.admitted > 0


# ----------------------------------------------------------------------
# the allocations recorded when kernels were kept across slots
# ----------------------------------------------------------------------
def canonical(signature) -> dict:
    """``allocation_signature`` in the fixture's JSON form."""
    selected, assignments, values, payments = signature
    return {
        "selected": list(selected),
        "assignments": {q: list(s) for q, s in assignments.items()},
        "values": values,
        "payments": [[q, sid, p] for (q, sid), p in payments.items()],
    }


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "per-row"])
@pytest.mark.parametrize("dense", [False, True], ids=["grid", "dense"])
@pytest.mark.parametrize("fleet", FLEETS, ids=list(FLEETS))
def test_signatures_match_the_kept_kernel_recording(fleet, dense, fused, monkeypatch):
    """Per-slot signatures ``==`` those recorded while a stationary fleet's
    engine still kept its kernel across slots."""
    recorded = json.loads(SIGNATURES.read_text())[fleet]
    if not fused:
        compile_greedy_as(monkeypatch, PerRowGreedyAllocator)
    if dense:
        compile_kernel_as(monkeypatch, DenseKernel)
    spec = fleet_spec(fleet)
    engine = spec.build()
    summary = SimulationSummary()
    signatures = []
    for _ in range(spec.n_slots):
        engine.step(summary)
        signatures.append(canonical(allocation_signature(engine.last_result)))
    assert signatures == recorded


# ----------------------------------------------------------------------
# coverage rows follow each slot's coordinates
# ----------------------------------------------------------------------
def test_raster_rows_follow_each_slot_announcement():
    """A standing coverage function evaluated slot after slot on a churning
    fleet gets rows over that slot's positions."""
    fleet = churn_fleet(FleetConfig(), seed=5, n=120, fraction=0.1)
    fn = AreaCoverage(Region(8.0, 8.0, 30.0, 26.0), sensing_range=4.0)
    for _ in range(5):
        batch = fleet.announcements()
        cols = np.arange(len(batch), dtype=np.intp)
        indptr, cells = WorldRaster(batch.xy).coverage_rows(fn, cols)
        masks = fn.masks_for(np.asarray(batch.xy))
        for i in range(len(cols)):
            np.testing.assert_array_equal(
                cells[indptr[i]:indptr[i + 1]], np.flatnonzero(masks[i])
            )
        fleet.advance()
