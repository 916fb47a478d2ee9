"""Per-slot state: every slot's kernel, grid index and raster describe
exactly that slot's announcement.

The engine announces the fleet at the start of every slot and hands the
batch to :meth:`ValuationKernel.ensure`, which reuses the previous slot's
kernel only when the batch token says the announcement identity (ids,
positions, inaccuracy, trust) is unchanged, and builds a fresh kernel
otherwise.  The suites below pin that the reuse is never stale: a kernel
chained through ``ensure`` slot after slot carries the same arrays and
settles the same allocations as one built from scratch, across pricing
models x mobility models; spec-built engines that keep their kernel
across slots settle exactly what engines that rebuild it every slot
settle, across fleets x kernels x gain pipelines; and the lazily built
grid index and raster follow each slot's coordinates.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    DenseKernel,
    PerRowGreedyAllocator,
    compile_greedy_as,
    compile_kernel_as,
)
from repro.core import GreedyAllocator, SimulationSummary, ValuationKernel
from repro.datasets import ScenarioSpec, StreamSpec
from repro.experiments import allocation_signature
from repro.mobility import ChurnMobility, RandomWaypointMobility, StationaryMobility
from repro.queries import PointQuery, PointQueryWorkload
from repro.sensors import FleetConfig, SensorFleet, TieredTrust, UniformTrust
from repro.spatial import AreaCoverage, Location, Region, get_raster

REGION = Region.from_origin(40, 40)
HOTSPOT = Region.centered_in(REGION, 26, 26)

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
    """The announcement identity a kernel may be reused across."""
    return (
        np.asarray(batch.ids).tobytes(),
        np.asarray(batch.xy).tobytes(),
        np.asarray(batch.gamma).tobytes(),
        np.asarray(batch.trust).tobytes(),
    )


# ----------------------------------------------------------------------
# kernels chained through ensure vs kernels built from scratch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", CONFIGS, ids=list(CONFIGS))
@pytest.mark.parametrize("mobility", MOBILITIES, ids=list(MOBILITIES))
def test_chained_kernel_matches_a_fresh_kernel(name, mobility):
    """Slot after slot (measurements driving exhaustion and privacy
    repricing), the kernel ``ensure`` hands out is reused exactly when the
    announcement identity is unchanged, carries the slot's arrays, and
    settles the same allocation as a kernel built from scratch."""
    fleet = MOBILITIES[mobility](CONFIGS[name], seed=11)
    workload = PointQueryWorkload(HOTSPOT, n_queries=20, budget=18.0, dmax=6.0)
    rng = np.random.default_rng(3)
    kernel, previous = None, None
    for _ in range(8):
        batch = fleet.announcements()
        chained = ValuationKernel.ensure(kernel, batch)
        fresh = ValuationKernel.from_sensors(batch)
        reused = kernel is not None and chained is kernel
        assert reused == (previous is not None and identity(batch) == previous)
        assert chained.sensors is batch
        for attr in ("sensor_xy", "gamma", "trust"):
            np.testing.assert_array_equal(getattr(chained, attr), getattr(fresh, attr))
        np.testing.assert_array_equal(chained.sensors.ids, batch.ids)
        queries = workload.generate(fleet.clock, rng)
        a = GreedyAllocator().allocate(queries, batch, kernel=chained)
        b = GreedyAllocator().allocate(queries, batch, kernel=fresh)
        assert allocation_signature(a) == allocation_signature(b)
        fleet.record_measurements(list(a.selected))
        fleet.advance()
        kernel, previous = chained, identity(batch)


@pytest.mark.parametrize("sharded", [False, True], ids=["dense", "sharded"])
def test_ensure_rebuilds_for_a_new_batch(sharded):
    """A kernel whose grid index is warm from an earlier slot, handed a
    later slot's batch, yields a fresh kernel whose candidates follow the
    new positions."""
    fleet = churn_fleet(FleetConfig(), seed=9, n=70, fraction=0.3)
    cls = ValuationKernel if sharded else DenseKernel
    first = fleet.announcements()
    kernel = cls.ensure(None, first)
    probe = PointQuery(Location(20.0, 20.0), 10.0)
    kernel.candidate_indices(probe)  # warm the grid and its caches
    fleet.advance()
    fleet.advance()
    later = fleet.announcements()
    assert identity(later) != identity(first)
    again = cls.ensure(kernel, later)
    assert again is not kernel
    ref = cls.from_sensors(later)
    np.testing.assert_array_equal(again.sensor_xy, ref.sensor_xy)
    np.testing.assert_array_equal(again.costs, ref.costs)
    xy = np.asarray(later.xy)
    near = np.flatnonzero(np.hypot(xy[:, 0] - 20.0, xy[:, 1] - 20.0) <= probe.dmax)
    assert set(near.tolist()) <= set(again.candidate_indices(probe).tolist())


def test_raster_rows_follow_each_slot_announcement():
    """A standing coverage function evaluated slot after slot on a churning
    fleet gets each slot's own raster and rows over that slot's positions."""
    fleet = churn_fleet(FleetConfig(), seed=5, n=120, fraction=0.1)
    fn = AreaCoverage(Region(8.0, 8.0, 30.0, 26.0), sensing_range=4.0)
    rasters = []
    for _ in range(5):
        batch = fleet.announcements()
        raster = get_raster(batch, batch.xy)
        assert raster.xy is batch.xy
        assert get_raster(batch, batch.xy) is raster
        cols = np.arange(len(batch), dtype=np.intp)
        indptr, cells = raster.coverage_rows(fn, cols)
        masks = fn.masks_for(np.asarray(batch.xy))
        for i in range(len(cols)):
            np.testing.assert_array_equal(
                cells[indptr[i]:indptr[i + 1]], np.flatnonzero(masks[i])
            )
        np.testing.assert_array_equal(
            raster.contains_mask(HOTSPOT), HOTSPOT.contains_many(np.asarray(batch.xy))
        )
        assert all(raster is not earlier for earlier in rasters)
        rasters.append(raster)
        fleet.advance()


# ----------------------------------------------------------------------
# end-to-end replay: kept kernels vs per-slot rebuilds, fleets x kernels x
# pipelines
# ----------------------------------------------------------------------
STREAMS = (
    StreamSpec("point", params={"n_queries": 15, "budget": 12.0}),
    StreamSpec(
        "aggregate",
        params={"mean_queries": 4, "count_spread": 2, "min_side": 4.0},
    ),
)

FLEETS = {
    # nobody moves: exhaustion is the only change, so kernels are kept.
    "stationary": {"mobility": {"kind": "churn", "fraction": 0.0}},
    # a low-churn recorded trace.
    "trace": {"mobility": {"kind": "churn", "fraction": 0.05}},
    # everyone moves every slot.
    "waypoint": {},
}


def replay(spec: ScenarioSpec, rebuild: bool) -> tuple[list, list]:
    """Per-slot allocation signatures of a fresh engine of ``spec``, and
    per warm slot whether the engine kept the previous slot's kernel.
    With ``rebuild`` the engine drops its kernel before every slot."""
    engine = spec.build()
    summary = SimulationSummary()
    signatures, kept = [], []
    for _ in range(spec.n_slots):
        previous = engine._kernel
        if rebuild:
            engine._kernel = None
        engine.step(summary)
        signatures.append(allocation_signature(engine.last_result))
        if previous is not None:
            kept.append(engine._kernel is previous)
    return signatures, kept


@pytest.mark.parametrize("fused", [True, False], ids=["fused-auto", "fused-off"])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sharded"])
@pytest.mark.parametrize("fleet", FLEETS, ids=list(FLEETS))
def test_replay_parity(fleet, dense, fused, monkeypatch):
    spec = ScenarioSpec(
        name=f"replay-{fleet}",
        n_sensors=200,
        n_slots=4,
        seed=23,
        streams=STREAMS,
        fleet={"linear_energy": True, "random_privacy": True, "lifetime": 6},
        **FLEETS[fleet],
    )
    reference, _ = replay(spec, rebuild=True)  # production kernel and gains
    if not fused:
        compile_greedy_as(monkeypatch, PerRowGreedyAllocator)
    if dense:
        compile_kernel_as(monkeypatch, DenseKernel)
    kept_run, kept = replay(spec, rebuild=False)
    rebuilt_run, _ = replay(spec, rebuild=True)
    assert len(kept_run) == 4 and all(sig is not None for sig in kept_run)
    assert kept_run == rebuilt_run == reference
    # Nobody moves and no sensor exhausts within 4 slots: every warm slot
    # keeps its kernel.  Moving fleets never do.
    assert kept == [fleet == "stationary"] * 3
