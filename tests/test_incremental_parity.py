"""Incremental-vs-full-rebuild parity: the differential slot state must be
bit-identical to rebuilding everything from scratch.

The contract under test (see ``repro.sensors.state.SlotDelta`` and
``ValuationKernel.ensure``'s ``delta`` argument): an announcement batch
spliced from the previous slot's batch carries unchanged rows verbatim and
recomputes only dirty ones through the *same* elementwise formulas,
patched world rasters carry containment/coverage rows for sensors that did
not move, and the spliced spatial index returns the same members per cell
— so allocations and the individual eq.-10 cost shares must match
*exactly*, not just to tolerance.  :func:`oracles.lockstep_replay` runs a
rebuilding and a patching engine side by side across fleets x kernels x
pipelines.  The last section pins which of the two paths the fleet picks
on its own: it patches while at most ``REBUILD_FRACTION`` of its rows
moved since the baseline, and rebuilds otherwise.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    DenseKernel,
    PerRowGreedyAllocator,
    compile_greedy_as,
    compile_kernel_as,
    lockstep_replay,
    patch_slot_state,
)
from repro.core import ValuationKernel, delta_old_to_new
from repro.core.metrics import SimulationSummary
from repro.datasets import ScenarioSpec, StreamSpec
from repro.experiments import allocation_signature
from repro.mobility import ChurnMobility, RandomWaypointMobility, StationaryMobility
from repro.queries import PointQuery
from repro.sensors import FleetConfig, SensorFleet, SlotDelta, TieredTrust
from repro.sensors.state import REBUILD_FRACTION
from repro.spatial import Location, Region, UniformGridIndex, WorldRaster

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"
REGION = Region.from_origin(40, 40)
HOTSPOT = Region.centered_in(REGION, 26, 26)

#: Announcement-relevant fleet configs: every pricing model the delta's
#: repriced-set derivation has to reason about.
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


def assert_batches_identical(spliced, fresh):
    """Bit-exact equality of every announced array (and the token)."""
    np.testing.assert_array_equal(spliced.ids, fresh.ids)
    np.testing.assert_array_equal(spliced.xy, fresh.xy)
    np.testing.assert_array_equal(spliced.costs, fresh.costs)
    np.testing.assert_array_equal(spliced.gamma, fresh.gamma)
    np.testing.assert_array_equal(spliced.trust, fresh.trust)
    assert spliced.token == fresh.token


# ----------------------------------------------------------------------
# layer 1: the spliced announcement batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", CONFIGS, ids=list(CONFIGS))
@pytest.mark.parametrize("make", [waypoint_fleet, churn_fleet], ids=["rwp", "churn"])
def test_announce_update_matches_fresh_announce(name, make, monkeypatch):
    """Chained deltas across slots (with measurements driving exhaustion
    and privacy repricing) must reproduce the full announce exactly —
    including on waypoint fleets, where everyone moves and only the
    always-patch setting keeps the delta path on."""
    patch_slot_state(monkeypatch)
    config = CONFIGS[name]
    inc, ref = make(config, seed=11), make(config, seed=11)
    rng = np.random.default_rng(3)
    for t in range(8):
        spliced, delta = inc.announcements_with_delta()
        fresh = ref.announcements()
        # Distinct fleets never share the uid part of the token; versions
        # and region must still agree.
        np.testing.assert_array_equal(spliced.ids, fresh.ids)
        np.testing.assert_array_equal(spliced.xy, fresh.xy)
        np.testing.assert_array_equal(spliced.costs, fresh.costs)
        np.testing.assert_array_equal(spliced.gamma, fresh.gamma)
        np.testing.assert_array_equal(spliced.trust, fresh.trust)
        assert spliced.token[2:] == fresh.token[2:]
        if t > 0:
            assert isinstance(delta, SlotDelta)
        if len(fresh.ids):
            k = max(1, len(fresh.ids) // 3)
            picked = rng.choice(np.asarray(fresh.ids), size=k, replace=False)
            inc.record_measurements(list(picked))
            ref.record_measurements(list(picked))
        inc.advance()
        ref.advance()


def test_delta_bookkeeping_is_consistent():
    """kept_src maps the new columns onto the old ones; fresh_cols holds
    exactly the columns whose geometry cannot be spliced."""
    fleet = churn_fleet(FleetConfig(), seed=5, n=80, fraction=0.2)
    prev, _ = fleet.announcements_with_delta()
    fleet.advance()
    batch, delta = fleet.announcements_with_delta()
    assert isinstance(delta, SlotDelta)
    assert delta.prev_token == prev.token
    kept = delta.kept_src
    assert len(kept) == len(batch.ids)
    valid = kept >= 0
    # Every kept column maps to the previous column with the same id.
    np.testing.assert_array_equal(
        np.asarray(batch.ids)[valid], np.asarray(prev.ids)[kept[valid]]
    )
    # The previous columns no new column re-uses are exactly the dropped ids.
    dropped = set(prev.ids) - set(batch.ids)
    assert set(prev.ids) - set(np.asarray(prev.ids)[kept[valid]]) == dropped
    # fresh = new announcers or moved survivors; every other column keeps
    # its previous coordinates.
    fresh = np.zeros(len(kept), dtype=bool)
    fresh[delta.fresh_cols] = True
    assert not np.any(~valid & ~fresh)
    spliced = valid & ~fresh
    np.testing.assert_array_equal(
        np.asarray(batch.xy)[spliced], np.asarray(prev.xy)[kept[spliced]]
    )
    assert len(delta.fresh_cols) <= len(kept)


# ----------------------------------------------------------------------
# layer 2: spliced spatial index and patched raster
# ----------------------------------------------------------------------
def test_grid_index_updated_matches_fresh_build():
    """A spliced index keeps the *frozen* geometry (a fresh build re-derives
    its extent from the new points, so cell ids differ); parity is at the
    query level — every box query returns a superset of the exact matches,
    and the index stays self-consistent: each bucket holds exactly the
    points whose coordinates map to that cell, in ascending order."""
    rng = np.random.default_rng(0)
    xy = rng.uniform(0, 40, size=(400, 2))
    index = UniformGridIndex(xy, 2.5)
    for step in range(6):
        new_xy = xy.copy()
        movers = rng.choice(len(xy), size=12, replace=False)
        new_xy[movers] = rng.uniform(0, 40, size=(12, 2))
        old_to_new = np.arange(len(xy), dtype=np.int64)
        patched = index.updated(new_xy, old_to_new, movers.astype(np.intp))
        assert patched is not None
        assert patched.n_points == len(new_xy)
        # Self-consistency: buckets partition the points by the patched
        # index's own cell function, ascending within each bucket.
        total = 0
        for cell, members in patched.shards():
            assert np.all(np.diff(members) > 0)
            for i in members:
                assert patched.cell_of(new_xy[i, 0], new_xy[i, 1]) == cell
            total += len(members)
        assert total == len(new_xy)
        # Query parity vs brute force, for both the patched and a fresh
        # index: candidates are supersets of the exact box membership.
        for _ in range(8):
            x0, y0 = rng.uniform(0, 35, size=2)
            x1, y1 = x0 + rng.uniform(1, 8), y0 + rng.uniform(1, 8)
            exact = set(
                np.flatnonzero(
                    (new_xy[:, 0] >= x0) & (new_xy[:, 0] <= x1)
                    & (new_xy[:, 1] >= y0) & (new_xy[:, 1] <= y1)
                )
            )
            assert exact <= set(patched.indices_in_box(x0, x1, y0, y1))
        xy, index = new_xy, patched


def test_grid_index_updated_refuses_escapes_and_heavy_churn():
    rng = np.random.default_rng(1)
    xy = rng.uniform(0, 40, size=(100, 2))
    index = UniformGridIndex(xy, 4.0)
    escaped = xy.copy()
    escaped[3] = (999.0, 999.0)  # outside the frozen extent
    assert index.updated(escaped, np.arange(100), np.array([3])) is None
    # Churn above the threshold: a full rebuild is cheaper than splicing.
    heavy = rng.uniform(0, 40, size=(100, 2))
    assert index.updated(heavy, np.arange(100), np.arange(100)) is None


def test_raster_patch_matches_fresh_raster():
    rng = np.random.default_rng(2)
    xy = rng.uniform(0, 40, size=(300, 2))
    raster = WorldRaster(xy)
    regions = [
        Region(5, 5, 15, 20),
        Region(0, 0, 40, 40),
        Region(30, 2, 39, 9),
    ]
    for region in regions:  # warm the caches the patch must carry
        raster.exterior_distance_sq(region)
        raster.contains_mask(region)
    for step in range(4):
        new_xy = xy.copy()
        movers = rng.choice(len(xy), size=10, replace=False)
        new_xy[movers] = rng.uniform(0, 40, size=(10, 2))
        patched = raster.patched(
            new_xy, np.arange(len(xy), dtype=np.int64), movers
        )
        fresh = WorldRaster(new_xy)
        for region in regions:
            np.testing.assert_array_equal(
                patched.exterior_distance_sq(region),
                fresh.exterior_distance_sq(region),
            )
            np.testing.assert_array_equal(
                patched.contains_mask(region), fresh.contains_mask(region)
            )
        xy, raster = new_xy, patched


# ----------------------------------------------------------------------
# layer 3: kernels patched through ensure's delta
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sharded", [False, True], ids=["dense", "sharded"])
def test_ensure_delta_falls_back_without_a_chain(sharded):
    """A delta that does not chain from the held kernel's batch (or no
    delta at all) must still yield a correct kernel via full rebuild."""
    fleet = churn_fleet(FleetConfig(), seed=9, n=70)
    batch, _ = fleet.announcements_with_delta()
    cls = ValuationKernel if sharded else DenseKernel
    kernel = cls.ensure(None, batch, None)
    if sharded:
        kernel.candidate_indices(PointQuery(Location(0, 0), 10.0))  # warm the grid
    assert kernel is not None
    fleet.advance()
    fleet.advance()  # skip a slot: the delta chains from the *previous*
    stale_prev, stale_delta = fleet.announcements_with_delta()
    # Forge a break: hand the old kernel a delta chained elsewhere.
    again = cls.ensure(kernel, stale_prev, stale_delta)
    ref = cls.from_sensors(stale_prev)
    np.testing.assert_array_equal(again.sensor_xy, ref.sensor_xy)
    np.testing.assert_array_equal(again.costs, ref.costs)


def test_delta_old_to_new_roundtrip():
    delta = SlotDelta(
        prev_token=("p",),
        kept_src=np.array([0, -1, 3]),
        fresh_cols=np.array([1]),
    )
    old_to_new = delta_old_to_new(delta, 4)
    np.testing.assert_array_equal(old_to_new, [0, -1, -1, 2])


# ----------------------------------------------------------------------
# layer 4: end-to-end lockstep replay, fleets x kernels x pipelines
# ----------------------------------------------------------------------
STREAMS = (
    StreamSpec("point", params={"n_queries": 15, "budget": 12.0}),
    StreamSpec(
        "aggregate",
        params={"mean_queries": 4, "count_spread": 2, "min_side": 4.0},
    ),
)

FLEETS = {
    # ~stationary: nobody moves, exhaustion is the only churn.
    "stationary": {"mobility": {"kind": "churn", "fraction": 0.0}},
    # low-churn recorded trace: the patched path's home regime.
    "trace": {"mobility": {"kind": "churn", "fraction": 0.05}},
    # everyone moves every slot: worst case, still must agree.
    "waypoint": {},
}


@pytest.mark.parametrize("fused", [True, False], ids=["fused-auto", "fused-off"])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sharded"])
@pytest.mark.parametrize("fleet", FLEETS, ids=list(FLEETS))
def test_replay_parity(fleet, dense, fused, monkeypatch):
    if not fused:
        compile_greedy_as(monkeypatch, PerRowGreedyAllocator)
    if dense:
        compile_kernel_as(monkeypatch, DenseKernel)
    patch_slot_state(monkeypatch)
    spec = ScenarioSpec(
        name=f"replay-{fleet}",
        n_sensors=200,
        n_slots=4,
        seed=23,
        streams=STREAMS,
        fleet={"linear_energy": True, "random_privacy": True, "lifetime": 6},
        **FLEETS[fleet],
    )
    slots = lockstep_replay(spec)
    assert len(slots) == 4
    for t, (rebuilt, patched, delta) in enumerate(slots):
        assert rebuilt == patched, t
        # Always-patch: every warm slot took the delta path.
        assert (delta is None) == (t == 0)
        assert delta is None or len(delta.fresh_cols) <= len(delta.kept_src)


def test_allocation_signature_canonicalizes_query_ids():
    """Two engines label identical queries differently (process-global id
    counter); the signature must equate them by generation order."""
    from repro.core import AllocationResult

    a = AllocationResult(
        selected={},
        assignments={"q10": (1, 2), "q11": (3,)},
        values={"q10": 1.5, "q11": 0.25},
        payments={("q10", 1): 0.75, ("q10", 2): 0.75, ("q11", 3): 0.25},
    )
    b = AllocationResult(
        selected={},
        assignments={"q57": (1, 2), "q58": (3,)},
        values={"q57": 1.5, "q58": 0.25},
        payments={("q57", 1): 0.75, ("q57", 2): 0.75, ("q58", 3): 0.25},
    )
    assert allocation_signature(a) == allocation_signature(b)
    c = AllocationResult(
        selected={},
        assignments={"q57": (1, 2), "q58": (3,)},
        values={"q57": 1.5, "q58": 0.2500000001},
        payments={("q57", 1): 0.75, ("q57", 2): 0.75, ("q58", 3): 0.25},
    )
    assert allocation_signature(a) != allocation_signature(c)


# ----------------------------------------------------------------------
# the fleet's own choice: patch while few rows moved, rebuild otherwise
# ----------------------------------------------------------------------
def slot_deltas(spec: ScenarioSpec) -> list:
    """The engine's per-slot delta over a run of ``spec``."""
    engine = spec.build()
    summary = SimulationSummary()
    deltas = []
    for _ in range(spec.n_slots):
        engine.step(summary)
        deltas.append(engine.last_delta)
    return deltas


@pytest.mark.parametrize("spec_name", ["trust_churn", "region_storm"])
def test_waypoint_fleets_rebuild_every_slot(spec_name, monkeypatch):
    """Random-waypoint fleets move nearly every sensor every slot: the
    fleet hands out no delta, and no raster is ever patched."""
    patched = []
    original = WorldRaster.patched

    def spy(self, *args, **kwargs):
        patched.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(WorldRaster, "patched", spy)
    spec = ScenarioSpec.from_json(SPEC_DIR / f"{spec_name}.json")
    assert spec.dataset == "rwm" and spec.mobility is None
    small = dataclasses.replace(spec, n_sensors=300, n_slots=4)
    assert slot_deltas(small) == [None] * 4
    assert not patched
    # The churn side (every warm slot of stationary_churn gets a delta) is
    # pinned by test_example_specs.py's stationary-churn test.


def test_a_quarter_of_the_rows_moved_is_the_patch_limit():
    """Exactly ``n/4`` moved rows still patch; ``n/4 + 1`` rebuild, and the
    rebuilt batch becomes the next slot's baseline."""
    assert REBUILD_FRACTION == 0.25
    n = 40
    positions = [Location(float(4 + i % 8), float(4 + i // 8)) for i in range(n)]
    fleet = SensorFleet(
        StationaryMobility(REGION, positions), REGION, FleetConfig(),
        np.random.default_rng(0),
    )
    xy = fleet.mobility.locations_xy().copy()
    fleet.mobility.locations_xy = lambda: xy
    assert fleet.announcements_with_delta()[1] is None  # no baseline yet

    xy = xy.copy()
    xy[: n // 4, 0] += 0.5
    batch, delta = fleet.announcements_with_delta()
    assert isinstance(delta, SlotDelta)
    np.testing.assert_array_equal(delta.kept_src, np.arange(n))
    np.testing.assert_array_equal(delta.fresh_cols, np.arange(n // 4))

    xy = xy.copy()
    xy[: n // 4 + 1, 1] += 0.5
    rebuilt, delta = fleet.announcements_with_delta()
    assert delta is None
    np.testing.assert_array_equal(rebuilt.xy, xy)

    _, delta = fleet.announcements_with_delta()
    assert isinstance(delta, SlotDelta)
    assert delta.prev_token == rebuilt.token
    assert len(delta.fresh_cols) == 0
