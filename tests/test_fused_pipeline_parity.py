"""Fused slot pipeline parity: type-blocked gain blocks and the shared
world coverage raster vs the per-row masked path.

The contract under test (see ``repro.queries.base`` and
``repro.spatial.raster``):

* ``GreedyAllocator()`` allocations — assignments, values,
  payments — compare ``==`` against the per-row ``gain_many`` oracle
  (:class:`oracles.PerRowGreedyAllocator`) and the dense gain-matrix
  loop (:class:`oracles.DenseGreedyAllocator`) for every built-in query
  type, dense and sharded: each ``gain_many_block`` implementation
  performs the exact per-pair arithmetic of its per-row closed form
  (:func:`oracles.row_gains`);
* ``WorldRaster.coverage_rows`` reproduces the dense
  ``masks_for`` membership row-for-row (the per-column run builder
  decides every emitted and skipped cell with the identical membership
  test), down to ulp-grazing sensors;
* each built-in query type builds its native block through
  ``Query.gain_block``, and a query type that redefines ``value`` is
  evaluated through the generic ``GainBlock`` over its own ``value``;
* the aggregate block's uncovered-cell counts, decremented by its own
  commits, stay ``==`` to the per-member oracle ``CoverageRows.gain_many``
  over the scalar oracle states given the same commits, and read far
  fewer covered cells than re-gathering every evaluated pair's row
  would.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gridded_kernel, make_snapshot, member_block, relevance_row
from oracles import (
    DenseGreedyAllocator,
    DenseKernel,
    PerRowGreedyAllocator,
    ScalarGreedyAllocator,
    new_state,
    row_gains,
)
from repro.core import GreedyAllocator, ValuationKernel
from repro.core.engine import SimulationSummary
from repro.core.monitoring import RegionMonitoringController
from repro.datasets import ScenarioSpec
from repro.queries import (
    AggregateQueryWorkload,
    EventSlotQuery,
    GainBlock,
    MultiSensorPointQuery,
    PointQuery,
    SensorRoster,
    SpatialAggregateQuery,
    TrajectoryQuery,
    TrajectoryQueryWorkload,
)
from repro.queries.aggregate import _CoverageBlock
from repro.sensors import AnnouncementBatch
from repro.spatial import (
    AreaCoverage,
    Location,
    Region,
    Trajectory,
    TrajectoryCoverage,
    WorldRaster,
    get_raster,
)

SIDE = 60.0


def random_sensors(rng, n=120, side=SIDE):
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


def make_batch(rng, n=120, side=SIDE):
    return AnnouncementBatch(
        ids=np.arange(n, dtype=np.intp),
        xy=rng.uniform(0, side, size=(n, 2)),
        costs=rng.uniform(1, 10, size=n),
        gamma=rng.uniform(0, 0.3, size=n),
        trust=rng.uniform(0.4, 1.0, size=n),
        token=("fused-parity", int(rng.integers(1 << 30))),
        clock=0,
    )


def region_heavy_queries(rng, side=SIDE):
    """Overlapping aggregate + trajectory queries, the fused block's
    target workload."""
    region = Region.from_origin(side, side)
    agg = AggregateQueryWorkload(
        region, budget_factor=6.0, mean_queries=8, count_spread=2,
        sensing_range=9.0, coverage_radius=4.0, min_side=12.0, max_side=26.0,
    )
    traj = TrajectoryQueryWorkload(
        region, budget_factor=6.0, queries_per_slot=3, sensing_range=8.0
    )
    return agg.generate(0, rng) + traj.generate(0, rng)


def every_type_queries(rng, copies=3, side=SIDE):
    """Several queries of every built-in type, so each fused block carries
    multiple members."""
    region = Region.from_origin(side, side)
    queries = []
    for _ in range(copies):
        sub = Region.random_subregion(region, rng, min_side=8, max_side=20)
        trajectory = Trajectory.random(region, rng)
        p = (float(rng.uniform(5, side - 5)), float(rng.uniform(5, side - 5)))
        queries += [
            PointQuery(Location(*p), budget=15.0, dmax=9.0),
            MultiSensorPointQuery(
                Location(p[0] + 2.0, p[1] - 2.0), budget=25.0,
                n_readings=3, dmax=10.0,
            ),
            SpatialAggregateQuery(
                sub, budget=40.0, sensing_range=7.0, coverage_radius=3.5
            ),
            TrajectoryQuery(trajectory, budget=35.0, sensing_range=6.0),
            EventSlotQuery(
                Location(p[0] - 3.0, p[1] + 3.0), budget=20.0,
                required_confidence=0.9, theta_min=0.1, dmax=8.0,
                parent_id="ev-parent",
            ),
        ]
    return queries


def assert_allocations_identical(a, b):
    """Exact (bitwise) equality of two allocation results."""
    assert a.assignments == b.assignments
    assert set(a.selected) == set(b.selected)
    assert a.values == b.values
    assert a.payments == b.payments


# ----------------------------------------------------------------------
# fused vs per-row allocations: every type, dense and sharded
# ----------------------------------------------------------------------
class TestFusedAllocationParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_region_heavy_fused_equals_masked_dense_and_sharded(self, seed):
        rng = np.random.default_rng(1000 + seed)
        queries = region_heavy_queries(rng)
        sensors = random_sensors(rng)
        masked = PerRowGreedyAllocator().allocate(
            queries, sensors, kernel=DenseKernel.from_sensors(sensors)
        )
        fused = GreedyAllocator().allocate(
            queries, sensors, kernel=DenseKernel.from_sensors(sensors)
        )
        sharded = GreedyAllocator().allocate(
            queries, sensors, kernel=gridded_kernel(sensors, 8.0)
        )
        dense = DenseGreedyAllocator().allocate(
            queries, sensors, kernel=gridded_kernel(sensors, 8.0)
        )
        assert_allocations_identical(fused, masked)
        assert_allocations_identical(sharded, masked)
        assert_allocations_identical(dense, masked)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_builtin_type_fused_equals_masked(self, seed):
        rng = np.random.default_rng(2000 + seed)
        queries = every_type_queries(rng)
        sensors = random_sensors(rng)
        masked = PerRowGreedyAllocator().allocate(
            queries, sensors, kernel=DenseKernel.from_sensors(sensors)
        )
        fused = GreedyAllocator().allocate(
            queries, sensors, kernel=DenseKernel.from_sensors(sensors)
        )
        sharded = GreedyAllocator().allocate(
            queries, sensors, kernel=gridded_kernel(sensors, 9.0)
        )
        dense = DenseGreedyAllocator().allocate(
            queries, sensors, kernel=gridded_kernel(sensors, 9.0)
        )
        assert_allocations_identical(fused, masked)
        assert_allocations_identical(sharded, masked)
        assert_allocations_identical(dense, masked)

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_announcements_share_the_raster_and_stay_identical(self, seed):
        rng = np.random.default_rng(3000 + seed)
        queries = region_heavy_queries(rng)
        batch = make_batch(rng)
        masked = PerRowGreedyAllocator().allocate(
            queries, batch, kernel=ValuationKernel.from_sensors(batch)
        )
        kernel = ValuationKernel.from_sensors(batch)
        fused = GreedyAllocator().allocate(queries, batch, kernel=kernel)
        assert_allocations_identical(fused, masked)
        # The raster the kernel used is the batch-attached instance.
        assert kernel.raster is get_raster(batch, batch.xy)

    def test_greedy_has_no_path_knobs(self):
        """The fused pipeline is the only production path: the allocator
        takes no switch that would select another one."""
        params = list(inspect.signature(GreedyAllocator).parameters)
        assert params == ["min_gain"]
        with pytest.raises(TypeError):
            GreedyAllocator(fused=False)


# ----------------------------------------------------------------------
# world raster: CSR coverage rows vs dense masks, containment caches
# ----------------------------------------------------------------------
def assert_rows_match_masks(fn, xy, cols, indptr, cells):
    masks = fn.masks_for(xy[cols])
    for i in range(len(cols)):
        assert np.array_equal(cells[indptr[i]:indptr[i + 1]], np.flatnonzero(masks[i])), i


#: Integer offsets at distance exactly 5 (3-4-5 and axis-aligned).
PYTHAGOREAN = [(3, 4), (4, 3), (-3, 4), (4, -3), (-4, -3), (0, 5), (-5, 0)]


@st.composite
def adversarial_sensor(draw, region, cell, r):
    nx = max(1, int(round(region.width / cell)))
    ny = max(1, int(round(region.height / cell)))
    cx = region.x_min + (draw(st.integers(0, nx - 1)) + 0.5) * cell
    cy = region.y_min + (draw(st.integers(0, ny - 1)) + 0.5) * cell
    kind = draw(st.sampled_from(["pythagorean", "ulp", "uniform", "far"]))
    if kind == "pythagorean":
        dx, dy = draw(st.sampled_from(PYTHAGOREAN))
        scale = r / 5.0
        return cx + dx * scale, cy + dy * scale
    if kind == "ulp":
        reach = np.nextafter(r, draw(st.sampled_from([0.0, np.inf])))
        reach *= draw(st.sampled_from([-1.0, 1.0]))
        return (cx + reach, cy) if draw(st.booleans()) else (cx, cy + reach)
    if kind == "uniform":
        pad = r + cell
        return (
            draw(st.floats(region.x_min - pad, region.x_max + pad)),
            draw(st.floats(region.y_min - pad, region.y_max + pad)),
        )
    away = draw(st.sampled_from([-1e4, 1e4, 1e7]))
    return cx + away, cy + draw(st.sampled_from([0.0, away]))


@st.composite
def adversarial_raster_case(draw):
    cell = draw(st.sampled_from([1.0, 0.3, 0.7]))
    x0 = draw(st.sampled_from([0.0, 1e6 - 2.25, 999_999.7])) + draw(st.floats(-1, 1))
    y0 = draw(st.sampled_from([0.0, 1e6 + 0.35])) + draw(st.floats(-1, 1))
    one_wide = st.floats(0.2 * cell, 1.4 * cell)  # rounds to one cell
    width = draw(st.one_of(one_wide, st.floats(0.5, 9.7)))
    height = draw(st.one_of(one_wide, st.floats(0.5, 9.7)))
    region = Region(x0, y0, x0 + width, y0 + height)
    r = draw(st.sampled_from([5.0, 2.5, 1.3]))
    fn = AreaCoverage(region, r, cell_size=cell)
    n = draw(st.integers(1, 12))
    sensor = adversarial_sensor(region, cell, r)
    xy = np.array([draw(sensor) for _ in range(n)])
    return fn, xy


class TestWorldRasterRows:
    @pytest.mark.parametrize("seed", range(5))
    def test_coverage_rows_match_dense_masks(self, seed):
        rng = np.random.default_rng(4000 + seed)
        xy = rng.uniform(-5, SIDE + 5, size=(80, 2))  # includes out-of-region
        raster = WorldRaster(xy)
        region = Region.random_subregion(
            Region.from_origin(SIDE, SIDE), rng, min_side=8, max_side=24
        )
        trajectory = Trajectory.random(Region.from_origin(SIDE, SIDE), rng)
        functions = [
            AreaCoverage(region, sensing_range=5.0),
            TrajectoryCoverage(trajectory, sensing_range=4.0, spacing=1.5),
        ]
        cols = np.sort(rng.choice(len(xy), size=50, replace=False))
        for fn in functions:
            indptr, cells = raster.coverage_rows(fn, cols)
            assert_rows_match_masks(fn, xy, cols, indptr, cells)
            # Cached and read-only.
            again = raster.coverage_rows(fn, cols)
            assert again[0] is indptr and again[1] is cells
            assert not indptr.flags.writeable and not cells.flags.writeable

    def test_subclassed_coverage_uses_the_dense_fallback(self):
        """The grid fast path trusts exact types only; a subclass that
        re-rasterizes arbitrarily still gets correct rows."""

        class SparseCoverage(AreaCoverage):
            def masks_for(self, locations):
                masks = super().masks_for(locations)
                masks[:, ::2] = False  # drop every even cell
                return masks

        rng = np.random.default_rng(77)
        xy = rng.uniform(0, 30, size=(40, 2))
        raster = WorldRaster(xy)
        fn = SparseCoverage(Region.from_origin(30, 30), sensing_range=6.0)
        cols = np.arange(40)
        indptr, cells = raster.coverage_rows(fn, cols)
        assert_rows_match_masks(fn, xy, cols, indptr, cells)
        assert cells.size and np.all(cells % 2 == 1)

    def test_moved_middle_cell_takes_the_dense_fallback(self):
        """The run builder reads the layout as separable columns x rows, so
        a grid whose first and last centres are intact but whose middle is
        not is refused as a whole and still gets exact rows."""
        rng = np.random.default_rng(78)
        xy = rng.uniform(-2, 22, size=(40, 2))
        fn = AreaCoverage(Region(0.0, 0.0, 20.0, 20.0), sensing_range=4.0)
        fn._cells = fn._cells.copy()
        fn._cells[len(fn._cells) // 2] += (0.25, -0.5)
        raster = WorldRaster(xy)
        assert raster._layout(fn) is None
        cols = np.arange(len(xy))
        indptr, cells = raster.coverage_rows(fn, cols)
        assert raster.candidates_built == len(cols) * fn.n_cells
        assert_rows_match_masks(fn, xy, cols, indptr, cells)

    @settings(max_examples=150, deadline=None)
    @given(case=adversarial_raster_case())
    def test_exact_types_match_dense_masks(self, case):
        """Boundary-grazing sensors (exact Pythagorean offsets, one ulp
        inside and outside the range), origins near 1e6, fractional cell
        sizes on non-round sides, one-wide grids and far-away sensors: the
        per-column runs equal the dense masks row for row."""
        fn, xy = case
        raster = WorldRaster(xy)
        assert raster._layout(fn) is not None
        cols = np.arange(len(xy))
        indptr, cells = raster.coverage_rows(fn, cols)
        assert_rows_match_masks(fn, xy, cols, indptr, cells)
        assert raster.rows_built == len(cols)

    def test_containment_caches_and_sharing(self):
        rng = np.random.default_rng(88)
        batch = make_batch(rng, n=60)
        region = Region(10, 10, 40, 35)
        kernel = ValuationKernel.from_sensors(batch)
        raster = kernel.raster
        # One instance per announcement batch, shared with every other
        # kernel and the monitoring controllers.
        assert raster is get_raster(batch, batch.xy)
        assert gridded_kernel(batch, 10.0).raster is raster
        contains = raster.contains_mask(region)
        assert raster.contains_mask(region) is contains
        assert np.array_equal(contains, region.contains_many(batch.xy))
        assert not contains.flags.writeable

    def test_region_controller_counts_unchanged(self):
        """`region_counts` through the raster equals the per-query
        relevant_mask scan it replaced."""
        from repro.datasets import build_intel_scenario
        from repro.queries import RegionMonitoringQuery

        rng = np.random.default_rng(99)
        sensors = random_sensors(rng, n=50, side=40.0)
        world = build_intel_scenario(9, n_sensors=10, n_slots=5)
        queries = [
            RegionMonitoringQuery(
                region=Region.random_subregion(
                    Region.from_origin(40.0, 40.0), rng, min_side=8, max_side=20
                ),
                t1=0, t2=9, budget=30.0, gp=world.gp,
            )
            for _ in range(4)
        ]
        controller = RegionMonitoringController()
        counts = controller.region_counts(queries, sensors, t=0)
        xy = np.asarray([(s.location.x, s.location.y) for s in sensors])
        expected = np.zeros(len(sensors), dtype=np.int64)
        for q in queries:
            expected += q.relevant_mask(xy)
        assert counts == {
            s.sensor_id: int(k) for s, k in zip(sensors, expected)
        }


# ----------------------------------------------------------------------
# the block protocol: native blocks, and the generic block on request
# ----------------------------------------------------------------------
class TestBlockProtocol:
    def test_builtin_queries_build_their_native_blocks(self):
        from repro.queries.event import _EventBlock
        from repro.queries.point import _BestSensorBlock, _TopKBlock

        rng = np.random.default_rng(4)
        roster = SensorRoster(random_sensors(rng, n=10, side=20.0))
        natives = {
            PointQuery: _BestSensorBlock,
            MultiSensorPointQuery: _TopKBlock,
            SpatialAggregateQuery: _CoverageBlock,
            TrajectoryQuery: _CoverageBlock,
            EventSlotQuery: _EventBlock,
        }
        for query in every_type_queries(rng, copies=1, side=20.0):
            cls = type(query)
            assert type(member_block(query, roster)) is natives[cls], cls.__name__

    @pytest.mark.parametrize("seed", range(3))
    def test_generic_block_is_honoured_end_to_end(self, seed):
        """An aggregate type that redefines ``value`` is evaluated through
        the generic ``GainBlock`` over its own ``value`` and allocates like
        the scalar oracle on the generic state."""
        calls = []

        class ScalarTracingAggregate(SpatialAggregateQuery):
            def value(self, snapshots):
                calls.append(len(snapshots))
                return super().value(snapshots)

        rng = np.random.default_rng(7000 + seed)
        sensors = random_sensors(rng, n=60, side=40.0)
        world = Region.from_origin(40.0, 40.0)
        sub = Region.random_subregion(world, rng, min_side=10, max_side=20)
        traced = [
            ScalarTracingAggregate(
                sub, budget=45.0, sensing_range=7.0, coverage_radius=3.5,
                query_id=f"trace-{i}",
            )
            for i in range(3)
        ]
        roster = SensorRoster(sensors)
        assert type(member_block(traced, roster)) is GainBlock
        fused = GreedyAllocator().allocate(traced, sensors)
        assert calls, "the generic block never called the query's value"
        reference = ScalarGreedyAllocator().allocate(traced, sensors)
        assert_allocations_identical(fused, reference)
        assert fused.selected


# ----------------------------------------------------------------------
# _CoverageBlock: live uncovered-cell counts vs per-member gains
# ----------------------------------------------------------------------
def coverage_block_slot(rng, n, side=30.0):
    """Sensors and aggregate/trajectory queries covering the block's corner
    cases: two members share one coverage object, one member has no
    relevant columns, and a relevant sensor covers no cell (empty row)."""
    world = Region.from_origin(side, side)
    sub = Region.random_subregion(world, rng, min_side=4, max_side=14)
    other = Region.random_subregion(world, rng, min_side=4, max_side=14)
    radius = float(rng.uniform(1.0, 4.0))
    reach = radius + float(rng.uniform(1.0, 4.0))
    shared = AreaCoverage(sub, radius)
    queries = [
        SpatialAggregateQuery(sub, budget=30.0, sensing_range=reach, coverage=shared),
        SpatialAggregateQuery(sub, budget=25.0, sensing_range=reach + 1.0, coverage=shared),
        SpatialAggregateQuery(
            other, budget=35.0, sensing_range=reach, coverage_radius=radius
        ),
        TrajectoryQuery(
            Trajectory.random(world, rng), budget=20.0,
            sensing_range=float(rng.uniform(1.0, 4.0)),
            spacing=float(rng.uniform(0.5, 2.0)),
        ),
        SpatialAggregateQuery(
            Region(10 * side, 10 * side, 11 * side, 11 * side),
            budget=10.0, sensing_range=2.0,
        ),
    ]
    sensors = random_sensors(rng, n=n, side=side)
    # Within the first query's reach of its region, but no cell centre lies
    # within ``radius`` of it: a relevant column with an empty row.
    mid_y = 0.5 * (sub.y_min + sub.y_max)
    sensors.append(make_snapshot(n, x=sub.x_max + 0.5 * (radius + reach), y=mid_y))
    return queries, sensors


def kernel_or_plain_roster(sensors, on_kernel):
    """The slot raster's CSR rows on a kernel roster; a roster-local raster
    on a plain one."""
    if on_kernel:
        return ValuationKernel.from_sensors(sensors).roster(
            np.arange(len(sensors)), sensors
        )
    return SensorRoster(sensors)


def assert_block_tracks_commits(rng, queries, roster, before_first, per_call):
    """Commit the roster's sensors in a random order, to the fused block and
    to the scalar oracle states, and check, every ``per_call`` commits after
    the first ``before_first``, that the block's gains over all live
    relevant pairs are ``==`` the per-member oracle ``gain_many``.  Every
    commit must realize the oracle state's gain and value exactly.  Returns
    the relevance rows."""
    states = [new_state(q) for q in queries]
    rows = [row_gains(state, roster) for state in states]
    relevant = [relevance_row(q, roster) for q in queries]
    block = member_block(queries, roster)
    assert type(block) is _CoverageBlock
    alive = np.ones(roster.n_sensors, dtype=bool)

    def check():
        cols = [np.flatnonzero(rel & alive) for rel in relevant]
        member_idx = np.repeat(np.arange(len(cols)), [len(c) for c in cols])
        got = block.gain_many_block(member_idx, np.concatenate(cols))
        expected = np.concatenate(
            [row.gain_many(c) for row, c in zip(rows, cols)]
        )
        assert np.array_equal(got, expected)

    order = rng.permutation(roster.n_sensors)
    if before_first == 0:
        check()
    for step, j in enumerate(order):
        # Commit to every member that finds the sensor relevant, plus
        # (sometimes) one that does not: eq. (5)'s mean still counts it.
        for p, state in enumerate(states):
            if relevant[p][j] or rng.random() < 0.2:
                assert block.commit(p, j) == state.add(roster.snapshots[j])
                assert block.values[p] == state.value
        alive[j] = False
        done = step + 1
        if done >= before_first and (done - before_first) % per_call == 0:
            check()
    check()
    return relevant


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    on_kernel=st.booleans(),
    before_first=st.integers(0, 3),
    per_call=st.integers(1, 3),
)
def test_block_gains_equal_per_member_gains_after_every_commit(
    seed, n, on_kernel, before_first, per_call
):
    rng = np.random.default_rng(seed)
    queries, sensors = coverage_block_slot(rng, n)
    roster = kernel_or_plain_roster(sensors, on_kernel)
    relevant = assert_block_tracks_commits(rng, queries, roster, before_first, per_call)
    assert not relevant[-1].any()
    assert relevant[0][-1]


@pytest.mark.parametrize("on_kernel", [True, False])
def test_block_tracks_commits_past_16_bit_cell_ids(on_kernel):
    """A region with more than 2**16 cells sorts its transpose on wider
    keys; gains stay ``==`` to the per-member path there too."""
    rng = np.random.default_rng(11)
    region = Region.from_origin(300.0, 300.0)
    assert AreaCoverage(region, 3.0).cell_count > 1 << 16
    queries = [
        SpatialAggregateQuery(region, budget=40.0, sensing_range=3.0),
        SpatialAggregateQuery(
            region, budget=30.0, sensing_range=4.0,
            coverage=AreaCoverage(region, 4.0),
        ),
    ]
    # Clustered so that rows overlap and their cell ids straddle 2**16
    # (row 218 of the 300-cell-wide grid).
    sensors = random_sensors(rng, n=30, side=20.0)
    sensors = [
        make_snapshot(
            s.sensor_id, x=208.0 + s.location.x, y=208.0 + s.location.y, cost=s.cost
        )
        for s in sensors
    ]
    roster = kernel_or_plain_roster(sensors, on_kernel)
    assert_block_tracks_commits(rng, queries, roster, before_first=2, per_call=2)


def region_agg_shaped_spec():
    return ScenarioSpec.from_dict({
        "name": "region-agg-shaped",
        "dataset": "rwm",
        "seed": 23,
        "n_sensors": 10000,
        "n_slots": 1,
        "allocator": "greedy",
        "allocation": "joint",
        "streams": [
            {"kind": "aggregate", "params": {
                "budget_factor": 2.5, "mean_queries": 24, "count_spread": 0,
                "sensing_range": 10.0, "min_side": 8.0, "max_side": 16.0,
                "coverage_radius": 5.0,
            }},
        ],
    })


def test_row_builder_candidates_are_one_box_row_per_sensor():
    """The run builder materializes one candidate per (sensor, column) of a
    sensor's box: at most ``2*ceil(r/cell) + 3`` per row built, the box's
    width where enumerating its cells would cost its area."""
    engine = region_agg_shaped_spec().build()
    engine.step(SimulationSummary())
    raster = engine._kernel.raster
    entries = list(raster._coverage_rows.values())
    assert len(entries) == 24
    rows = sum(len(cols) for _, cols, _, _ in entries)
    assert raster.rows_built == rows > 0
    bound = sum(
        len(cols) * (2 * math.ceil(fn.sensing_range / fn.cell_size) + 3)
        for fn, cols, _, _ in entries
    )
    assert 0 < raster.candidates_built <= bound


def test_covered_cell_reads_are_a_fifth_of_the_regather(monkeypatch):
    """On a region_agg-shaped slot the block's covered-cell reads (the
    transpose entries its commits visit) are at most a fifth of the
    covered cells of every evaluated pair's row, which is what re-gathering
    the rows on each call reads."""
    spec = region_agg_shaped_spec()
    blocks = []
    init = _CoverageBlock.__init__
    gain_many_block = _CoverageBlock.gain_many_block

    def traced_init(self, queries, roster, columns):
        init(self, queries, roster, columns)
        row_len = np.zeros((len(queries), roster.n_sensors), np.int64)
        for p, (query, rel_idx) in enumerate(zip(queries, columns)):
            indptr, _ = self.coverage_rows(query, rel_idx)
            row_len[p, rel_idx] = np.diff(indptr)
        self.regathered = 0
        self.row_len = row_len
        blocks.append(self)

    def traced_gain_many_block(self, member_idx, indices):
        self.regathered += int(self.row_len[member_idx, indices].sum())
        return gain_many_block(self, member_idx, indices)

    monkeypatch.setattr(_CoverageBlock, "__init__", traced_init)
    monkeypatch.setattr(_CoverageBlock, "gain_many_block", traced_gain_many_block)
    engine = spec.build()
    engine.step(SimulationSummary())
    assert len(blocks) == 1 and len(blocks[0].queries) == 24
    block = blocks[0]
    assert block.cells_read > 0
    assert 5 * block.cells_read <= block.regathered
