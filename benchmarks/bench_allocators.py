"""Micro-benchmarks: per-slot allocation cost of each scheduling algorithm.

Four frozen slots are timed: the historical 300 queries x 200 sensors
case, the paper-scale RNC slot (300 queries x 635 sensors) where the
vectorized greedy's batch-gain protocol is the headline, the large-fleet
slot (300 localized queries x 20000 sensors) where the kernel's grid
candidate views are, and the region-heavy slot (20 large aggregate/trajectory
queries x 20000 sensors) where the batch-relevance masks are.  The suite
also asserts hard floors — vectorized greedy at least 3x the scalar
reference at paper scale, the candidate views at least 5x the full-fleet
``DenseKernel`` oracle at large-fleet scale, the array-backed cold slot (announcement build +
kernel build) at least 15x the per-sensor object walk at 20k sensors, the
mask-driven region-heavy slot at least 3x the scalar-relevance reference
(measured ~35-40x) and the fused block pipeline at least 2x the per-row
refresh — all with identical (region-heavy: exactly ``==``) allocations/arrays — and
appends one record ``{"commit": <git describe --always --dirty or null>,
"cases": {...}}`` (per-case mean/stdev seconds) to the
``BENCH_allocators.json`` history, so future changes have numbers to
compare against; a record taken on uncommitted code carries a ``-dirty``
suffix.  Set ``REPRO_BENCH_JSON`` to choose the output path.

The scalar and per-row references and ``DenseKernel`` are the oracles in
``tests/oracles.py`` (``benchmarks/conftest.py`` puts ``tests/`` on the
import path).

Run:  pytest benchmarks/bench_allocators.py --benchmark-only -s
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time

import numpy as np
import pytest

from oracles import DenseKernel, PerRowGreedyAllocator, ScalarGreedyAllocator
from repro.core import (
    BaselineAllocator,
    GreedyAllocator,
    LocalSearchPointAllocator,
    OptimalPointAllocator,
    ValuationKernel,
)
from repro.mobility import RandomWaypointMobility
from repro.queries import (
    AggregateQueryWorkload,
    PointQueryWorkload,
    TrajectoryQueryWorkload,
)
from repro.sensors import FleetConfig, SensorFleet, SensorSnapshot
from repro.spatial import Region

_RESULTS: dict[str, dict[str, float]] = {}


def _record_case(name: str, mean: float, stdev: float, rounds: int) -> None:
    _RESULTS[name] = {
        "mean_seconds": float(mean),
        "stdev_seconds": float(stdev),
        "rounds": int(rounds),
    }


def _record_benchmark(name: str, benchmark) -> None:
    """Record a pytest-benchmark case (no-op under --benchmark-disable,
    where ``benchmark.stats`` is None)."""
    if benchmark.stats is None:
        return
    stats = benchmark.stats.stats
    _record_case(name, stats.mean, stats.stddev, stats.rounds)


def _commit() -> str | None:
    """``git describe --always --dirty`` in the working directory (the short
    HEAD hash, ``-dirty`` when the tree has uncommitted changes), else None."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def load_history(path: str) -> list[dict]:
    """The records in ``path``; none when the file does not exist."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return []


@pytest.fixture(scope="session", autouse=True)
def bench_trajectory_json():
    """Append this session's per-case timings to the bench history."""
    yield
    if not _RESULTS:
        return
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_allocators.json")
    history = load_history(path)
    history.append({"commit": _commit(), "cases": _RESULTS})
    with open(path, "w") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
    print(f"\nappended {len(_RESULTS)} bench cases to {path} ({len(history)} records)")


def make_slot(n_queries: int, n_sensors: int, side: float = 50.0):
    rng = np.random.default_rng(2013)
    region = Region.from_origin(side, side)
    sensors = [
        SensorSnapshot(
            i,
            region.sample_location(rng),
            10.0,
            float(rng.uniform(0, 0.2)),
            1.0,
        )
        for i in range(n_sensors)
    ]
    queries = PointQueryWorkload(
        region, n_queries=n_queries, budget=15.0, dmax=5.0
    ).generate(0, rng)
    return queries, sensors


@pytest.fixture(scope="module")
def slot():
    return make_slot(300, 200)


@pytest.fixture(scope="module")
def paper_slot():
    """The paper's RNC scale: 635 sensors announcing, 300 point queries."""
    return make_slot(300, 635)


@pytest.mark.parametrize(
    "allocator",
    [
        OptimalPointAllocator(),
        LocalSearchPointAllocator(),
        GreedyAllocator(),
        BaselineAllocator(),
    ],
    ids=["optimal", "local_search", "greedy", "baseline"],
)
def test_allocator_slot_cost(benchmark, slot, allocator):
    queries, sensors = slot
    result = benchmark(allocator.allocate, queries, sensors)
    assert result.total_utility >= 0.0
    _record_benchmark(f"{allocator.name.lower()}_300x200", benchmark)


@pytest.mark.parametrize(
    "allocator,case",
    [
        (GreedyAllocator(), "greedy_vectorized_300x635"),
        (ScalarGreedyAllocator(), "greedy_scalar_300x635"),
        (BaselineAllocator(), "baseline_300x635"),
    ],
    ids=["greedy_vectorized", "greedy_scalar", "baseline"],
)
def test_allocator_paper_scale_cost(benchmark, paper_slot, allocator, case):
    queries, sensors = paper_slot
    result = benchmark(allocator.allocate, queries, sensors)
    assert result.total_utility >= 0.0
    _record_benchmark(case, benchmark)


def test_greedy_vectorized_speedup_at_paper_scale(paper_slot):
    """Hard floor: the batch-gain greedy must be >= 3x the scalar path on
    the paper-scale slot, with identical allocations."""
    queries, sensors = paper_slot
    vectorized = GreedyAllocator()
    scalar = ScalarGreedyAllocator()

    # Interleave the two paths so clock-frequency drift or co-tenant noise
    # hits both equally; best-of-N on each side filters the spikes.
    fast, slow = [], []
    for _ in range(7):
        start = time.perf_counter()
        vectorized.allocate(queries, sensors)
        fast.append(time.perf_counter() - start)
        start = time.perf_counter()
        scalar.allocate(queries, sensors)
        slow.append(time.perf_counter() - start)
    _record_case(
        "greedy_vectorized_300x635",
        statistics.mean(fast), statistics.stdev(fast), len(fast),
    )
    _record_case(
        "greedy_scalar_300x635",
        statistics.mean(slow), statistics.stdev(slow), len(slow),
    )
    speedup = min(slow) / min(fast)
    print(
        f"\ngreedy slot 300x635: scalar {min(slow)*1e3:.1f} ms, "
        f"vectorized {min(fast)*1e3:.1f} ms, speedup {speedup:.1f}x"
    )

    # Sensor picks and assignment sets match exactly; recorded values and
    # cost shares may differ in the final ulp (np.hypot vs math.hypot —
    # same tolerance the parity suite documents).
    a = vectorized.allocate(queries, sensors)
    b = scalar.allocate(queries, sensors)
    assert a.assignments == b.assignments
    assert set(a.selected) == set(b.selected)
    assert a.values.keys() == b.values.keys()
    for qid, value in b.values.items():
        assert a.values[qid] == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert a.payments.keys() == b.payments.keys()
    for key, payment in b.payments.items():
        assert a.payments[key] == pytest.approx(payment, rel=1e-12, abs=1e-12)

    assert speedup >= 3.0, (
        f"batch-gain greedy ({min(fast)*1e3:.1f} ms) must be >= 3x the "
        f"scalar reference ({min(slow)*1e3:.1f} ms); got {speedup:.2f}x"
    )


@pytest.fixture(scope="module")
def large_fleet_slot():
    """Production-scale fleet, localized queries: 20k sensors announcing
    over a 400x400 region, 300 point queries with dmax 5 — each query can
    reach ~0.015% of the fleet, the regime sharding is built for."""
    return make_slot(300, 20000, side=400.0)


def test_sharded_large_fleet_speedup(large_fleet_slot):
    """Hard floor: the kernel's grid candidate views must be >= 5x the
    full-fleet ``DenseKernel`` oracle on the large-fleet localized slot,
    with bit-identical allocations."""
    queries, sensors = large_fleet_slot
    allocator = GreedyAllocator()
    dense_kernel = DenseKernel.from_sensors(sensors)
    sharded_kernel = ValuationKernel.from_sensors(sensors)

    # Bit-identical allocations first (this also warms the lazy shard grid).
    a = allocator.allocate(queries, sensors, kernel=sharded_kernel)
    b = allocator.allocate(queries, sensors, kernel=dense_kernel)
    assert a.assignments == b.assignments
    assert set(a.selected) == set(b.selected)
    assert a.values == b.values
    assert a.payments == b.payments

    # Interleaved best-of-N timing of the warm slot path (the engine reuses
    # kernels across slots; the cold path is recorded separately below).
    fast, slow = [], []
    for _ in range(5):
        start = time.perf_counter()
        allocator.allocate(queries, sensors, kernel=sharded_kernel)
        fast.append(time.perf_counter() - start)
        start = time.perf_counter()
        allocator.allocate(queries, sensors, kernel=dense_kernel)
        slow.append(time.perf_counter() - start)
    _record_case(
        "greedy_sharded_300x20000",
        statistics.mean(fast), statistics.stdev(fast), len(fast),
    )
    _record_case(
        "greedy_dense_300x20000",
        statistics.mean(slow), statistics.stdev(slow), len(slow),
    )
    speedup = min(slow) / min(fast)
    print(
        f"\ngreedy slot 300x20000: dense {min(slow)*1e3:.1f} ms, "
        f"sharded {min(fast)*1e3:.1f} ms, speedup {speedup:.1f}x "
        f"({sharded_kernel.index.n_shards} cells, "
        f"cell {sharded_kernel.index.cell_size:.2f})"
    )

    # Cold-slot reference: kernel build + candidate grid from scratch each
    # round, the worst case for a fully mobile fleet.
    cold = []
    for _ in range(3):
        start = time.perf_counter()
        allocator.allocate(
            queries, sensors, kernel=ValuationKernel.from_sensors(sensors)
        )
        cold.append(time.perf_counter() - start)
    _record_case(
        "greedy_sharded_cold_300x20000",
        statistics.mean(cold), statistics.stdev(cold), len(cold),
    )

    assert speedup >= 5.0, (
        f"candidate views ({min(fast)*1e3:.1f} ms) must be >= 5x the dense "
        f"oracle ({min(slow)*1e3:.1f} ms) at 20k sensors; got {speedup:.2f}x"
    )


@pytest.fixture(scope="module")
def region_heavy_slot():
    """The batch-relevance regime: 20k sensors announcing over 400x400,
    ~20 *large* aggregate/trajectory queries (24-48-side regions, long
    corridors).  Without masks every query re-scans all 20k candidates
    through scalar ``relevant`` and the coverage states rasterize per
    sensor; with them relevance is one vectorized pass per query and the
    coverage-mask matrices build straight from the stacked arrays."""
    rng = np.random.default_rng(2013)
    region = Region.from_origin(400.0, 400.0)
    sensors = [
        SensorSnapshot(
            i,
            region.sample_location(rng),
            10.0,
            float(rng.uniform(0, 0.2)),
            1.0,
        )
        for i in range(20000)
    ]
    aggregates = AggregateQueryWorkload(
        region, budget_factor=2.5, mean_queries=16, count_spread=0,
        sensing_range=10.0, coverage_radius=5.0, min_side=24.0, max_side=48.0,
    ).generate(0, rng)
    trajectories = TrajectoryQueryWorkload(
        region, budget_factor=2.5, queries_per_slot=4, sensing_range=10.0
    ).generate(0, rng)
    return aggregates + trajectories, sensors


def test_region_heavy_masked_speedup(region_heavy_slot):
    """Hard floor: the mask-driven batch path must be >= 3x the scalar-
    relevance reference on the region-heavy 20k-sensor slot, with exactly
    identical (``==``) allocations, values and payments — on the dense
    oracle kernel and the candidate views, greedy and baseline.  (Aggregate/trajectory arithmetic is
    bit-identical between the scalar and batch paths, so this comparison
    is exact, not approximate.)"""
    queries, sensors = region_heavy_slot
    masked = PerRowGreedyAllocator()
    scalar = ScalarGreedyAllocator()
    dense_kernel = DenseKernel.from_sensors(sensors)
    sharded_kernel = ValuationKernel.from_sensors(sensors)

    # Masked path, dense and sharded: best-of-3 each (also warms caches).
    fast_dense, fast_sharded = [], []
    for _ in range(3):
        start = time.perf_counter()
        a = masked.allocate(queries, sensors, kernel=dense_kernel)
        fast_dense.append(time.perf_counter() - start)
        start = time.perf_counter()
        b = masked.allocate(queries, sensors, kernel=sharded_kernel)
        fast_sharded.append(time.perf_counter() - start)
    # Scalar-relevance reference: one round — it is minutes-per-round slow
    # at this scale (which is exactly the point), and the floor is 3x
    # while the measured gap is an order of magnitude wider.
    start = time.perf_counter()
    c = scalar.allocate(queries, sensors, kernel=dense_kernel)
    slow = time.perf_counter() - start

    assert a.assignments == c.assignments
    assert set(a.selected) == set(c.selected)
    assert a.values == c.values
    assert a.payments == c.payments
    assert b.assignments == a.assignments
    assert b.values == a.values
    assert b.payments == a.payments

    x = BaselineAllocator().allocate(queries, sensors, kernel=dense_kernel)
    y = BaselineAllocator().allocate(queries, sensors, kernel=sharded_kernel)
    assert y.assignments == x.assignments
    assert y.values == x.values
    assert y.payments == x.payments

    _record_case(
        "greedy_masked_region_20x20000",
        statistics.mean(fast_dense), statistics.stdev(fast_dense), len(fast_dense),
    )
    _record_case(
        "greedy_masked_sharded_region_20x20000",
        statistics.mean(fast_sharded), statistics.stdev(fast_sharded), len(fast_sharded),
    )
    _record_case("greedy_scalar_region_20x20000", slow, 0.0, 1)
    speedup = slow / min(fast_dense)
    print(
        f"\nregion-heavy slot {len(queries)}x20000: scalar {slow:.2f} s, "
        f"masked dense {min(fast_dense)*1e3:.0f} ms, "
        f"masked sharded {min(fast_sharded)*1e3:.0f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 3.0, (
        f"mask-driven greedy ({min(fast_dense):.2f} s) must be >= 3x the "
        f"scalar-relevance reference ({slow:.2f} s); got {speedup:.2f}x"
    )


@pytest.fixture(scope="module")
def region_storm_slot():
    """The fused-pipeline regime: 20k sensors announcing over 400x400 and
    128 overlapping aggregate queries.  Per greedy round dozens of same-
    type rows go dirty at once; the per-row masked path pays one
    ``gain_many`` call (plus its own mask matrix) per dirty row, while the
    fused path evaluates all dirty (query, sensor) pairs in one
    ``gain_many_block`` pass over the shared world raster's CSR coverage
    rows."""
    rng = np.random.default_rng(2013)
    region = Region.from_origin(400.0, 400.0)
    sensors = [
        SensorSnapshot(
            i,
            region.sample_location(rng),
            10.0,
            float(rng.uniform(0, 0.2)),
            1.0,
        )
        for i in range(20000)
    ]
    aggregates = AggregateQueryWorkload(
        region, budget_factor=2.5, mean_queries=128, count_spread=0,
        sensing_range=10.0, coverage_radius=5.0, min_side=24.0, max_side=48.0,
    ).generate(0, rng)
    return aggregates, sensors


def test_fused_region_heavy_speedup(region_storm_slot):
    """Hard floor: the fused block pipeline must be >= 2x the per-row
    refresh oracle (``PerRowGreedyAllocator``) on the 128-aggregate 20k-sensor storm
    slot, with exactly identical (``==``) allocations, values and payments
    — on the dense oracle kernel and the candidate views."""
    queries, sensors = region_storm_slot
    fused = GreedyAllocator()
    masked = PerRowGreedyAllocator()
    dense_kernel = DenseKernel.from_sensors(sensors)
    sharded_kernel = ValuationKernel.from_sensors(sensors)

    # Interleaved best-of-3 (also warms the raster/shard caches; the slot
    # engine reuses kernels across slots, so the warm path is the one that
    # matters — and the raster rebuild is part of round one either way).
    fast, slow, fast_sharded = [], [], []
    for _ in range(3):
        start = time.perf_counter()
        a = fused.allocate(queries, sensors, kernel=dense_kernel)
        fast.append(time.perf_counter() - start)
        start = time.perf_counter()
        b = masked.allocate(queries, sensors, kernel=dense_kernel)
        slow.append(time.perf_counter() - start)
        start = time.perf_counter()
        c = fused.allocate(queries, sensors, kernel=sharded_kernel)
        fast_sharded.append(time.perf_counter() - start)

    assert a.assignments == b.assignments
    assert set(a.selected) == set(b.selected)
    assert a.values == b.values
    assert a.payments == b.payments
    assert c.assignments == b.assignments
    assert c.values == b.values
    assert c.payments == b.payments

    _record_case(
        "greedy_fused_storm_128x20000",
        statistics.mean(fast), statistics.stdev(fast), len(fast),
    )
    _record_case(
        "greedy_masked_storm_128x20000",
        statistics.mean(slow), statistics.stdev(slow), len(slow),
    )
    _record_case(
        "greedy_fused_sharded_storm_128x20000",
        statistics.mean(fast_sharded), statistics.stdev(fast_sharded),
        len(fast_sharded),
    )
    speedup = min(slow) / min(fast)
    print(
        f"\nregion storm slot {len(queries)}x20000: masked {min(slow)*1e3:.0f} ms, "
        f"fused {min(fast)*1e3:.0f} ms, "
        f"fused sharded {min(fast_sharded)*1e3:.0f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 2.0, (
        f"fused pipeline ({min(fast)*1e3:.0f} ms) must be >= 2x the per-row "
        f"masked path ({min(slow)*1e3:.0f} ms); got {speedup:.2f}x"
    )


def test_batch_cold_slot_speedup():
    """Hard floor: the array-backed cold slot — announcement build plus
    kernel build, the phase a fully mobile fleet pays from scratch every
    slot — must be >= 15x the per-sensor object walk at 20k sensors, with
    identical announcement arrays (measured ~70x on the dev box)."""
    region = Region.from_origin(400, 400)
    rng = np.random.default_rng(2013)
    fleet = SensorFleet(
        RandomWaypointMobility(region, 20000, rng), region, FleetConfig(), rng
    )
    # The object path's materials, prebuilt once the way the historical
    # fleet held them: Sensor objects plus per-slot Location lists.
    sensor_objs = fleet.sensors
    working_region = fleet.working_region

    def object_path() -> ValuationKernel:
        snapshots = []
        for sensor, location in zip(sensor_objs, fleet.mobility.locations()):
            if sensor.is_exhausted:
                continue
            if not working_region.contains(location):
                continue
            snapshots.append(sensor.snapshot(location, fleet.clock))
        return ValuationKernel.from_sensors(snapshots)

    def batch_path() -> ValuationKernel:
        return ValuationKernel.from_sensors(fleet.announcements())

    # Identical stacked arrays first (also warms both paths).
    a, b = batch_path(), object_path()
    assert np.array_equal(a.sensor_xy, b.sensor_xy)
    assert np.array_equal(a.costs, b.costs)
    assert np.array_equal(a.gamma, b.gamma)
    assert np.array_equal(a.trust, b.trust)
    assert [s.sensor_id for s in b.sensors] == list(a.sensors.ids)

    fast, slow = [], []
    for _ in range(5):
        start = time.perf_counter()
        batch_path()
        fast.append(time.perf_counter() - start)
        start = time.perf_counter()
        object_path()
        slow.append(time.perf_counter() - start)
    _record_case(
        "cold_slot_batch_20000",
        statistics.mean(fast), statistics.stdev(fast), len(fast),
    )
    _record_case(
        "cold_slot_object_20000",
        statistics.mean(slow), statistics.stdev(slow), len(slow),
    )
    speedup = min(slow) / min(fast)
    print(
        f"\ncold slot 20000 sensors: object {min(slow)*1e3:.1f} ms, "
        f"batch {min(fast)*1e3:.1f} ms, speedup {speedup:.1f}x"
    )

    # The candidate grid rides the same batch: record its trajectory
    # (grid construction is shared work on top of the batch arrays).
    cold = []
    for _ in range(3):
        start = time.perf_counter()
        ValuationKernel.from_sensors(fleet.announcements()).index
        cold.append(time.perf_counter() - start)
    _record_case(
        "cold_slot_batch_sharded_20000",
        statistics.mean(cold), statistics.stdev(cold), len(cold),
    )

    assert speedup >= 15.0, (
        f"batch cold slot ({min(fast)*1e3:.2f} ms) must be >= 15x the "
        f"object walk ({min(slow)*1e3:.1f} ms) at 20k sensors; got "
        f"{speedup:.2f}x"
    )
