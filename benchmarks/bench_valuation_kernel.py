"""BENCH: the dense point-problem value matrix at paper scale.

The per-slot value matrix (hundreds of queries x hundreds of sensors) is
what the BILP and local-search allocators read; the seed built it with a
per-location Python loop inside ``PointProblem.build``, which now scatters
the greedy path's sparse eq.-(3) pass
(``ValuationKernel.sparse_single_values``) into dense rows.  This bench
times that build against a frozen copy of the loop at Section 4 sizes
(RNC: 635 sensors; 300 point queries per slot, plus a 2x sweep) and
asserts the rows (a) equal the sparse values bit for bit on every
candidate pair and are exactly zero elsewhere and (b) are built
measurably faster than by the loop.  The loop is kept only as the
speed reference: its ``sqrt``/``((1-gamma)*tau)`` arithmetic differs
from eq. (4)'s one vector form in the last ulp.

Run:  pytest benchmarks/bench_valuation_kernel.py --benchmark-only -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import PointProblem, ValuationKernel
from repro.queries import PointQuery
from repro.sensors import SensorSnapshot
from repro.spatial import Region


def legacy_build_values(queries, sensors):
    """The seed ``PointProblem.build`` inner loop, frozen for comparison."""
    n = len(sensors)
    sensor_xy = np.asarray([(s.location.x, s.location.y) for s in sensors], dtype=float)
    gamma = np.asarray([s.inaccuracy for s in sensors], dtype=float)
    trust = np.asarray([s.trust for s in sensors], dtype=float)
    groups: dict[tuple[float, float], list[PointQuery]] = {}
    for query in queries:
        groups.setdefault((query.location.x, query.location.y), []).append(query)
    values = np.zeros((len(groups), n))
    query_values: dict[str, np.ndarray] = {}
    for row, ((x, y), grouped) in enumerate(zip(groups, groups.values())):
        diff = sensor_xy - np.array([x, y])
        dist = np.sqrt((diff**2).sum(axis=1))
        for query in grouped:
            quality = (1.0 - gamma) * trust * (1.0 - dist / query.dmax)
            quality[dist > query.dmax] = 0.0
            quality[quality < query.theta_min] = 0.0
            row_values = query.budget * quality
            query_values[query.query_id] = row_values
            values[row] += row_values
    return values, query_values


def make_instance(seed: int, n_queries: int, n_sensors: int):
    rng = np.random.default_rng(seed)
    region = Region.from_origin(100.0, 100.0)
    sensors = [
        SensorSnapshot(
            i,
            region.sample_location(rng),
            float(rng.uniform(5.0, 15.0)),
            float(rng.uniform(0.0, 0.2)),
            float(rng.uniform(0.5, 1.0)),
        )
        for i in range(n_sensors)
    ]
    queries = [
        PointQuery(
            region.sample_location(rng),
            budget=float(rng.uniform(7.0, 35.0)),
            theta_min=0.2,
            dmax=10.0,
        )
        for _ in range(n_queries)
    ]
    return queries, sensors


PAPER_SIZES = [(300, 635), (600, 635)]


@pytest.mark.parametrize("n_queries,n_sensors", PAPER_SIZES)
def test_kernel_matches_sparse_path(n_queries, n_sensors):
    queries, sensors = make_instance(1, n_queries, n_sensors)
    problem = PointProblem.build(queries, sensors)
    kernel = ValuationKernel.from_sensors(sensors)
    for query, (cols, vals) in zip(queries, kernel.sparse_single_values(queries)):
        row = problem.query_values[query.query_id]
        assert np.array_equal(row[cols], vals)
        outside = np.ones(n_sensors, dtype=bool)
        outside[cols] = False
        assert not row[outside].any()


@pytest.mark.parametrize("n_queries,n_sensors", PAPER_SIZES)
def test_bench_kernel_build(benchmark, n_queries, n_sensors):
    queries, sensors = make_instance(2, n_queries, n_sensors)
    problem = benchmark(PointProblem.build, queries, sensors)
    assert problem.values.shape[1] == n_sensors


@pytest.mark.parametrize("n_queries,n_sensors", PAPER_SIZES)
def test_bench_legacy_location_loop(benchmark, n_queries, n_sensors):
    queries, sensors = make_instance(2, n_queries, n_sensors)
    values, _ = benchmark(legacy_build_values, queries, sensors)
    assert values.shape[1] == n_sensors


def test_kernel_speedup_at_paper_scale():
    """Hard floor: the vectorized pass must beat the per-location loop."""
    queries, sensors = make_instance(4, 300, 635)

    def timed(fn, *args, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - start)
        return best

    legacy = timed(legacy_build_values, queries, sensors)
    kernel = timed(PointProblem.build, queries, sensors)
    speedup = legacy / kernel
    print(f"\nvalue-matrix build 300x635: legacy {legacy*1e3:.2f} ms, "
          f"kernel {kernel*1e3:.2f} ms, speedup {speedup:.1f}x")
    assert speedup > 1.2, (
        f"kernel ({kernel*1e3:.2f} ms) should clearly beat the per-location "
        f"loop ({legacy*1e3:.2f} ms)"
    )
