"""PointProblem and ValuationKernel: one eq.-(3) value per (query, sensor)
pair for every allocator, scalar-path parity and the kernel's reuse rules."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_point_query, make_snapshot, random_instance
from oracles import dense_single_values, relevant_queries_by_sensor, single_values
from repro.core import PointProblem, ValuationKernel
from repro.queries import PointQuery
from repro.sensors import SensorSnapshot
from repro.sensors.state import announcement_batch
from repro.spatial import Location, Region


def paper_instance(seed: int, n_queries: int = 300, n_sensors: int = 635):
    """A Section-4-sized slot (RNC: 635 sensors, 300 point queries)."""
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


def assert_rows_equal_sparse_values(queries, sensors):
    """Each dense row equals the greedy path's sparse values (``==``) on its
    candidate columns, is exactly ``0.0`` everywhere else, and equals the
    full-fleet broadcast of eq. (3) (``oracles.single_values``)."""
    problem = PointProblem.build(queries, sensors)
    kernel = ValuationKernel.from_sensors(sensors)
    for query, (cols, vals) in zip(queries, kernel.sparse_single_values(queries)):
        row = problem.query_values[query.query_id]
        assert np.array_equal(row[cols], vals)
        outside = np.ones(len(sensors), dtype=bool)
        outside[cols] = False
        assert not row[outside].any()
    rows = [problem.query_values[query.query_id] for query in queries]
    assert np.array_equal(np.reshape(rows, (len(queries), -1)), single_values(kernel, queries))


class TestMatrixPathParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_query_values_equal_sparse_single_values(self, seed):
        assert_rows_equal_sparse_values(
            *random_instance(seed, n_sensors=12, n_queries=20)
        )

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_paper_scale_values_equal_sparse_single_values(self, seed):
        assert_rows_equal_sparse_values(*paper_instance(seed))

    def test_colocated_queries_aggregate_per_location(self):
        queries = [
            make_point_query(0.0, 0.0, budget=10.0),
            make_point_query(0.0, 0.0, budget=20.0),
            make_point_query(3.0, 0.0, budget=10.0),
        ]
        sensors = [make_snapshot(0, x=1.0), make_snapshot(1, x=4.0)]
        problem = PointProblem.build(queries, sensors)
        assert problem.n_locations == 2
        rows = [problem.query_values[q.query_id] for q in queries]
        assert np.array_equal(problem.values, np.stack([rows[0] + rows[1], rows[2]]))

    def test_empty_edges(self):
        queries, sensors = random_instance(0, n_sensors=5, n_queries=5)
        no_sensors = PointProblem.build(queries, [])
        assert no_sensors.values.shape == (len(no_sensors.locations), 0)
        no_queries = PointProblem.build([], sensors)
        assert no_queries.values.shape == (0, 5)


class TestScalarPathParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_single_values_match_value_single(self, seed):
        # math.hypot (CPython's own algorithm) and np.hypot (libm) can
        # disagree in the last ulp, so the scalar path is equal to within
        # one rounding step — never enough to cross the sharp eq. 3
        # thresholds away from exact boundaries.
        queries, sensors = random_instance(seed, n_sensors=10, n_queries=15)
        kernel = ValuationKernel.from_sensors(sensors)
        values = dense_single_values(kernel, queries)
        for i, query in enumerate(queries):
            for j, snapshot in enumerate(sensors):
                want = query.value_single(snapshot)
                assert values[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_relevance_matches_relevant(self, seed):
        queries, sensors = random_instance(seed, n_sensors=10, n_queries=15)
        kernel = ValuationKernel.from_sensors(sensors)
        rel = dense_single_values(kernel, queries) > 0.0
        for i, query in enumerate(queries):
            for j, snapshot in enumerate(sensors):
                assert bool(rel[i, j]) == query.relevant(snapshot)

    def test_relevant_map_matches_scalar_fallback(self):
        queries, sensors = random_instance(5, n_sensors=10, n_queries=15)
        kernel = ValuationKernel.from_sensors(sensors)
        with_kernel = relevant_queries_by_sensor(queries, sensors, kernel)
        without = relevant_queries_by_sensor(queries, sensors, None)
        assert with_kernel == without

    def test_boundary_thresholds(self):
        # Exactly at dmax -> zero; exactly at theta_min -> kept (eq. 3).
        query = PointQuery(Location(0.0, 0.0), budget=10.0, theta_min=0.5, dmax=4.0)
        at_dmax = make_snapshot(0, x=4.0)
        at_theta = make_snapshot(1, x=2.0)  # theta = 1 - 2/4 = 0.5 exactly
        kernel = ValuationKernel.from_sensors([at_dmax, at_theta])
        values = dense_single_values(kernel, [query])
        assert values[0, 0] == 0.0
        assert values[0, 1] == pytest.approx(5.0)
        row = PointProblem.build([query], [at_dmax, at_theta]).query_values[query.query_id]
        assert row[0] == 0.0
        assert row[1] == pytest.approx(5.0)


class TestKernelCoverage:
    def test_covers_equal_announcements(self):
        _, sensors = random_instance(1)
        kernel = ValuationKernel.from_sensors(sensors)
        assert kernel.covers(kernel.sensors)
        assert kernel.covers(announcement_batch(sensors))

    def test_covers_repriced_sensors(self):
        # Costs do not participate in the value matrices, so a zero-cost
        # re-announcement (the sequential baseline's buffering) is covered.
        _, sensors = random_instance(2)
        kernel = ValuationKernel.from_sensors(sensors)
        repriced = [
            SensorSnapshot(s.sensor_id, s.location, 0.0, s.inaccuracy, s.trust)
            for s in sensors
        ]
        assert kernel.covers(announcement_batch(repriced))

    def test_does_not_cover_a_shorter_or_moved_fleet(self):
        _, sensors = random_instance(3)
        kernel = ValuationKernel.from_sensors(sensors)
        assert not kernel.covers(announcement_batch(sensors[:-1]))
        moved = [
            SensorSnapshot(
                s.sensor_id, Location(s.location.x + 1.0, s.location.y),
                s.cost, s.inaccuracy, s.trust,
            )
            for s in sensors
        ]
        assert not kernel.covers(announcement_batch(moved))

    def test_problem_costs_come_from_sensors_argument(self):
        queries, sensors = random_instance(4)
        repriced = [
            SensorSnapshot(s.sensor_id, s.location, 0.0, s.inaccuracy, s.trust)
            for s in sensors
        ]
        problem = PointProblem.build(queries, repriced)
        assert np.array_equal(problem.costs, np.zeros(len(sensors)))
        baseline = PointProblem.build(queries, sensors)
        assert np.array_equal(problem.values, baseline.values)
