"""ValuationKernel: bit-parity with both seed valuation paths + reuse rules."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_point_query, make_snapshot, random_instance
from oracles import dense_single_values, relevant_queries_by_sensor
from repro.core import PointProblem, ValuationKernel
from repro.queries import PointQuery
from repro.sensors import SensorSnapshot
from repro.spatial import Location


def legacy_build_values(queries, sensors):
    """The seed ``PointProblem.build`` per-location loop, frozen for parity."""
    n = len(sensors)
    sensor_xy = np.asarray([(s.location.x, s.location.y) for s in sensors], dtype=float)
    gamma = np.asarray([s.inaccuracy for s in sensors], dtype=float)
    trust = np.asarray([s.trust for s in sensors], dtype=float)
    groups: dict[tuple[float, float], list[PointQuery]] = {}
    for query in queries:
        groups.setdefault((query.location.x, query.location.y), []).append(query)
    locations = list(groups)
    location_queries = list(groups.values())
    values = np.zeros((len(locations), n))
    query_values: dict[str, np.ndarray] = {}
    for row, ((x, y), grouped) in enumerate(zip(locations, location_queries)):
        if n:
            diff = sensor_xy - np.array([x, y])
            dist = np.sqrt((diff**2).sum(axis=1))
        else:
            dist = np.zeros(0)
        for query in grouped:
            quality = (1.0 - gamma) * trust * (1.0 - dist / query.dmax)
            quality[dist > query.dmax] = 0.0
            quality[quality < query.theta_min] = 0.0
            row_values = query.budget * quality
            query_values[query.query_id] = row_values
            values[row] += row_values
    return values, query_values


class TestMatrixPathParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_to_seed_loop(self, seed):
        queries, sensors = random_instance(seed, n_sensors=12, n_queries=20)
        want_values, want_query_values = legacy_build_values(queries, sensors)
        problem = PointProblem.build(queries, sensors)
        assert np.array_equal(problem.values, want_values)
        for qid, row in want_query_values.items():
            assert np.array_equal(problem.query_values[qid], row)

    def test_colocated_queries_aggregate_per_location(self):
        queries = [
            make_point_query(0.0, 0.0, budget=10.0),
            make_point_query(0.0, 0.0, budget=20.0),
            make_point_query(3.0, 0.0, budget=10.0),
        ]
        sensors = [make_snapshot(0, x=1.0), make_snapshot(1, x=4.0)]
        want_values, _ = legacy_build_values(queries, sensors)
        problem = PointProblem.build(queries, sensors)
        assert problem.n_locations == 2
        assert np.array_equal(problem.values, want_values)

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
        rows = kernel.value_rows([query])
        assert rows[0, 0] == 0.0
        assert rows[0, 1] == pytest.approx(5.0)


class TestKernelReuse:
    def test_ensure_reuses_compatible_kernel(self):
        _, sensors = random_instance(1)
        kernel = ValuationKernel.from_sensors(sensors)
        assert ValuationKernel.ensure(kernel, sensors) is kernel

    def test_ensure_accepts_repriced_sensors(self):
        # Costs do not participate in the value matrices, so a zero-cost
        # re-announcement (the sequential baseline's buffering) reuses the
        # kernel.
        _, sensors = random_instance(2)
        kernel = ValuationKernel.from_sensors(sensors)
        repriced = [
            SensorSnapshot(s.sensor_id, s.location, 0.0, s.inaccuracy, s.trust)
            for s in sensors
        ]
        assert ValuationKernel.ensure(kernel, repriced) is kernel

    def test_ensure_rebuilds_on_mismatch(self):
        _, sensors = random_instance(3)
        kernel = ValuationKernel.from_sensors(sensors)
        assert ValuationKernel.ensure(kernel, sensors[:-1]) is not kernel
        moved = [
            SensorSnapshot(
                s.sensor_id, Location(s.location.x + 1.0, s.location.y),
                s.cost, s.inaccuracy, s.trust,
            )
            for s in sensors
        ]
        assert ValuationKernel.ensure(kernel, moved) is not kernel

    def test_problem_costs_come_from_sensors_argument(self):
        queries, sensors = random_instance(4)
        kernel = ValuationKernel.from_sensors(sensors)
        repriced = [
            SensorSnapshot(s.sensor_id, s.location, 0.0, s.inaccuracy, s.trust)
            for s in sensors
        ]
        problem = PointProblem.build(queries, repriced, kernel=kernel)
        assert np.array_equal(problem.costs, np.zeros(len(sensors)))
        baseline = PointProblem.build(queries, sensors)
        assert np.array_equal(problem.values, baseline.values)
