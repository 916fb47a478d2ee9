"""The vectorized PointProblem value matrix must agree with the scalar
eq. 3/4 implementation on PointQuery — property-tested."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_point_query, make_snapshot
from repro.core import GreedyAllocator
from repro.core.point_problem import PointProblem

budgets = st.floats(1.0, 40.0)
coords = st.floats(0.0, 20.0)
fractions = st.floats(0.0, 1.0)


@given(
    st.lists(
        st.tuples(coords, coords, budgets, st.floats(0.0, 0.5)),
        min_size=1,
        max_size=6,
    ),
    st.lists(
        st.tuples(coords, coords, st.floats(0.0, 0.3), fractions),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=50, deadline=None)
def test_matrix_matches_scalar_valuation(query_specs, sensor_specs):
    queries = [
        make_point_query(x=x, y=y, budget=b, theta_min=tmin, dmax=6.0)
        for x, y, b, tmin in query_specs
    ]
    sensors = [
        make_snapshot(i, x=x, y=y, cost=10.0, inaccuracy=g, trust=tau)
        for i, (x, y, g, tau) in enumerate(sensor_specs)
    ]
    problem = PointProblem.build(queries, sensors)
    # Per-query rows match value_single exactly.
    for query in queries:
        row = problem.query_values[query.query_id]
        for j, snapshot in enumerate(sensors):
            assert row[j] == pytest.approx(query.value_single(snapshot), abs=1e-9)
    # Aggregated per-location matrix is the sum over co-located queries.
    for r, (loc, grouped) in enumerate(
        zip(problem.locations, problem.location_queries)
    ):
        expected = np.zeros(len(sensors))
        for query in grouped:
            expected += problem.query_values[query.query_id]
        assert np.allclose(problem.values[r], expected, atol=1e-9)


@pytest.mark.filterwarnings("error")
def test_near_degenerate_extent_keeps_every_sensor():
    """Sensors at ``(0, 2.2e-311)`` and ``(1, 0)`` span a bounding box only
    ulps tall.  An area-based grid cell of ~1e-155 overflowed the int64
    cell keys, so the ``(1, 0)`` sensor read 0 and Greedy answered nothing.
    The first sensor is irrelevant (zero quality) and must change
    nothing, for ``PointProblem`` and for Greedy."""
    query = make_point_query(x=0.0, y=0.0, budget=1.0, theta_min=0.0, dmax=6.0)
    useless = make_snapshot(0, x=0.0, y=2.2e-311, cost=10.0, inaccuracy=1.0)
    sensor = make_snapshot(1, x=1.0, y=0.0, cost=0.5)
    qid = query.query_id
    alone = PointProblem.build([query], [sensor]).query_values[qid]
    both = PointProblem.build([query], [useless, sensor]).query_values[qid]
    assert alone[0] == query.value_single(sensor) == pytest.approx(5.0 / 6.0)
    assert list(both) == [0.0, alone[0]]
    greedy = GreedyAllocator()
    assert greedy.allocate([query], [useless, sensor]).assignments == {qid: (1,)}
    assert greedy.allocate([query], [sensor]).assignments == {qid: (1,)}
