"""Tests for the sequential baseline allocator (Sections 4.3/4.4)."""

from __future__ import annotations

import pytest

from helpers import make_point_query, make_snapshot, random_instance
from repro.core import BaselineAllocator, GreedyAllocator, OptimalPointAllocator
from repro.queries import PointQuery, SpatialAggregateQuery
from repro.spatial import Location, Region


class HalfValuePointQuery(PointQuery):
    """Half the closed form; redefining ``value`` selects the generic block."""

    def value(self, snapshots):
        return 0.5 * super().value(snapshots)


class TestBaselinePointBehaviour:
    def test_cannot_share_costs(self):
        """The defining weakness: two queries that could jointly afford a
        sensor both fail individually."""
        queries = [
            make_point_query(x=0, y=0, budget=7.0, query_id="a", theta_min=0.0),
            make_point_query(x=0, y=0, budget=7.0, query_id="b", theta_min=0.0),
        ]
        sensor = make_snapshot(0, x=0, y=0, cost=10.0)
        result = BaselineAllocator().allocate(queries, [sensor])
        assert result.answered_count() == 0

    def test_first_query_pays_rest_ride_free(self):
        queries = [
            make_point_query(x=0, y=0, budget=20.0, query_id="a", theta_min=0.0),
            make_point_query(x=0, y=0, budget=20.0, query_id="b", theta_min=0.0),
        ]
        sensor = make_snapshot(0, x=0, y=0, cost=10.0)
        result = BaselineAllocator().allocate(queries, [sensor])
        assert result.answered_count() == 2
        assert result.query_payment("a") == pytest.approx(10.0)
        assert result.query_payment("b") == pytest.approx(0.0)

    def test_picks_max_utility_sensor(self):
        query = make_point_query(x=0, y=0, budget=20.0, theta_min=0.0)
        low_net = make_snapshot(0, x=4, y=0, cost=1.0)
        high_net = make_snapshot(1, x=0, y=0, cost=5.0)
        result = BaselineAllocator().allocate([query], [low_net, high_net])
        assert result.assignments[query.query_id] == (1,)

    def test_never_better_than_optimal(self):
        for seed in range(10):
            queries, sensors = random_instance(seed, n_sensors=8, n_queries=10)
            baseline = BaselineAllocator().allocate(queries, sensors)
            optimal = OptimalPointAllocator().allocate(queries, sensors)
            assert baseline.total_utility <= optimal.total_utility + 1e-9

    def test_invariants(self):
        for seed in range(5):
            queries, sensors = random_instance(seed, n_sensors=10, n_queries=15)
            BaselineAllocator().allocate(queries, sensors).verify()

    def test_empty_inputs(self):
        assert BaselineAllocator().allocate([], []).total_utility == 0.0

    def test_min_gain_validation(self):
        with pytest.raises(ValueError):
            BaselineAllocator(min_gain=-0.1)


class TestBaselineAggregateBehaviour:
    REGION = Region.from_origin(20, 20)

    def _aggregate(self, budget=60.0, query_id=None):
        return SpatialAggregateQuery(
            Region(5, 5, 15, 15), budget=budget, sensing_range=6.0,
            coverage_radius=4.0, query_id=query_id,
        )

    def test_grows_set_greedily(self):
        query = self._aggregate(budget=200.0)
        sensors = [
            make_snapshot(0, x=7, y=7, cost=5.0),
            make_snapshot(1, x=13, y=13, cost=5.0),
        ]
        result = BaselineAllocator().allocate([query], sensors)
        assert len(result.assignments[query.query_id]) == 2

    def test_later_query_reuses_selected_sensor_free(self):
        q1 = self._aggregate(budget=200.0, query_id="first")
        q2 = self._aggregate(budget=200.0, query_id="second")
        sensor = make_snapshot(0, x=10, y=10, cost=8.0)
        result = BaselineAllocator().allocate([q1, q2], [sensor])
        assert result.query_payment("first") == pytest.approx(8.0)
        assert result.query_payment("second") == pytest.approx(0.0)
        assert result.sensor_income(0) == pytest.approx(8.0)

    def test_stops_on_quality_dilution(self):
        """eq. 5 is non-monotone: the baseline must not add a sensor whose
        dilution outweighs its coverage."""
        query = self._aggregate(budget=100.0)
        good = make_snapshot(0, x=10, y=10, cost=1.0, trust=1.0)
        junk = make_snapshot(1, x=10.2, y=10, cost=1.0, trust=0.01)
        result = BaselineAllocator().allocate([query], [good, junk])
        assert result.assignments[query.query_id] == (0,)


@pytest.mark.parametrize(
    "allocator", [GreedyAllocator, BaselineAllocator], ids=["greedy", "baseline"]
)
def test_value_override_is_honoured(allocator):
    """A query overriding ``value`` is valued through its own ``value`` by
    the generic block, not its base's closed form."""
    query = HalfValuePointQuery(Location(0, 0), budget=10.0, theta_min=0.0, dmax=5.0)
    sensor = make_snapshot(0, x=1, y=0, cost=3.0)
    expected = query.value([sensor])
    assert expected == pytest.approx(4.0)
    result = allocator().allocate([query], [sensor])
    assert result.values[query.query_id] == expected
    result.verify()

