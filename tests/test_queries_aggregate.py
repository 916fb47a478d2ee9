"""Tests for aggregate and trajectory queries (eq. 5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import block_gains, make_snapshot, member_block, relevance_row
from repro.queries import (
    QueryType,
    SensorRoster,
    SpatialAggregateQuery,
    TrajectoryQuery,
    sensor_quality,
)
from repro.spatial import Location, Region, Trajectory

REGION = Region(0, 0, 20, 20)


def agg(budget=100.0, sensing_range=5.0, coverage_radius=None) -> SpatialAggregateQuery:
    return SpatialAggregateQuery(
        REGION, budget=budget, sensing_range=sensing_range, coverage_radius=coverage_radius
    )


class TestSensorQuality:
    def test_quality_formula(self):
        snap = make_snapshot(inaccuracy=0.2, trust=0.5)
        assert sensor_quality(snap) == pytest.approx(0.8 * 0.5)


class TestSpatialAggregateQuery:
    def test_eq5_value(self):
        query = agg(budget=100.0, sensing_range=5.0)
        snaps = [
            make_snapshot(0, x=5, y=5, inaccuracy=0.1, trust=1.0),
            make_snapshot(1, x=15, y=15, inaccuracy=0.3, trust=1.0),
        ]
        coverage = query.coverage([s.location for s in snaps])
        mean_q = (0.9 + 0.7) / 2
        assert query.value(snaps) == pytest.approx(100.0 * coverage * mean_q)

    def test_empty_set(self):
        assert agg().value([]) == 0.0

    def test_relevance_boundary(self):
        query = agg(sensing_range=5.0)
        assert query.relevant(make_snapshot(x=10, y=10))  # inside
        assert query.relevant(make_snapshot(x=24, y=10))  # 4 away from edge
        assert not query.relevant(make_snapshot(x=26, y=10))  # 6 away

    def test_irrelevant_sensor_never_helps(self):
        query = agg(sensing_range=5.0)
        inside = make_snapshot(0, x=10, y=10)
        outside = make_snapshot(1, x=40, y=40)
        assert query.value([inside, outside]) <= query.value([inside])

    def test_low_quality_sensor_can_reduce_value(self):
        """Eq. 5 is non-monotone: quality dilution (Section 3.2)."""
        query = agg(budget=100.0, sensing_range=20.0)
        good = make_snapshot(0, x=10, y=10, inaccuracy=0.0, trust=1.0)
        junk = make_snapshot(1, x=10.5, y=10, inaccuracy=0.0, trust=0.05)
        assert query.value([good, junk]) < query.value([good])

    def test_not_submodular_witness(self):
        """Section 3.2: quality weighting destroys submodularity.

        Adding a zero-quality sensor dilutes the quality mean by 1/(n+1):
        the damage *shrinks* as the base set grows, violating diminishing
        returns.  With heroes co-located, coverage is constant and the
        arithmetic is exact: gains are -BG/2 vs -BG/3.
        """
        query = agg(budget=100.0, sensing_range=4.0)
        hero1 = make_snapshot(0, x=10, y=10, trust=1.0)
        hero2 = make_snapshot(1, x=10, y=10.01, trust=1.0)
        junk = make_snapshot(2, x=10, y=10, trust=0.0)
        gain_small = query.value([hero1, junk]) - query.value([hero1])
        gain_big = query.value([hero1, hero2, junk]) - query.value([hero1, hero2])
        # Diminishing returns would require gain_big <= gain_small.
        assert gain_big > gain_small
        assert gain_small < 0  # and the function is non-monotone, too

    def test_incremental_state_matches_direct(self):
        rng = np.random.default_rng(0)
        query = agg(budget=50.0, sensing_range=6.0)
        snaps = [
            make_snapshot(
                i,
                x=float(rng.uniform(-5, 25)),
                y=float(rng.uniform(-5, 25)),
                inaccuracy=float(rng.uniform(0, 0.2)),
                trust=float(rng.uniform(0.3, 1.0)),
            )
            for i in range(12)
        ]
        roster = SensorRoster(snaps)
        block = member_block(query, roster)
        relevant = relevance_row(query, roster)
        for j in range(len(snaps)):
            gain = block_gains(block, [j])[0] if relevant[j] else None
            realized = block.commit(0, j)
            if gain is not None:
                assert gain == pytest.approx(realized, abs=1e-9)
        assert block.values[0] == pytest.approx(query.value(snaps), abs=1e-9)

    def test_coverage_radius_separate_from_sensing_range(self):
        wide = agg(sensing_range=5.0)
        narrow = agg(sensing_range=5.0, coverage_radius=1.0)
        snap = make_snapshot(x=10, y=10)
        assert narrow.value([snap]) < wide.value([snap])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SpatialAggregateQuery(REGION, budget=1.0, sensing_range=0.0)
        with pytest.raises(ValueError):
            SpatialAggregateQuery(REGION, budget=1.0, coverage_radius=-1.0)

    def test_query_type(self):
        assert agg().query_type is QueryType.AGGREGATE

    @given(st.floats(0, 20), st.floats(0, 20))
    @settings(max_examples=30)
    def test_value_bounded_by_budget(self, x, y):
        query = agg(budget=40.0)
        snap = make_snapshot(x=x, y=y)
        assert 0.0 <= query.value([snap]) <= 40.0 + 1e-9


class TestTrajectoryQuery:
    def _query(self, budget=50.0):
        path = Trajectory.from_points([Location(0, 0), Location(20, 0)])
        return TrajectoryQuery(path, budget=budget, sensing_range=3.0, spacing=1.0)

    def test_query_type(self):
        assert self._query().query_type is QueryType.TRAJECTORY

    def test_on_path_sensor_scores(self):
        query = self._query()
        snap = make_snapshot(x=10, y=0)
        assert query.value([snap]) > 0.0

    def test_far_sensor_is_irrelevant(self):
        query = self._query()
        assert not query.relevant(make_snapshot(x=10, y=10))
        assert query.relevant(make_snapshot(x=10, y=4))

    def test_more_path_sensors_cover_more(self):
        query = self._query()
        one = [make_snapshot(0, x=5, y=0)]
        two = one + [make_snapshot(1, x=15, y=0)]
        assert query.value(two) > query.value(one)

    def test_incremental_state(self):
        query = self._query()
        snaps = [make_snapshot(i, x=4.0 * i, y=0.5) for i in range(5)]
        block = member_block(query, SensorRoster(snaps))
        for j in range(len(snaps)):
            assert block_gains(block, [j])[0] == pytest.approx(block.commit(0, j), abs=1e-9)
        assert block.values[0] == pytest.approx(query.value(snaps), abs=1e-9)

    def test_nearest_path_distance(self):
        query = self._query()
        assert query.nearest_path_distance(Location(10, 2)) == pytest.approx(2.0)
