"""Metamorphic allocator properties on small random slots (Hypothesis).

An irrelevant sensor changes nothing: adding a sensor outside every
query's reach — anywhere in the announcement order, at any price — must
leave Greedy's and Baseline's selection, assignments, values and payments
``==`` to the slot without it.  The slots mix point, multi-sensor point,
aggregate, trajectory and event-slot queries, so every built-in gain block
sees its columns shift under it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_snapshot
from repro.core import BaselineAllocator, GreedyAllocator
from repro.queries import (
    EventSlotQuery,
    MultiSensorPointQuery,
    PointQuery,
    SpatialAggregateQuery,
    TrajectoryQuery,
)
from repro.spatial import Location, Region, Trajectory

SIDE = 20.0
WORLD = Region.from_origin(SIDE, SIDE)


def mixed_slot(seed: int, n_sensors: int, counts: tuple[int, ...]):
    """Queries of every one-shot type (``counts`` per type) and sensors."""
    rng = np.random.default_rng(seed)
    n_point, n_multi, n_agg, n_traj, n_event = counts

    def location():
        return Location(float(rng.uniform(0, SIDE)), float(rng.uniform(0, SIDE)))

    queries = []
    for i in range(n_point):
        queries.append(PointQuery(
            location(), budget=float(rng.uniform(5, 25)),
            theta_min=float(rng.choice([0.0, 0.2])), dmax=6.0, query_id=f"p{i}",
        ))
    for i in range(n_multi):
        queries.append(MultiSensorPointQuery(
            location(), budget=float(rng.uniform(10, 30)),
            n_readings=int(rng.integers(1, 4)), dmax=8.0, query_id=f"m{i}",
        ))
    for i in range(n_agg):
        queries.append(SpatialAggregateQuery(
            Region.random_subregion(WORLD, rng, min_side=4, max_side=10),
            budget=float(rng.uniform(15, 40)), sensing_range=5.0,
            coverage_radius=2.5, query_id=f"a{i}",
        ))
    for i in range(n_traj):
        queries.append(TrajectoryQuery(
            Trajectory.random(WORLD, rng), budget=float(rng.uniform(15, 40)),
            sensing_range=3.0, query_id=f"t{i}",
        ))
    for i in range(n_event):
        query = EventSlotQuery(
            location(), budget=float(rng.uniform(10, 25)),
            required_confidence=float(rng.uniform(0.5, 0.95)),
            theta_min=0.1, dmax=7.0, parent_id=f"parent{i}",
        )
        query.query_id = f"e{i}"
        queries.append(query)
    sensors = [
        make_snapshot(
            j,
            x=float(rng.uniform(0, SIDE)),
            y=float(rng.uniform(0, SIDE)),
            cost=float(rng.uniform(0.5, 10)),
            inaccuracy=float(rng.uniform(0, 0.3)),
            trust=float(rng.uniform(0.4, 1.0)),
        )
        for j in range(n_sensors)
    ]
    return queries, sensors


def assert_same_allocation(a, b):
    assert a.selected == b.selected
    assert a.assignments == b.assignments
    assert a.values == b.values
    assert a.payments == b.payments


@pytest.mark.parametrize(
    "allocator", [GreedyAllocator, BaselineAllocator], ids=["greedy", "baseline"]
)
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sensors=st.integers(1, 24),
    counts=st.tuples(*[st.integers(0, 3)] * 5),
    where=st.floats(0.0, 1.0),
    away=st.tuples(
        st.sampled_from([-1.0, 1.0]), st.floats(60.0, 1e4),
        st.sampled_from([-1.0, 0.0, 1.0]), st.floats(0.0, 1e4),
    ),
    far_cost=st.floats(0.0, 20.0),
)
def test_an_irrelevant_sensor_changes_nothing(
    allocator, seed, n_sensors, counts, where, away, far_cost
):
    queries, sensors = mixed_slot(seed, n_sensors, counts)
    sx, dx, sy, dy = away
    far = make_snapshot(
        n_sensors, x=0.5 * SIDE + sx * dx, y=0.5 * SIDE + sy * dy, cost=far_cost
    )
    assert not any(query.relevant(far) for query in queries)
    at = int(where * n_sensors)
    with_far = sensors[:at] + [far] + sensors[at:]
    assert_same_allocation(
        allocator().allocate(queries, with_far), allocator().allocate(queries, sensors)
    )
