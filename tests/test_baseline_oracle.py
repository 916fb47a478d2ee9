"""Seeded Baseline oracle: the sequential baseline's allocations, recorded.

``fixtures/baseline_oracle.json`` holds :func:`observe` of the slots below,
recorded (``json.dump`` of its output) while :class:`BaselineAllocator`
still ran its own relevance pass, one roster per query and the per-row
batch gain states.  The allocator now evaluates gains through the same
per-type gain blocks, built by the same setup, as Greedy; every slot must
reproduce the recorded selection, assignments, values and payments
exactly (``==``, insertion order included).  Never re-record the fixture
to make a change pass.

The slots cover every built-in one-shot type (point, multi-sensor point,
aggregate, trajectory, event slot), all of them mixed in one slot, and a
point slot whose queries share a handful of locations, so co-location
sharing and its zero-cost riders are pinned too.  Every query carries an
explicit id: automatic ids come from a process-global counter.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import make_snapshot
from repro.core import BaselineAllocator
from repro.queries import (
    EventSlotQuery,
    MultiSensorPointQuery,
    PointQuery,
    SpatialAggregateQuery,
    TrajectoryQuery,
)
from repro.spatial import Location, Region, Trajectory

FIXTURE = Path(__file__).parent / "fixtures" / "baseline_oracle.json"
SIDE = 40.0
WORLD = Region.from_origin(SIDE, SIDE)


def _sensors(rng, n):
    return [
        make_snapshot(
            i,
            x=float(rng.uniform(0, SIDE)),
            y=float(rng.uniform(0, SIDE)),
            cost=float(rng.uniform(1, 10)),
            inaccuracy=float(rng.uniform(0, 0.3)),
            trust=float(rng.uniform(0.4, 1.0)),
        )
        for i in range(n)
    ]


def _location(rng):
    return Location(float(rng.uniform(0, SIDE)), float(rng.uniform(0, SIDE)))


def _points(rng, n):
    return [
        PointQuery(
            _location(rng), budget=float(rng.uniform(5, 25)),
            theta_min=float(rng.choice([0.0, 0.2])), dmax=7.0, query_id=f"p{i}",
        )
        for i in range(n)
    ]


def _multi_points(rng, n):
    return [
        MultiSensorPointQuery(
            _location(rng), budget=float(rng.uniform(15, 40)),
            n_readings=int(rng.integers(1, 4)), dmax=8.0, query_id=f"m{i}",
        )
        for i in range(n)
    ]


def _aggregates(rng, n):
    return [
        SpatialAggregateQuery(
            Region.random_subregion(WORLD, rng, min_side=6, max_side=18),
            budget=float(rng.uniform(20, 60)), sensing_range=6.0,
            coverage_radius=3.0, query_id=f"a{i}",
        )
        for i in range(n)
    ]


def _trajectories(rng, n):
    return [
        TrajectoryQuery(
            Trajectory.random(WORLD, rng), budget=float(rng.uniform(20, 50)),
            sensing_range=4.0, query_id=f"t{i}",
        )
        for i in range(n)
    ]


def _events(rng, n):
    queries = []
    for i in range(n):
        query = EventSlotQuery(
            _location(rng), budget=float(rng.uniform(10, 30)),
            required_confidence=float(rng.uniform(0.6, 0.95)),
            theta_min=0.1, dmax=8.0, parent_id=f"parent{i}",
        )
        query.query_id = f"e{i}"
        queries.append(query)
    return queries


def _colocated(rng, n):
    spots = [_location(rng) for _ in range(4)]
    return [
        PointQuery(
            spots[int(rng.integers(len(spots)))], budget=float(rng.uniform(5, 25)),
            theta_min=float(rng.choice([0.0, 0.2])), dmax=7.0, query_id=f"c{i}",
        )
        for i in range(n)
    ]


def slots():
    """``name -> (queries, sensors)`` for every recorded slot."""
    out = {}
    kinds = {
        "point": lambda rng: _points(rng, 40),
        "multi_point": lambda rng: _multi_points(rng, 10),
        "aggregate": lambda rng: _aggregates(rng, 8),
        "trajectory": lambda rng: _trajectories(rng, 5),
        "event": lambda rng: _events(rng, 10),
        "colocated": lambda rng: _colocated(rng, 30),
        "mixed": lambda rng: (
            _aggregates(rng, 4) + _points(rng, 15) + _multi_points(rng, 4)
            + _trajectories(rng, 3) + _events(rng, 4) + _colocated(rng, 10)
        ),
    }
    for k, (name, make) in enumerate(kinds.items()):
        for seed in range(3):
            rng = np.random.default_rng(100 * k + seed)
            queries = make(rng)
            out[f"{name}-{seed}"] = (queries, _sensors(rng, 90))
    return out


def observe(result) -> dict:
    """The allocation, in insertion order, as JSON-safe lists."""
    return {
        "selected": list(result.selected),
        "assignments": [[qid, list(sids)] for qid, sids in result.assignments.items()],
        "values": [[qid, value] for qid, value in result.values.items()],
        "payments": [[qid, sid, p] for (qid, sid), p in result.payments.items()],
    }


def observe_all() -> dict:
    return {
        name: observe(BaselineAllocator().allocate(queries, sensors))
        for name, (queries, sensors) in slots().items()
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(slots()))
def test_baseline_matches_recorded_allocation(recorded, name):
    queries, sensors = slots()[name]
    got = observe(BaselineAllocator().allocate(queries, sensors))
    assert got == recorded[name]


def test_every_slot_allocates_something(recorded):
    assert set(recorded) == set(slots())
    for name, observed in recorded.items():
        assert observed["selected"], name
