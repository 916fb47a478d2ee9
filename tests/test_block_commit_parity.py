"""Gain blocks own the greedy state: commits through a block vs the scalar
oracle states.

Allocators grow a query's sensor set only through ``GainBlock.commit``,
and the block's later gains read the state its own commits left.  The
scalar valuation states in ``tests/oracles.py`` are the reference: for
each built-in query type and for the generic block, a block with several
members and the members' oracle states take the same commits — relevant
columns, irrelevant ones and repeats, to members in any order — and after
every commit

* each commit realizes the oracle state's gain, and each member's value is
  ``==`` its oracle state's value;
* the block's gains over every member's relevant columns match the oracle
  states' ``gain``: bit for bit for the coverage types and the generic
  block, which share the scalar arithmetic, and within 1e-12 relative for
  the point-flavoured types, whose candidate qualities go through
  ``np.hypot`` where the scalar eq. (4) uses ``math.hypot``.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_snapshot, member_block, relevance_row
from oracles import new_state
from repro.core import ValuationKernel
from repro.queries import (
    EventSlotQuery,
    GainBlock,
    MultiSensorPointQuery,
    PointQuery,
    SensorRoster,
    SpatialAggregateQuery,
    TrajectoryQuery,
)
from repro.queries.aggregate import _CoverageBlock
from repro.queries.event import _EventBlock
from repro.queries.point import _BestSensorBlock, _TopKBlock
from repro.spatial import Location, Region, Trajectory

SIDE = 20.0
ULP = dict(rel=1e-12, abs=1e-12)


class BestTwo(PointQuery):
    """A user valuation on point geometry: the two best eq.-(3) values.

    Redefining ``value`` selects the generic block."""

    def value(self, snapshots):
        best = sorted((self.value_single(s) for s in snapshots), reverse=True)
        return sum(best[:2])


def _location(rng):
    return Location(float(rng.uniform(0, SIDE)), float(rng.uniform(0, SIDE)))


def _point(rng, cls=PointQuery):
    return cls(
        _location(rng), budget=float(rng.uniform(5, 25)),
        theta_min=float(rng.uniform(0.0, 0.3)), dmax=float(rng.uniform(4, 10)),
    )


def _multi(rng):
    return MultiSensorPointQuery(
        _location(rng), budget=float(rng.uniform(5, 25)),
        n_readings=int(rng.integers(1, 4)),
        theta_min=float(rng.uniform(0.0, 0.3)), dmax=float(rng.uniform(4, 10)),
    )


def _aggregate(rng):
    world = Region.from_origin(SIDE, SIDE)
    return SpatialAggregateQuery(
        Region.random_subregion(world, rng, min_side=4, max_side=10),
        budget=float(rng.uniform(10, 40)), sensing_range=float(rng.uniform(3, 6)),
        coverage_radius=float(rng.uniform(1, 3)),
    )


def _trajectory(rng):
    return TrajectoryQuery(
        Trajectory.random(Region.from_origin(SIDE, SIDE), rng),
        budget=float(rng.uniform(10, 40)), sensing_range=float(rng.uniform(1.5, 4)),
        spacing=float(rng.uniform(0.5, 2.0)),
    )


def _event(rng):
    return EventSlotQuery(
        _location(rng), budget=float(rng.uniform(5, 25)),
        required_confidence=float(rng.uniform(0.3, 1.0)),
        theta_min=float(rng.uniform(0.0, 0.3)), dmax=float(rng.uniform(4, 10)),
        parent_id="ev-parent",
    )


#: kind -> (query factory, the block it builds, exact gains?)
KINDS = {
    "point": (_point, _BestSensorBlock, False),
    "multi_point": (_multi, _TopKBlock, False),
    "aggregate": (_aggregate, _CoverageBlock, True),
    "trajectory": (_trajectory, _CoverageBlock, True),
    "event": (_event, _EventBlock, False),
    "generic": (lambda rng: _point(rng, BestTwo), GainBlock, True),
}


def random_sensors(rng, n=30):
    return [
        make_snapshot(
            i, x=float(rng.uniform(0, SIDE)), y=float(rng.uniform(0, SIDE)),
            cost=float(rng.uniform(1, 10)), inaccuracy=float(rng.uniform(0, 0.3)),
            trust=float(rng.uniform(0.4, 1.0)),
        )
        for i in range(n)
    ]


def make_roster(rng, sensors, on_kernel):
    """A plain roster, or a kernel roster over a random ascending subset of
    the kernel's columns (what ``gain_setup`` builds)."""
    if not on_kernel:
        return SensorRoster(sensors)
    kernel = ValuationKernel.from_sensors(sensors)
    cols = np.sort(rng.choice(len(sensors), size=len(sensors) * 3 // 4, replace=False))
    return kernel.roster(cols, kernel.sensors)


def assert_gains_match(block, states, relevant, exact):
    cols = [np.flatnonzero(rel) for rel in relevant]
    member_idx = np.repeat(np.arange(len(cols)), [len(c) for c in cols])
    got = block.gain_many_block(member_idx, np.concatenate(cols))
    snapshots = block.roster.snapshots
    want = np.array(
        [states[p].gain(snapshots[j]) for p, c in enumerate(cols) for j in c], dtype=float
    )
    if exact:
        assert np.array_equal(got, want)
    else:
        assert got == pytest.approx(want, **ULP)


@pytest.mark.parametrize("on_kernel", [False, True], ids=["plain", "kernel-subset"])
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_block_commits_match_the_oracle_states(kind, seed, on_kernel):
    make_query, block_cls, exact = KINDS[kind]
    rng = np.random.default_rng(7300 + seed)
    roster = make_roster(rng, random_sensors(rng), on_kernel)
    queries = []
    while len(queries) < 3:
        query = make_query(rng)
        if relevance_row(query, roster).any():
            queries.append(query)
    block = member_block(queries, roster)
    assert type(block) is block_cls
    states = [new_state(q) for q in queries]
    relevant = [relevance_row(q, roster) for q in queries]
    assert_gains_match(block, states, relevant, exact)
    relevant_commits = 0
    for _ in range(12):
        p = int(rng.integers(len(queries)))
        rel = np.flatnonzero(relevant[p])
        # Mostly relevant columns, sometimes any column (a repeat included).
        if rel.size and rng.random() < 0.75:
            j = int(rng.choice(rel))
        else:
            j = int(rng.integers(roster.n_sensors))
        relevant_commits += bool(relevant[p][j])
        realized = block.commit(p, j)
        assert realized == states[p].add(roster.snapshots[j])
        assert [float(v) for v in block.values] == [s.value for s in states]
        assert_gains_match(block, states, relevant, exact)
    assert relevant_commits >= 6
