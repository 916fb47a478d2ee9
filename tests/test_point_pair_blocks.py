"""Per-pair point-type gain blocks vs the dense-row oracles.

``_BestSensorBlock``, ``_TopKBlock`` and ``_EventBlock`` evaluate eq. (4)
only on the ``(member_idx, indices)`` pairs they are asked about.  Their
gains must be ``==`` the roster-wide dense rows of ``tests/oracles.py``
(``BestSensorRows``, ``TopKRows``, ``EventRows``) read at the same columns,
whatever the pair list holds: irrelevant columns, repeated columns,
members in any order, members left out, and members with 0–3 commits.
Each commit goes through the block and through the oracle state the rows
read, and both must realize the same gain and value.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_snapshot, member_block, relevance_row
from oracles import BestSensorRows, EventRows, TopKRows, new_state
from repro.core import ValuationKernel
from repro.queries import EventSlotQuery, MultiSensorPointQuery, PointQuery, SensorRoster
from repro.queries.event import _EventBlock
from repro.queries.point import _BestSensorBlock, _TopKBlock
from repro.spatial import Location

SIDE = 20.0


class SubclassedPoint(PointQuery):
    """A ``PointQuery`` subclass: allocators screen it through its own mask
    instead of the kernel's sparse values, and its pairs still go through
    the point block."""


def random_sensors(rng, n=30):
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


def point_queries(rng):
    queries = []
    for p in range(5):
        cls = SubclassedPoint if p % 2 else PointQuery
        queries.append(
            cls(
                _location(rng),
                budget=float(rng.uniform(5, 25)),
                theta_min=float(rng.uniform(0.0, 0.4)),
                dmax=float(rng.uniform(3, 10)),
            )
        )
    return queries


def multi_queries(rng):
    return [
        MultiSensorPointQuery(
            _location(rng),
            budget=float(rng.uniform(5, 25)),
            n_readings=int(rng.integers(1, 5)),
            theta_min=float(rng.uniform(0.0, 0.4)),
            dmax=float(rng.uniform(3, 10)),
        )
        for _ in range(5)
    ]


def event_queries(rng):
    return [
        EventSlotQuery(
            _location(rng),
            budget=float(rng.uniform(5, 25)),
            required_confidence=float(rng.uniform(0.3, 1.0)),
            theta_min=float(rng.uniform(0.0, 0.4)),
            dmax=float(rng.uniform(3, 10)),
            parent_id="ev-parent",
        )
        for _ in range(5)
    ]


BLOCKS = {
    "best-sensor": (point_queries, _BestSensorBlock, BestSensorRows),
    "top-k": (multi_queries, _TopKBlock, TopKRows),
    "event": (event_queries, _EventBlock, EventRows),
}


def make_roster(rng, sensors, on_kernel):
    """A plain roster over every sensor, or a kernel roster over a random
    ascending subset of its columns (what ``gain_setup`` builds)."""
    if not on_kernel:
        return SensorRoster(sensors)
    kernel = ValuationKernel.from_sensors(sensors)
    cols = np.sort(rng.choice(len(sensors), size=len(sensors) * 2 // 3, replace=False))
    return kernel.roster(cols, kernel.sensors)


def pair_list(rng, relevant):
    """Member-grouped pairs over a random subset of members in random
    order; each member's run mixes relevant columns, irrelevant ones and
    repeats."""
    n = len(relevant[0])
    members, columns = [], []
    for u in rng.permutation(len(relevant))[: int(rng.integers(1, len(relevant) + 1))]:
        rel, irr = np.flatnonzero(relevant[u]), np.flatnonzero(~relevant[u])
        picks = [rng.choice(n, size=3)]  # anything, repeats allowed
        if rel.size:
            picks.append(rng.choice(rel, size=2))
        if irr.size:
            picks.append(rng.choice(irr, size=2))
        cols = np.concatenate(picks)
        cols = np.concatenate([cols, cols[:1]])  # a repeated column, always
        members.append(np.full(len(cols), u, dtype=np.intp))
        columns.append(rng.permutation(cols).astype(np.intp))
    return np.concatenate(members), np.concatenate(columns)


@pytest.mark.parametrize("on_kernel", [False, True], ids=["plain", "kernel-subset"])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", sorted(BLOCKS))
def test_block_gains_equal_the_dense_rows(kind, seed, on_kernel):
    make_queries, block_cls, row_cls = BLOCKS[kind]
    rng = np.random.default_rng(9100 + seed)
    sensors = random_sensors(rng)
    roster = make_roster(rng, sensors, on_kernel)
    queries = make_queries(rng)
    states = [new_state(q) for q in queries]
    relevant = [relevance_row(q, roster) for q in queries]
    block = member_block(queries, roster)
    assert type(block) is block_cls
    rows = [row_cls(state, roster) for state in states]
    saw_irrelevant = saw_repeat = False
    # Commit one random roster sensor to a random subset of members between
    # rounds, so members reach 0–3 commits at different paces.
    for _ in range(4):
        member_idx, indices = pair_list(rng, relevant)
        got = block.gain_many_block(member_idx, indices)
        want = np.empty(len(member_idx))
        for u in np.unique(member_idx):
            at = member_idx == u
            want[at] = rows[u].gain_many(indices[at])
        assert np.array_equal(got, want)
        saw_irrelevant |= bool((~np.stack(relevant)[member_idx, indices]).any())
        saw_repeat |= len(set(zip(member_idx.tolist(), indices.tolist()))) < len(indices)
        j = int(rng.integers(roster.n_sensors))
        for u, state in enumerate(states):
            if rng.random() < 0.6:
                assert block.commit(u, j) == state.add(roster.snapshots[j])
                assert block.values[u] == state.value
    assert saw_irrelevant and saw_repeat
