"""The reach contract: each query type declares, through
:meth:`~repro.queries.Query.reach_box`, the box its relevance cannot leave.

The kernel's candidate views gather only the grid cells a query's box
touches, so a box that cut off a relevant sensor would change allocations.
The property below pins the contract for every built-in type; the subclass
tests pin the rule :class:`~repro.queries.Query` applies when a class is
defined — new relevance without a new box reaches the full fleet, anything
else keeps its base's box.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gridded_kernel, make_snapshot
from repro.core.valuation import widen_reach_box
from repro.queries import (
    EventSlotQuery,
    MultiSensorPointQuery,
    PointQuery,
    Query,
    SpatialAggregateQuery,
    TrajectoryQuery,
)
from repro.spatial import Location, Region, Trajectory


def _point(cls, x, y, reach, extent):
    return cls(Location(x, y), budget=10.0, theta_min=0.0, dmax=reach)


def _multi(cls, x, y, reach, extent):
    return cls(Location(x, y), budget=10.0, n_readings=2, theta_min=0.0, dmax=reach)


def _event(cls, x, y, reach, extent):
    return cls(
        Location(x, y), budget=10.0, required_confidence=0.9, theta_min=0.0,
        dmax=reach, parent_id="ev-parent",
    )


def _aggregate(cls, x, y, reach, extent):
    return cls(Region(x, y, x + extent, y + extent / 2), budget=10.0, sensing_range=reach)


def _trajectory(cls, x, y, reach, extent):
    path = Trajectory([Location(x, y), Location(x + extent, y + extent / 3),
                       Location(x + extent / 2, y - extent / 2)])
    return cls(path, budget=10.0, sensing_range=reach)


#: per built-in query type the allocators see: its class and a factory
QUERY_TYPES = {
    "point": (PointQuery, _point),
    "multi_point": (MultiSensorPointQuery, _multi),
    "event_slot": (EventSlotQuery, _event),
    "aggregate": (SpatialAggregateQuery, _aggregate),
    "trajectory": (TrajectoryQuery, _trajectory),
}


def build(kind, x, y, reach, extent, cls=None):
    base, make = QUERY_TYPES[kind]
    return make(cls or base, x, y, reach, extent)


#: sensors as offsets from the centre of the box, in half-widths, so that
#: many of them land near its edges, inside and out
offsets = st.floats(-1.25, 1.25)
fleets = st.lists(
    st.tuples(offsets, offsets, st.floats(0.0, 0.3), st.floats(0.5, 1.0)),
    min_size=20,
    max_size=100,
)


@pytest.mark.parametrize("kind", sorted(QUERY_TYPES))
@given(
    fleet=fleets,
    x=st.floats(0.0, 30.0),
    y=st.floats(0.0, 30.0),
    reach=st.floats(0.5, 12.0),
    extent=st.floats(0.5, 15.0),
)
@settings(max_examples=150, deadline=None)
def test_relevance_stays_inside_the_reach_box(kind, fleet, x, y, reach, extent):
    query = build(kind, x, y, reach, extent)
    x_min, x_max, y_min, y_max = query.reach_box()
    cx, cy = (x_min + x_max) / 2, (y_min + y_max) / 2
    hx, hy = (x_max - x_min) / 2, (y_max - y_min) / 2
    xy = np.array([(cx + u * hx, cy + v * hy) for u, v, _, _ in fleet])
    # Relevance may pass the exact box by rounding; the kernel's widened
    # box is what picks the candidate cells.
    x_min, x_max, y_min, y_max = widen_reach_box(query.reach_box())
    gamma = np.array([g for _, _, g, _ in fleet])
    trust = np.array([t for _, _, _, t in fleet])
    outside = (
        (xy[:, 0] < x_min) | (xy[:, 0] > x_max) | (xy[:, 1] < y_min) | (xy[:, 1] > y_max)
    )
    assert not query.relevant_mask(xy, gamma, trust)[outside].any()


def test_rounding_can_carry_relevance_one_ulp_past_the_box():
    """The trajectory box edge is ``(y - r) - r``; a sensor one ulp below it
    rounds to distance exactly ``2r`` and is relevant.  With a grid-cell
    boundary on that edge the sensor sits in the cell below the box, and
    only the widened box keeps it a candidate."""
    query = build("trajectory", 0.0, 1.0, 1.0, 13.725539330950015)
    x_min, x_max, y_min, y_max = query.reach_box()
    x, y = (x_min + x_max) / 2, np.nextafter(y_min, -np.inf)
    assert query.relevant_mask(np.array([[x, y]]))[0]
    # The grid starts at the lowest sensor; a cell side of exactly
    # ``y_min - y0`` (Sterbenz: the difference is exact) puts a boundary on
    # the box edge.
    y0 = y_min - 1.0
    fleet = [make_snapshot(i, x=x, y=at) for i, at in enumerate((y0, y, y_max))]
    kernel = gridded_kernel(fleet, y_min - y0)
    assert kernel.index.cell_range(x_min, x_max, y_min, y_max)[2] == 1
    assert kernel.index.cell_range(x, x, y, y)[2] == 0
    assert 1 in kernel.candidate_indices(query)


@pytest.mark.parametrize("kind", sorted(QUERY_TYPES))
def test_builtin_types_declare_a_box(kind):
    assert build(kind, 10.0, 10.0, 3.0, 6.0).reach_box() is not None


def _fleet(n=80, side=40.0):
    rng = np.random.default_rng(7)
    return [
        make_snapshot(i, x=float(rng.uniform(0, side)), y=float(rng.uniform(0, side)))
        for i in range(n)
    ]


class TestSubclassRule:
    @pytest.mark.parametrize("kind", sorted(QUERY_TYPES))
    def test_a_subclass_that_keeps_relevance_keeps_the_candidate_view(self, kind):
        class Richer(QUERY_TYPES[kind][0]):
            @property
            def max_value(self):
                return 2 * self.budget

        base = build(kind, 12.0, 12.0, 4.0, 8.0)
        query = build(kind, 12.0, 12.0, 4.0, 8.0, cls=Richer)
        kernel = gridded_kernel(_fleet(), 3.0)
        view = kernel.candidate_indices(query)
        assert np.array_equal(view, kernel.candidate_indices(base))
        assert len(view) < kernel.n_sensors

    @pytest.mark.parametrize("kind", sorted(QUERY_TYPES))
    def test_new_relevance_takes_the_full_fleet(self, kind):
        class Relabelled(QUERY_TYPES[kind][0]):
            def relevant_mask(self, xy, gamma=None, trust=None):
                return super().relevant_mask(xy, gamma, trust)

        query = build(kind, 12.0, 12.0, 4.0, 8.0, cls=Relabelled)
        assert query.reach_box() is None
        kernel = gridded_kernel(_fleet(), 3.0)
        assert kernel.candidate_indices(query).tolist() == list(range(kernel.n_sensors))

    def test_new_relevance_with_its_own_box_keeps_that_box(self):
        class Nearer(PointQuery):
            def relevant_mask(self, xy, gamma=None, trust=None):
                near = np.hypot(xy[:, 0] - self.location.x, xy[:, 1] - self.location.y)
                return super().relevant_mask(xy, gamma, trust) & (near <= 1.0)

            def reach_box(self):
                x, y = self.location.x, self.location.y
                return (x - 1.0, x + 1.0, y - 1.0, y + 1.0)

        query = Nearer(Location(12.0, 12.0), budget=10.0, dmax=4.0)
        assert query.reach_box() == (11.0, 13.0, 11.0, 13.0)

    def test_the_base_default_is_the_full_fleet(self):
        assert Query.reach_box(PointQuery(Location(0, 0), budget=1.0)) is None
