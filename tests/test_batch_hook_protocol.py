"""The batch hooks are the extension protocol, checked when a class is defined.

Allocators reach a query's relevance only through ``Query.relevant_mask``
and its gains and commits only through the block ``Query.gain_block``
builds.  So:

* a ``Query`` subclass without ``relevant_mask`` cannot be instantiated;
* a class body that defines a scalar relevance hook (``relevant``,
  ``value_single`` or ``quality``) without ``relevant_mask`` in the same
  body is refused at definition with a one-line ``TypeError``, so an
  inherited batch form can never answer for changed scalar semantics;
* a class body that redefines the valuation (``value``, ``value_single``
  or ``quality``) without ``gain_block`` gets the generic ``GainBlock``,
  so an inherited closed form can never answer for a changed valuation;
* a user-defined query type that defines only ``value`` — the generic
  block — allocates exactly like the per-pair scalar greedy oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_snapshot, member_block
from oracles import ScalarGreedyAllocator, ValuationState, new_state
from repro.core import BaselineAllocator, GreedyAllocator
from repro.queries import (
    EventSlotQuery,
    GainBlock,
    MultiSensorPointQuery,
    PointQuery,
    Query,
    QueryType,
    SensorRoster,
    SpatialAggregateQuery,
    TrajectoryQuery,
)
from repro.spatial import Location


def _scalar_hook(self, snapshot):
    return True


def _mask_hook(self, xy, gamma=None, trust=None):
    return np.ones(len(xy), dtype=bool)


def assert_one_line(exc: pytest.ExceptionInfo, expected: str) -> None:
    message = str(exc.value)
    assert "\n" not in message
    assert message == expected


class TestQueryProtocol:
    def test_query_without_relevant_mask_cannot_be_instantiated(self):
        class NoMask(Query):
            query_type = QueryType.POINT

            def value(self, snapshots):
                return 0.0

        with pytest.raises(TypeError) as exc:
            NoMask(budget=1.0)
        message = str(exc.value)
        assert "\n" not in message
        assert "NoMask" in message and "relevant_mask" in message

    @pytest.mark.parametrize(
        "base,hook",
        [
            (Query, "relevant"),
            (PointQuery, "relevant"),
            (PointQuery, "value_single"),
            (PointQuery, "quality"),
            (MultiSensorPointQuery, "relevant"),
            (MultiSensorPointQuery, "quality"),
            (EventSlotQuery, "quality"),
            (SpatialAggregateQuery, "relevant"),
            (TrajectoryQuery, "relevant"),
        ],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_scalar_only_override_is_refused_at_definition(self, base, hook):
        with pytest.raises(TypeError) as exc:
            type("ScalarOnly", (base,), {hook: _scalar_hook})
        assert_one_line(
            exc,
            f"ScalarOnly defines {hook}() but not relevant_mask(); "
            f"define both in the same class",
        )

    @pytest.mark.parametrize(
        "base", [PointQuery, MultiSensorPointQuery, SpatialAggregateQuery]
    )
    def test_paired_or_untouched_subclasses_are_accepted(self, base):
        paired = type("Paired", (base,), {"relevant": _scalar_hook,
                                          "relevant_mask": _mask_hook})
        untouched = type("Untouched", (base,), {})
        assert paired.relevant_mask is _mask_hook
        assert untouched.relevant_mask is base.relevant_mask


BUILTINS = [PointQuery, MultiSensorPointQuery, SpatialAggregateQuery, TrajectoryQuery,
            EventSlotQuery]


def _value_hook(self, snapshots):
    return 0.0


class TestGainBlockProtocol:
    @pytest.mark.parametrize("hook", ["value", "value_single", "quality"])
    @pytest.mark.parametrize("base", BUILTINS, ids=lambda c: c.__name__)
    def test_new_valuation_gets_the_generic_block(self, base, hook):
        body = {hook: _value_hook, "relevant_mask": _mask_hook}
        cls = type("NewValuation", (base,), body)
        assert cls.gain_block.__func__ is Query.gain_block.__func__
        assert base.gain_block.__func__ is not Query.gain_block.__func__

    @pytest.mark.parametrize("base", BUILTINS, ids=lambda c: c.__name__)
    def test_untouched_or_relevance_only_subclasses_keep_the_block(self, base):
        untouched = type("Untouched", (base,), {})
        relevance = type("Relevance", (base,), {"relevant": _scalar_hook,
                                                "relevant_mask": _mask_hook})
        for cls in (untouched, relevance):
            assert cls.gain_block.__func__ is base.gain_block.__func__

    def test_valuation_with_its_own_block_keeps_it(self):
        def own(cls, queries, roster, columns):
            return GainBlock(queries, roster)

        cls = type("Own", (PointQuery,), {"value": _value_hook,
                                          "gain_block": classmethod(own)})
        assert cls.gain_block.__func__ is own

    def test_point_subclass_overriding_only_value_gets_the_generic_block(self):
        class Doubled(PointQuery):
            def value(self, snapshots):
                return 2.0 * super().value(snapshots)

        query = Doubled(Location(0, 0), budget=10.0, theta_min=0.0, dmax=5.0)
        sensors = [make_snapshot(0, x=1, y=0, cost=3.0), make_snapshot(1, x=2, y=0)]
        block = member_block(query, SensorRoster(sensors))
        assert type(block) is GainBlock
        assert type(new_state(query)) is ValuationState
        assert block.commit(0, 0) == query.value(sensors[:1]) == 16.0
        result = GreedyAllocator().allocate([query], sensors)
        assert result.values[query.query_id] == 16.0


class NearCount(Query):
    """A user-defined black-box valuation: ``B * min(1, |S| / k)`` over
    sensors within ``reach`` — no closed-form block, the generic one."""

    query_type = QueryType.MULTI_POINT

    def __init__(self, location, budget, k=2, reach=4.0, **kwargs):
        super().__init__(budget, **kwargs)
        self.location = location
        self.k = k
        self.reach = reach

    def value(self, snapshots):
        count = sum(1 for s in snapshots if self.relevant(s))
        return self.budget * min(1.0, count / self.k)

    def relevant(self, snapshot):
        return snapshot.location.distance_to(self.location) <= self.reach

    def relevant_mask(self, xy, gamma=None, trust=None):
        return np.hypot(xy[:, 0] - self.location.x, xy[:, 1] - self.location.y) <= self.reach


@pytest.mark.parametrize("seed", range(3))
def test_user_defined_type_with_the_generic_block_allocates_like_the_oracle(seed):
    rng = np.random.default_rng(9100 + seed)
    sensors = [
        make_snapshot(i, x=float(x), y=float(y), cost=float(c))
        for i, (x, y, c) in enumerate(
            zip(rng.integers(0, 20, 30), rng.integers(0, 20, 30), rng.uniform(1, 8, 30))
        )
    ]
    queries = [
        NearCount(Location(float(x), float(y)), budget=float(b), query_id=f"n{i}")
        for i, (x, y, b) in enumerate(
            zip(rng.uniform(0, 20, 6), rng.uniform(0, 20, 6), rng.uniform(5, 20, 6))
        )
    ]
    assert type(member_block(queries, SensorRoster(sensors))) is GainBlock
    result = GreedyAllocator().allocate(queries, sensors)
    oracle = ScalarGreedyAllocator().allocate(queries, sensors)
    assert result.assignments == oracle.assignments
    assert result.values == oracle.values
    assert result.payments == oracle.payments
    assert result.selected
    BaselineAllocator().allocate(queries, sensors).verify()
