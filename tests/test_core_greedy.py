"""Tests for Algorithm 1 (greedy multi-query selection) and Theorem 1."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_point_query, make_snapshot, random_instance
from oracles import ScalarGreedyAllocator
from repro.core import GreedyAllocator, PaymentInvariantError
from repro.queries import SpatialAggregateQuery
from repro.spatial import Region


def random_mixed_instance(seed: int):
    """Point + aggregate queries over a shared sensor pool."""
    rng = np.random.default_rng(seed)
    region = Region.from_origin(20, 20)
    sensors = [
        make_snapshot(
            i,
            x=float(rng.uniform(0, 20)),
            y=float(rng.uniform(0, 20)),
            cost=float(rng.uniform(2, 12)),
            inaccuracy=float(rng.uniform(0, 0.2)),
            trust=float(rng.uniform(0.5, 1.0)),
        )
        for i in range(10)
    ]
    queries = [
        make_point_query(
            x=float(rng.uniform(0, 20)),
            y=float(rng.uniform(0, 20)),
            budget=float(rng.uniform(5, 25)),
            dmax=6.0,
        )
        for _ in range(6)
    ]
    for _ in range(3):
        sub = Region.random_subregion(region, rng, min_side=4, max_side=10)
        queries.append(
            SpatialAggregateQuery(
                sub, budget=float(rng.uniform(20, 60)), sensing_range=6.0,
                coverage_radius=3.0,
            )
        )
    return queries, sensors


class TestTheorem1:
    @pytest.mark.parametrize("seed", range(10))
    def test_property1_telescoping(self, seed):
        """Recorded value per query equals v_q of its assigned set."""
        queries, sensors = random_mixed_instance(seed)
        result = GreedyAllocator().allocate(queries, sensors)
        by_id = {q.query_id: q for q in queries}
        for qid, sensor_ids in result.assignments.items():
            snaps = [result.selected[s] for s in sensor_ids]
            assert result.values[qid] == pytest.approx(
                by_id[qid].value(snaps), rel=1e-6, abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_property2_positive_total_utility(self, seed):
        queries, sensors = random_mixed_instance(seed)
        result = GreedyAllocator().allocate(queries, sensors)
        if result.selected:
            assert result.total_utility > 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_property3_individual_utility_nonnegative(self, seed):
        queries, sensors = random_mixed_instance(seed)
        result = GreedyAllocator().allocate(queries, sensors)
        for qid in result.values:
            assert result.query_utility(qid) >= -1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_cost_recovery(self, seed):
        queries, sensors = random_mixed_instance(seed)
        result = GreedyAllocator().allocate(queries, sensors)
        for sid, snap in result.selected.items():
            assert result.sensor_income(sid) == pytest.approx(snap.cost, abs=1e-9)


class TestGreedyBehaviour:
    def test_selects_shared_sensor_unaffordable_individually(self):
        queries = [
            make_point_query(x=0, y=0, budget=7.0, query_id="a", theta_min=0.0),
            make_point_query(x=0, y=0, budget=7.0, query_id="b", theta_min=0.0),
        ]
        sensor = make_snapshot(0, x=0, y=0, cost=10.0)
        result = GreedyAllocator().allocate(queries, [sensor])
        assert result.answered_count() == 2
        assert result.total_utility == pytest.approx(4.0)

    def test_stops_when_no_positive_net(self):
        queries = [make_point_query(x=0, y=0, budget=5.0, theta_min=0.0)]
        sensor = make_snapshot(0, x=0, y=0, cost=100.0)
        result = GreedyAllocator().allocate(queries, [sensor])
        assert not result.selected

    def test_picks_best_net_sensor_first(self):
        query = make_point_query(x=0, y=0, budget=20.0, theta_min=0.0)
        cheap_far = make_snapshot(0, x=4, y=0, cost=1.0)  # value 4, net 3
        pricey_near = make_snapshot(1, x=0, y=0, cost=5.0)  # value 20, net 15
        result = GreedyAllocator().allocate([query], [cheap_far, pricey_near])
        assert result.assignments[query.query_id] == (1,)

    def test_empty_inputs(self):
        assert GreedyAllocator().allocate([], []).total_utility == 0.0

    def test_matches_bruteforce_on_point_queries_reasonably(self):
        """Greedy has no worst-case guarantee (Section 3.2) but should land
        within a reasonable factor on benign random instances."""
        from repro.core import exhaustive_point_search

        for seed in range(8):
            queries, sensors = random_instance(seed, n_sensors=7, n_queries=9)
            greedy = GreedyAllocator().allocate(queries, sensors)
            _, best = exhaustive_point_search(queries, sensors)
            assert greedy.total_utility >= 0.5 * best - 1e-9

    def test_min_gain_validation(self):
        with pytest.raises(ValueError):
            GreedyAllocator(min_gain=-1.0)

    def test_deterministic(self):
        queries, sensors = random_mixed_instance(4)
        a = GreedyAllocator().allocate(queries, sensors)
        b = GreedyAllocator().allocate(queries, sensors)
        assert a.assignments == b.assignments

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_invariants_hold_on_fuzzed_instances(self, seed):
        queries, sensors = random_mixed_instance(seed)
        GreedyAllocator().allocate(queries, sensors).verify()


class TestVerifyRejectsNonFinite:
    """A NaN-priced sensor can win a round (every comparison with NaN is
    False) and settle a NaN payment.  ``SensorSnapshot`` refuses such a
    price at construction; ``verify`` stays the backstop for one that gets
    past it and must refuse the settlement."""

    @staticmethod
    def _instance():
        # The NaN-priced sensor comes first so the scalar oracle's ``max``
        # keeps it too; both sit on the query's spot.
        with pytest.raises(ValueError, match="finite"):
            make_snapshot(1, cost=float("nan"))
        smuggled = make_snapshot(1, cost=1.0)
        object.__setattr__(smuggled, "cost", float("nan"))
        sensors = [smuggled, make_snapshot(0, cost=1.0)]
        return [make_point_query(query_id="q")], sensors

    @pytest.mark.parametrize(
        "allocator_cls", [GreedyAllocator, ScalarGreedyAllocator], ids=["batch", "scalar"]
    )
    def test_nan_payment_fails_verify(self, allocator_cls):
        queries, sensors = self._instance()
        unchecked = allocator_cls(verify=False).allocate(queries, sensors)
        assert list(unchecked.selected) == [1]
        assert np.isnan(unchecked.payments[("q", 1)])
        with pytest.raises(PaymentInvariantError):
            allocator_cls().allocate(queries, sensors)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_ledger_entries_fail_verify(self, bad):
        from repro.core import AllocationResult

        query = make_point_query(query_id="q")
        for value_gain, payment in ((5.0, bad), (bad, 1.0)):
            result = AllocationResult()
            result.record(query, make_snapshot(0, cost=1.0), value_gain, payment)
            with pytest.raises(PaymentInvariantError):
                result.verify()
