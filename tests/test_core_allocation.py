"""Tests for AllocationResult bookkeeping and its Theorem-1 invariants."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_point_query, make_snapshot
from repro.core import (
    AllocationError,
    AllocationResult,
    PaymentInvariantError,
    RegionMonitoringController,
    RegionSlotOutcome,
    SimulationSummary,
    check_distinct,
    mix_engine,
)
from repro.datasets import build_intel_scenario, build_ozone_dataset
from repro.queries import (
    AggregateQueryWorkload,
    LocationMonitoringWorkload,
    PointQueryWorkload,
    RegionMonitoringWorkload,
)


class TestRecordAndAccounting:
    def test_record_accumulates(self):
        result = AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        result.record("q1", snap, value_gain=8.0, payment=6.0)
        result.record("q2", snap, value_gain=6.0, payment=4.0)
        assert result.total_value == pytest.approx(14.0)
        assert result.total_cost == pytest.approx(10.0)
        assert result.total_utility == pytest.approx(4.0)
        assert result.sensor_income(0) == pytest.approx(10.0)
        assert result.query_payment("q1") == pytest.approx(6.0)
        assert result.query_utility("q1") == pytest.approx(2.0)

    def test_record_same_pair_twice_merges(self):
        result = AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        result.record("q1", snap, 5.0, 5.0)
        result.record("q1", snap, 5.0, 5.0)
        assert result.assignments["q1"] == (0,)
        assert result.values["q1"] == pytest.approx(10.0)

    def test_is_answered_and_count(self):
        result = AllocationResult()
        assert not result.is_answered("q1")
        result.record("q1", make_snapshot(0, cost=0.0), 1.0, 0.0)
        assert result.is_answered("q1")
        assert result.answered_count() == 1

    def test_record_accepts_query_objects(self):
        query = make_point_query(query_id="qx")
        result = AllocationResult()
        result.record(query, make_snapshot(0, cost=0.0), 1.0, 0.0)
        assert result.is_answered("qx")


class TestVerify:
    def test_valid_result_passes(self):
        result = AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        result.record("q1", snap, 12.0, 10.0)
        result.verify()

    def test_cost_recovery_violation(self):
        result = AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        result.record("q1", snap, 12.0, 7.0)  # underpays the sensor
        with pytest.raises(PaymentInvariantError):
            result.verify()

    def test_negative_utility_violation(self):
        result = AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        result.record("q1", snap, 5.0, 10.0)  # pays more than its value
        with pytest.raises(PaymentInvariantError):
            result.verify()

    def test_negative_payment_violation(self):
        result = AllocationResult()
        snap = make_snapshot(0, cost=0.0)
        result.record("q1", snap, 5.0, -1.0)
        with pytest.raises(PaymentInvariantError):
            result.verify()

    def test_unselected_sensor_assignment_violation(self):
        result = AllocationResult()
        result.assignments["q1"] = (99,)
        result.values["q1"] = 1.0
        with pytest.raises(PaymentInvariantError):
            result.verify()

    def test_empty_result_passes(self):
        AllocationResult().verify()

    def test_tolerance_scales_with_cost(self):
        # A relative rounding error on a large cost must not trip the
        # absolute tolerance: the check scales by the announced cost.
        result = AllocationResult()
        cost = 1e9
        snap = make_snapshot(0, cost=cost)
        result.record("q1", snap, 2e9, cost * (1.0 + 1e-8))
        result.verify()

    def test_overpaid_sensor_is_also_a_violation(self):
        # Cost recovery is an equality: a sensor may not profit either.
        result = AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        result.record("q1", snap, 30.0, 14.0)
        with pytest.raises(PaymentInvariantError):
            result.verify()


class TestMerge:
    def test_merge_combines_ledgers(self):
        a, b = AllocationResult(), AllocationResult()
        s0, s1 = make_snapshot(0, cost=10.0), make_snapshot(1, cost=10.0)
        a.record("q1", s0, 12.0, 10.0)
        b.record("q1", s1, 4.0, 0.0)
        b.record("q2", s1, 11.0, 10.0)
        a.merge(b)
        assert set(a.selected) == {0, 1}
        assert a.assignments["q1"] == (0, 1)
        assert a.values["q1"] == pytest.approx(16.0)
        a.verify()

    def test_merge_rejects_conflicting_costs(self):
        a, b = AllocationResult(), AllocationResult()
        a.record("q1", make_snapshot(0, cost=10.0), 12.0, 10.0)
        b.record("q2", make_snapshot(0, cost=5.0), 6.0, 5.0)
        with pytest.raises(AllocationError):
            a.merge(b)

    def test_merge_conflict_leaves_no_partial_sensor_overwrite(self):
        # The conflicting snapshot must not silently replace the original.
        a, b = AllocationResult(), AllocationResult()
        a.record("q1", make_snapshot(0, cost=10.0), 12.0, 10.0)
        b.record("q2", make_snapshot(0, cost=5.0), 6.0, 5.0)
        with pytest.raises(AllocationError):
            a.merge(b)
        assert a.selected[0].cost == pytest.approx(10.0)

    def test_merge_accepts_same_cost_reannouncement(self):
        a, b = AllocationResult(), AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        a.record("q1", snap, 12.0, 6.0)
        b.record("q2", make_snapshot(0, cost=10.0), 8.0, 4.0)
        a.merge(b)
        assert a.sensor_income(0) == pytest.approx(10.0)
        a.verify()

    def test_merge_accumulates_same_pair_payments(self):
        a, b = AllocationResult(), AllocationResult()
        snap = make_snapshot(0, cost=10.0)
        a.record("q1", snap, 6.0, 4.0)
        b.record("q1", make_snapshot(0, cost=10.0), 7.0, 6.0)
        a.merge(b)
        assert a.values["q1"] == pytest.approx(13.0)
        assert a.payments[("q1", 0)] == pytest.approx(10.0)
        assert a.assignments["q1"] == (0,)
        a.verify()

    def test_merge_into_empty_result(self):
        a, b = AllocationResult(), AllocationResult()
        b.record("q1", make_snapshot(3, cost=2.0), 5.0, 2.0)
        a.merge(b)
        assert a.total_value == pytest.approx(5.0)
        assert a.total_cost == pytest.approx(2.0)
        a.verify()


class TestCheckDistinct:
    def test_duplicate_query_ids_rejected(self):
        queries = [make_point_query(query_id="dup"), make_point_query(query_id="dup")]
        with pytest.raises(AllocationError):
            check_distinct(queries, [])

    def test_duplicate_sensor_ids_rejected(self):
        sensors = [make_snapshot(1), make_snapshot(1, x=2)]
        with pytest.raises(AllocationError):
            check_distinct([], sensors)

    def test_distinct_inputs_pass(self):
        check_distinct([make_point_query()], [make_snapshot(0), make_snapshot(1)])


def _party_ids(result: AllocationResult) -> tuple[set, set]:
    return {q for q, _ in result.payments}, {s for _, s in result.payments}


def assert_totals_match_scans(result: AllocationResult) -> None:
    query_paid, sensor_paid = result.payment_totals()
    qids, sids = _party_ids(result)
    assert query_paid == {q: result.query_payment(q) for q in qids}
    assert sensor_paid == {s: result.sensor_income(s) for s in sids}


class TestPaymentTotals:
    """``payment_totals`` is the one grouping pass settlement reads; each
    total must be ``==`` to the per-party ledger scan it replaced."""

    def test_totals_after_contribution_adjustment(self):
        result = AllocationResult()
        for sid, cost in ((7, 10.0), (8, 3.3)):
            snap = make_snapshot(sid, cost=cost)
            result.record("a", snap, 20.0, 0.1 * cost)
            result.record("b", snap, 20.0, 0.7 * cost)
            result.record("c", snap, 20.0, 0.2 * cost)
        outcome = RegionSlotOutcome(query_id="rm1", contributions={7: 4.0, 8: 0.3})
        RegionMonitoringController().adjust_payments(result, [outcome])
        assert ("rm1", 7) in result.payments
        assert_totals_match_scans(result)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_totals_over_seeded_mix_slots(self, seed):
        world = build_intel_scenario(seed=seed, n_sensors=12, n_slots=10)
        scenario = world.scenario
        ozone = build_ozone_dataset(seed=seed)
        rm_workload = RegionMonitoringWorkload(
            scenario.working_region, world.gp, budget_factor=10.0,
            duration_range=(2, 4), sensing_radius=scenario.dmax,
        )
        engine = mix_engine(
            scenario.make_fleet(),
            PointQueryWorkload(
                scenario.working_region, n_queries=6, budget=15.0, dmax=scenario.dmax
            ),
            AggregateQueryWorkload(
                scenario.working_region, budget_factor=15.0, mean_queries=2,
                count_spread=1, sensing_range=scenario.dmax,
            ),
            LocationMonitoringWorkload(
                scenario.working_region, ozone.values, ozone.model(),
                budget_factor=15.0, max_live=4, arrivals_per_slot=2,
                duration_range=(2, 4), dmax=scenario.dmax,
            ),
            np.random.default_rng(seed),
            region_workload=rm_workload,
        )
        contributed = 0
        summary = SimulationSummary()
        for _ in range(5):
            engine.step(summary)
            result = engine.last_result
            rm_ids = {q.query_id for q in engine.stream("region_monitoring").live}
            contributed += sum(1 for q, _ in result.payments if q in rm_ids)
            assert_totals_match_scans(result)
        assert contributed > 0  # the adjustment path ran
