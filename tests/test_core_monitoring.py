"""Tests for the Algorithm 2/3 controllers."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_snapshot
from repro.core import (
    AllocationResult,
    GreedyAllocator,
    LocationMonitoringController,
    OptimalPointAllocator,
    RegionMonitoringController,
    RegionSlotOutcome,
)
from repro.phenomena import (
    GaussianProcessField,
    HarmonicRegressionModel,
    OzoneTraceSynthesizer,
    RBFKernel,
    schedule_for_window,
)
from repro.queries import LocationMonitoringQuery, RegionMonitoringQuery
from repro.spatial import Location, Region

SERIES = OzoneTraceSynthesizer().generate(50, np.random.default_rng(5))
MODEL = HarmonicRegressionModel(50, 1)
GP = GaussianProcessField(RBFKernel(1.0, 2.0), noise=0.2)


def lm_query(t1=10, duration=12, budget_factor=15.0) -> LocationMonitoringQuery:
    desired = schedule_for_window(SERIES, t1, duration, max(1, duration // 3), MODEL)
    return LocationMonitoringQuery(
        Location(5, 5), t1, t1 + duration - 1, desired,
        budget=duration * budget_factor, series=SERIES, model=MODEL,
        theta_min=0.0, dmax=5.0,
    )


def rm_query(t1=0, duration=10, budget=80.0) -> RegionMonitoringQuery:
    return RegionMonitoringQuery(Region(0, 0, 10, 8), t1, t1 + duration - 1, budget, GP)


class TestLocationController:
    def test_full_value_at_scheduled_time(self):
        controller = LocationMonitoringController()
        query = lm_query()
        t = query.desired_times[0]
        children = controller.create_point_queries([query], t)
        assert len(children) == 1
        child = children[0]
        assert child.parent_id == query.query_id
        assert child.budget == pytest.approx(
            min(query.marginal_gain(t), query.remaining_budget)
        )

    def test_inactive_queries_skipped(self):
        controller = LocationMonitoringController()
        query = lm_query(t1=10)
        assert controller.create_point_queries([query], 5) == []

    def test_opportunistic_budget_capped_by_alpha_surplus(self):
        controller = LocationMonitoringController(alpha=0.5)
        query = lm_query()
        # Give the query surplus: a free perfect sample at the first
        # scheduled time.
        query.apply_sample(query.desired_times[0], 1.0, 0.0)
        t = query.desired_times[0] + 1
        if t in query.desired_times:
            t += 1
        children = controller.create_point_queries([query], t)
        if children:
            assert children[0].budget <= 0.5 * query.surplus + 1e-9

    def test_scheduled_only_mode(self):
        controller = LocationMonitoringController(opportunistic=False, scheduled_only=True)
        query = lm_query()
        off_schedule = query.desired_times[0] + 1
        while off_schedule in query.desired_times:
            off_schedule += 1
        assert controller.create_point_queries([query], off_schedule) == []
        assert controller.create_point_queries([query], query.desired_times[0])

    def test_catchup_after_missed_schedule(self):
        controller = LocationMonitoringController(opportunistic=False)
        query = lm_query()
        t = query.desired_times[0] + 1  # the scheduled sample was missed
        while t in query.desired_times:
            t += 1
        children = controller.create_point_queries([query], t)
        assert len(children) == 1  # catch-up at full value

    def test_alpha_validation(self):
        controller = LocationMonitoringController(alpha=2.0)
        query = lm_query()
        query.apply_sample(query.desired_times[0], 1.0, 0.0)
        t = query.desired_times[0] + 1
        while t in query.desired_times:
            t += 1
        with pytest.raises(ValueError):
            controller.create_point_queries([query], t)

    def test_alpha_callable_schedule(self):
        calls = []

        def schedule(t, query):
            calls.append(t)
            return 0.25

        controller = LocationMonitoringController(alpha=schedule)
        query = lm_query()
        query.apply_sample(query.desired_times[0], 1.0, 0.0)
        t = query.desired_times[0] + 1
        while t in query.desired_times:
            t += 1
        controller.create_point_queries([query], t)
        assert calls  # the schedule was consulted

    def test_apply_results_updates_state(self):
        controller = LocationMonitoringController()
        query = lm_query()
        t = query.desired_times[0]
        children = controller.create_point_queries([query], t)
        result = OptimalPointAllocator().allocate(
            children, [make_snapshot(0, x=5, y=5, cost=5.0)]
        )
        samples, delta = controller.apply_results([query], children, result, t)
        assert samples == 1
        assert delta > 0.0
        assert query.sampled_times == [t]
        assert query.spent == pytest.approx(5.0)

    def test_apply_results_failed_sampling(self):
        controller = LocationMonitoringController()
        query = lm_query()
        t = query.desired_times[0]
        children = controller.create_point_queries([query], t)
        empty = OptimalPointAllocator().allocate(children, [])  # no sensors
        samples, delta = controller.apply_results([query], children, empty, t)
        assert samples == 0
        assert delta == 0.0
        assert query.sampled_times == []


class TestRegionController:
    def _sensors(self, n=6, seed=0):
        rng = np.random.default_rng(seed)
        return [
            make_snapshot(i, x=float(rng.uniform(0, 10)), y=float(rng.uniform(0, 8)))
            for i in range(n)
        ]

    def test_region_counts(self):
        controller = RegionMonitoringController()
        q1, q2 = rm_query(), rm_query()
        inside = make_snapshot(0, x=5, y=5)
        outside = make_snapshot(1, x=50, y=50)
        counts = controller.region_counts([q1, q2], [inside, outside], 0)
        assert counts[0] == 2
        assert counts[1] == 0

    def test_children_created_for_plan(self):
        controller = RegionMonitoringController()
        query = rm_query()
        children, plans = controller.create_point_queries([query], self._sensors(), 0)
        assert query.query_id in plans
        assert all(c.parent_id == query.query_id for c in children)
        assert len(children) <= len(plans[query.query_id].current)

    def test_child_budgets_capped_by_query_budget(self):
        controller = RegionMonitoringController()
        query = rm_query(budget=15.0)
        children, _ = controller.create_point_queries([query], self._sensors(), 0)
        assert sum(c.budget for c in children) <= 15.0 + 1e-9

    def test_apply_results_records_slot(self):
        controller = RegionMonitoringController()
        query = rm_query()
        sensors = self._sensors()
        children, plans = controller.create_point_queries([query], sensors, 0)
        result = GreedyAllocator().allocate(children, sensors)
        outcomes = controller.apply_results([query], children, plans, result, 0)
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.achieved_value == pytest.approx(
            query.slot_values[0]
        )
        assert query.spent == pytest.approx(outcome.paid)

    def test_shared_sensors_enter_achieved_set(self):
        controller = RegionMonitoringController()
        query = rm_query()
        sensors = self._sensors()
        children, plans = controller.create_point_queries([query], sensors, 0)
        # Simulate another query having selected an in-region sensor the
        # plan did not include.
        result = GreedyAllocator().allocate(children, sensors)
        extra = next(
            s for s in sensors if s.sensor_id not in result.selected
        )
        result.selected[extra.sensor_id] = extra
        result.assignments["other_query"] = (extra.sensor_id,)
        result.values["other_query"] = extra.cost * 2
        result.payments[("other_query", extra.sensor_id)] = extra.cost
        outcomes = controller.apply_results([query], children, plans, result, 0)
        assert extra.sensor_id in outcomes[0].shared_sensors

    def test_baseline_mode_ignores_shared_sensors(self):
        controller = RegionMonitoringController(
            weight_fn=lambda k: 1.0, use_shared_sensors=False
        )
        query = rm_query()
        sensors = self._sensors()
        children, plans = controller.create_point_queries([query], sensors, 0)
        result = GreedyAllocator().allocate(children, sensors)
        extra = next(s for s in sensors if s.sensor_id not in result.selected)
        result.selected[extra.sensor_id] = extra
        result.assignments["other_query"] = (extra.sensor_id,)
        result.values["other_query"] = extra.cost * 2
        result.payments[("other_query", extra.sensor_id)] = extra.cost
        outcomes = controller.apply_results([query], children, plans, result, 0)
        assert outcomes[0].shared_sensors == ()

    def test_adjust_payments_conserves_sensor_income(self):
        controller = RegionMonitoringController()
        result = AllocationResult()
        snap = make_snapshot(7, x=5, y=5, cost=10.0)
        result.record("payer", snap, 20.0, 10.0)
        outcome = RegionSlotOutcome(
            query_id="rm1", contributions={7: 4.0}
        )
        controller.adjust_payments(result, [outcome])
        assert result.sensor_income(7) == pytest.approx(10.0)
        assert result.payments[("payer", 7)] == pytest.approx(6.0)
        assert result.payments[("rm1", 7)] == pytest.approx(4.0)

    def test_two_contributions_to_one_multi_payer_sensor(self):
        """The second contribution refunds the first contributor too, and a
        sensor nobody paid for books nothing (hand-computed ledger)."""
        result = AllocationResult()
        seven = make_snapshot(7, cost=12.0)
        result.record("a", seven, 20.0, 8.0)
        result.record("c", make_snapshot(3, cost=5.0), 9.0, 5.0)
        result.record("b", seven, 20.0, 4.0)
        RegionMonitoringController.adjust_payments(result, [
            RegionSlotOutcome(query_id="rm1", contributions={7: 6.0}),
            RegionSlotOutcome(query_id="rm2", contributions={7: 3.0, 3: 10.0, 9: 1.0}),
        ])
        # rm1: a, b pay 8 + 4 = 12 -> factor 1/2, rm1 books 6.
        # rm2 on 7: a, b, rm1 pay 4 + 2 + 6 = 12 -> factor 3/4, rm2 books 3.
        # rm2 on 3: c pays 5 -> refunded in full, rm2 books the 5 applied.
        assert result.payments == {
            ("a", 7): 3.0,
            ("c", 3): 0.0,
            ("b", 7): 1.5,
            ("rm1", 7): 4.5,
            ("rm2", 7): 3.0,
            ("rm2", 3): 5.0,
        }
        assert list(result.payments) == [
            ("a", 7), ("c", 3), ("b", 7), ("rm1", 7), ("rm2", 7), ("rm2", 3),
        ]
        result.verify()

    def test_contribution_pool_bounded(self):
        """Contributions never exceed alpha * (C_t - paid)."""
        controller = RegionMonitoringController(alpha=0.5)
        query = rm_query(budget=200.0)
        sensors = self._sensors(n=8)
        children, plans = controller.create_point_queries([query], sensors, 0)
        result = GreedyAllocator().allocate(children, sensors)
        # Add every unselected in-region sensor as "selected for others".
        for s in sensors:
            if s.sensor_id not in result.selected:
                result.selected[s.sensor_id] = s
                result.assignments[f"other{s.sensor_id}"] = (s.sensor_id,)
                result.values[f"other{s.sensor_id}"] = s.cost * 2
                result.payments[(f"other{s.sensor_id}", s.sensor_id)] = s.cost
        outcomes = controller.apply_results([query], children, plans, result, 0)
        outcome = outcomes[0]
        plan = plans[query.query_id]
        child_paid = outcome.paid - sum(outcome.contributions.values())
        pool = 0.5 * max(0.0, plan.expected_cost - child_paid)
        assert sum(outcome.contributions.values()) <= pool + 1e-9


class TestSettlementReadsLedgerOnce:
    """Both controllers settle from one ``payment_totals`` pass, never a
    per-child ``query_payment`` ledger scan."""

    @staticmethod
    def _forbid_query_payment(monkeypatch):
        def scan(self, query_id):
            raise AssertionError("settlement called query_payment")

        monkeypatch.setattr(AllocationResult, "query_payment", scan)

    def test_location_controller(self, monkeypatch):
        controller = LocationMonitoringController()
        query = lm_query()
        t = query.desired_times[0]
        children = controller.create_point_queries([query], t)
        result = OptimalPointAllocator().allocate(
            children, [make_snapshot(0, x=5, y=5, cost=5.0)]
        )
        paid = result.query_payment(children[0].query_id)
        self._forbid_query_payment(monkeypatch)
        samples, _ = controller.apply_results([query], children, result, t)
        assert samples == 1
        assert query.spent == paid

    def test_region_controller(self, monkeypatch):
        controller = RegionMonitoringController()
        query = rm_query()
        sensors = TestRegionController()._sensors()
        children, plans = controller.create_point_queries([query], sensors, 0)
        result = GreedyAllocator().allocate(children, sensors)
        paid = 0.0
        for child in children:
            if result.assignments.get(child.query_id):
                paid += result.query_payment(child.query_id)
        self._forbid_query_payment(monkeypatch)
        outcomes = controller.apply_results([query], children, plans, result, 0)
        contributed = sum(outcomes[0].contributions.values())
        assert outcomes[0].paid == paid + contributed
        assert query.spent == outcomes[0].paid
