"""Tests for the Aggregator service API."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_snapshot
from repro.core import Aggregator, AllocationError, BaselineMixAllocator
from repro.datasets import build_ozone_dataset, build_rwm_scenario
from repro.mobility import StationaryMobility
from repro.phenomena import schedule_for_window
from repro.queries import (
    EventDetectionQuery,
    LocationMonitoringQuery,
    PointQuery,
    SpatialAggregateQuery,
    detection_confidence,
)
from repro.queries.point import reading_quality
from repro.sensors import FleetConfig, SensorFleet
from repro.spatial import Location, Region

SCENARIO = build_rwm_scenario(seed=21, n_sensors=80, n_slots=10)
OZONE = build_ozone_dataset(seed=21)


def make_aggregator(**kwargs) -> Aggregator:
    return Aggregator(SCENARIO.make_fleet(), **kwargs)


def point(budget=20.0, rng_seed=0) -> PointQuery:
    rng = np.random.default_rng(rng_seed)
    return PointQuery(
        SCENARIO.working_region.sample_location(rng), budget=budget,
        theta_min=0.0, dmax=SCENARIO.dmax,
    )


class TestSubmission:
    def test_submit_creates_receipt_and_account(self):
        agg = make_aggregator()
        receipt = agg.submit(point(), user_id="alice")
        assert receipt.user_id == "alice"
        assert receipt.query_type == "point"
        assert "alice" in agg.accounts

    def test_double_submit_rejected(self):
        agg = make_aggregator()
        q = point()
        agg.submit(q)
        with pytest.raises(AllocationError):
            agg.submit(q)

    def test_duplicate_account_rejected(self):
        agg = make_aggregator()
        agg.open_account("bob")
        with pytest.raises(AllocationError):
            agg.open_account("bob")

    def test_unsupported_object_rejected(self):
        agg = make_aggregator()
        with pytest.raises(AllocationError):
            agg.submit("not a query")

    def test_all_query_kinds_routed(self):
        agg = make_aggregator()
        rng = np.random.default_rng(0)
        region = SCENARIO.working_region
        desired = schedule_for_window(OZONE.values, 0, 6, 2, OZONE.model())
        kinds = {
            "point": point(),
            "aggregate": SpatialAggregateQuery(
                Region.centered_in(region, 10, 10), budget=50.0,
                sensing_range=SCENARIO.dmax, coverage_radius=3.0,
            ),
            "location_monitoring": LocationMonitoringQuery(
                region.sample_location(rng), 0, 5, desired, budget=90.0,
                series=OZONE.values, model=OZONE.model(), theta_min=0.0,
                dmax=SCENARIO.dmax,
            ),
            "event": EventDetectionQuery(
                region.sample_location(rng), 0, 5, threshold=10.0,
                confidence=0.8, budget=60.0, theta_min=0.0, dmax=SCENARIO.dmax,
            ),
        }
        for expected, query in kinds.items():
            receipt = agg.submit(query)
            assert receipt.query_type == expected
        assert agg.live_query_count() == 2  # lm + event


class TestSlotExecution:
    def test_one_shot_answered_and_charged(self):
        agg = make_aggregator()
        receipt = agg.submit(point(budget=25.0), user_id="alice")
        digest = agg.run_slot()
        assert digest.slot == 0
        assert receipt.completed_at == 0
        if receipt.answered:
            assert receipt.value > 0
            assert receipt.utility >= -1e-9
            account = agg.accounts["alice"]
            assert account.spent == pytest.approx(receipt.paid)

    def test_continuous_query_spans_slots(self):
        agg = make_aggregator()
        rng = np.random.default_rng(1)
        desired = schedule_for_window(OZONE.values, 0, 5, 2, OZONE.model())
        lm = LocationMonitoringQuery(
            SCENARIO.working_region.sample_location(rng), 0, 4, desired,
            budget=75.0, series=OZONE.values, model=OZONE.model(),
            theta_min=0.0, dmax=SCENARIO.dmax,
        )
        receipt = agg.submit(lm, user_id="agency")
        agg.run(6)
        assert receipt.completed_at is not None
        assert agg.live_query_count() == 0
        assert agg.accounts["agency"].spent == pytest.approx(lm.spent)

    def test_budget_gate_requeues_queries(self):
        agg = make_aggregator()
        agg.open_account("cheap", budget=0.0)
        receipt = agg.submit(point(budget=25.0), user_id="cheap")
        agg.run_slot()
        # Never admitted: no spending, not answered.
        assert not receipt.answered
        assert agg.accounts["cheap"].spent == 0.0

    def test_digests_accumulate(self):
        agg = make_aggregator()
        for seed in range(3):
            agg.submit(point(rng_seed=seed))
        digests = agg.run(3)
        assert [d.slot for d in digests] == [0, 1, 2]
        assert agg.total_utility() == pytest.approx(sum(d.utility for d in digests))

    def test_baseline_policy_pluggable(self):
        agg = make_aggregator(mix=BaselineMixAllocator())
        agg.submit(point(budget=25.0))
        digest = agg.run_slot()
        assert digest.slot == 0

    def test_event_fires_with_ground_truth(self):
        agg = make_aggregator(ground_truth=lambda loc: 100.0)
        rng = np.random.default_rng(2)
        event = EventDetectionQuery(
            SCENARIO.working_region.sample_location(rng), 0, 4,
            threshold=50.0, confidence=0.2, budget=100.0,
            theta_min=0.0, dmax=SCENARIO.dmax,
        )
        agg.submit(event)
        fired = sum(d.events_fired for d in agg.run(5))
        assert fired == len(event.detections)

    def test_events_never_fire_without_ground_truth(self):
        agg = make_aggregator()
        rng = np.random.default_rng(2)
        event = EventDetectionQuery(
            SCENARIO.working_region.sample_location(rng), 0, 4,
            threshold=50.0, confidence=0.2, budget=100.0,
            theta_min=0.0, dmax=SCENARIO.dmax,
        )
        agg.submit(event)
        assert sum(d.events_fired for d in agg.run(5)) == 0


class TestAccounting:
    def test_account_utilities_consistent_with_receipts(self):
        agg = make_aggregator()
        for seed in range(5):
            agg.submit(point(budget=25.0, rng_seed=seed), user_id="alice")
        agg.run(2)
        account = agg.accounts["alice"]
        receipts = [agg.receipts[qid] for qid in account.queries]
        assert account.spent == pytest.approx(sum(r.paid for r in receipts))
        assert account.value_received == pytest.approx(sum(r.value for r in receipts))
        assert account.utility == pytest.approx(sum(r.utility for r in receipts))


class TestEventSettlement:
    """Witness readings settle with eq. (4), as ``EventDetectionStream`` does."""

    DMAX = 5.0
    WHERE = Location(20.0, 20.0)
    # One witness at 0.9 * dmax (quality 0.1), one at 0.5 * dmax (0.5).
    OFFSETS = ((0.9 * DMAX, 0.0), (0.0, 0.5 * DMAX))

    def _run(self, ground_truth):
        region = Region.from_origin(40, 40)
        positions = [
            Location(self.WHERE.x + dx, self.WHERE.y + dy) for dx, dy in self.OFFSETS
        ]
        fleet = SensorFleet(
            StationaryMobility(region, positions), region,
            FleetConfig(inaccuracy_range=(0.0, 0.0)), np.random.default_rng(0),
        )
        agg = Aggregator(fleet, ground_truth=ground_truth)
        event = EventDetectionQuery(
            self.WHERE, 0, 0, threshold=50.0, confidence=0.8, budget=200.0,
            theta_min=0.0, dmax=self.DMAX,
        )
        receipt = agg.submit(event)
        digest = agg.run_slot()
        qualities = [
            reading_quality(make_snapshot(i, p.x, p.y), self.WHERE, self.DMAX)
            for i, p in enumerate(positions)
        ]
        return event, receipt, digest, qualities

    def test_witness_quality_includes_distance_factor(self):
        event, receipt, _, qualities = self._run(lambda loc: 100.0)
        assert qualities[0] == pytest.approx(0.1)
        assert event.confidence_history == [detection_confidence(qualities)]
        assert event.value_accrued == receipt.value > 0.0
        assert event.spent == receipt.paid

    def test_readings_recorded_without_ground_truth(self):
        event, _, digest, qualities = self._run(None)
        assert event.confidence_history == [detection_confidence(qualities)]
        assert event.detections == [] and digest.events_fired == 0


class TestEngineAdapter:
    """The Aggregator runs its slots on the ``SlotEngine`` ``mix_engine`` builds."""

    def test_query_submitted_after_its_window_never_runs(self):
        agg = make_aggregator()
        agg.run(2)
        desired = schedule_for_window(OZONE.values, 0, 2, 1, OZONE.model())
        late = LocationMonitoringQuery(
            SCENARIO.working_region.sample_location(np.random.default_rng(4)),
            0, 1, desired, budget=50.0, series=OZONE.values, model=OZONE.model(),
            theta_min=0.0, dmax=SCENARIO.dmax,
        )
        receipt = agg.submit(late)
        assert agg.live_query_count() == 1
        digest = agg.run_slot()
        assert receipt.completed_at == 1
        assert agg.live_query_count() == 0
        assert late.spent == 0.0 and digest.answered == 0
