"""Tests for continuous queries: location and region monitoring state."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_snapshot
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


def lm_query(t1=10, duration=12, budget_factor=15.0, desired=None) -> LocationMonitoringQuery:
    t2 = t1 + duration - 1
    if desired is None:
        desired = schedule_for_window(SERIES, t1, duration, max(1, duration // 3), MODEL)
    return LocationMonitoringQuery(
        Location(5, 5), t1, t2, desired, budget=duration * budget_factor,
        series=SERIES, model=MODEL,
    )


class TestContinuousLifecycle:
    def test_active_window(self):
        q = lm_query(t1=10, duration=5)
        assert not q.active(9)
        assert q.active(10) and q.active(14)
        assert q.expired(15)

    def test_duration(self):
        assert lm_query(t1=3, duration=7).duration == 7

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            LocationMonitoringQuery(
                Location(0, 0), 5, 4, [], 10.0, SERIES, MODEL
            )

    def test_remaining_budget(self):
        q = lm_query(budget_factor=10.0, duration=10)
        assert q.remaining_budget == 100.0
        q.apply_sample(q.t1, 1.0, 30.0)
        assert q.remaining_budget == 70.0


class TestLocationMonitoringValuation:
    def test_desired_times_must_be_in_window(self):
        with pytest.raises(ValueError):
            LocationMonitoringQuery(Location(0, 0), 10, 15, [20], 10.0, SERIES, MODEL)

    def test_gain_ratio_one_at_full_schedule(self):
        q = lm_query()
        assert q.gain_ratio(q.desired_times) == pytest.approx(1.0)

    def test_gain_ratio_below_one_for_partial_schedule(self):
        q = lm_query(duration=15)
        partial = q.desired_times[:1]
        assert q.gain_ratio(partial) < 1.0

    def test_value_eq16(self):
        q = lm_query()
        q.apply_sample(q.desired_times[0], 0.8, 5.0)
        expected = q.budget * q.gain_ratio(q.sampled_times) * 0.8
        assert q.achieved_value() == pytest.approx(expected)

    def test_value_zero_without_samples(self):
        assert lm_query().achieved_value() == 0.0

    def test_full_perfect_schedule_attains_budget(self):
        q = lm_query()
        for t in q.desired_times:
            q.apply_sample(t, 1.0, 1.0)
        assert q.achieved_value() == pytest.approx(q.budget)
        assert q.quality_of_results() == pytest.approx(1.0)

    def test_marginal_gain_nonnegative(self):
        q = lm_query()
        for t in range(q.t1, q.t2 + 1):
            assert q.marginal_gain(t) >= 0.0

    def test_surplus_grows_with_cheap_samples(self):
        q = lm_query()
        assert q.surplus == 0.0
        q.apply_sample(q.desired_times[0], 1.0, 0.5)
        assert q.surplus > 0.0


class TestScheduleTracking:
    def test_next_scheduled_time_advances(self):
        q = lm_query()
        first = q.desired_times[0]
        assert q.next_scheduled_time() == first
        q.apply_sample(first, 1.0, 1.0)
        nxt = q.next_scheduled_time()
        assert nxt is None or nxt > first

    def test_missed_schedule_detection(self):
        q = lm_query()
        first = q.desired_times[0]
        assert not q.has_missed_schedule(first)
        assert q.has_missed_schedule(first + 1)

    def test_sample_after_miss_covers_schedule(self):
        q = lm_query()
        first = q.desired_times[0]
        q.apply_sample(first + 1, 1.0, 1.0)  # catch-up sample
        nxt = q.next_scheduled_time()
        assert nxt is None or nxt > first

    def test_past_schedule(self):
        q = lm_query()
        assert q.past_schedule(q.desired_times[-1] + 1)
        assert not q.past_schedule(q.desired_times[0])

    def test_negative_payment_rejected(self):
        q = lm_query()
        with pytest.raises(ValueError):
            q.apply_sample(q.t1, 1.0, -1.0)


class TestRegionMonitoring:
    GP = GaussianProcessField(RBFKernel(1.0, 2.0), noise=0.2)

    def rm_query(self, t1=0, duration=10, budget=60.0) -> RegionMonitoringQuery:
        return RegionMonitoringQuery(
            Region(0, 0, 8, 6), t1, t1 + duration - 1, budget, self.GP
        )

    def test_cells_rasterized(self):
        q = self.rm_query()
        assert len(q.cells) == 48

    def test_slot_value_eq7(self):
        q = self.rm_query(budget=50.0)
        snaps = [make_snapshot(0, x=2, y=2, inaccuracy=0.1), make_snapshot(1, x=6, y=4)]
        reduction = q.variance_reduction([s.location for s in snaps])
        mean_q = (0.9 + 1.0) / 2
        assert q.slot_value(snaps) == pytest.approx(50.0 * reduction * mean_q)

    def test_slot_value_empty(self):
        assert self.rm_query().slot_value([]) == 0.0

    def test_record_slot_accumulates(self):
        q = self.rm_query()
        snaps = [make_snapshot(0, x=2, y=2)]
        value = q.record_slot(snaps, planned_value=5.0, payment=3.0)
        assert value > 0
        assert q.spent == 3.0
        assert q.used_sensor_count == 1
        assert q.achieved_value() == pytest.approx(value)

    def test_quality_of_results_ratio(self):
        q = self.rm_query()
        snaps = [make_snapshot(0, x=2, y=2)]
        achieved = q.slot_value(snaps)
        q.record_slot(snaps, planned_value=achieved / 2.0, payment=0.0)
        assert q.quality_of_results() == pytest.approx(2.0)

    def test_quality_skips_unplanned_slots(self):
        q = self.rm_query()
        q.record_slot([], planned_value=0.0, payment=0.0)
        assert q.quality_of_results() == 0.0

    def test_reduction_state_matches_direct(self):
        q = self.rm_query()
        state = q.reduction_state()
        locs = [Location(1, 1), Location(5, 3)]
        for loc in locs:
            state.add(loc)
        assert state.reduction == pytest.approx(q.variance_reduction(locs), rel=1e-6)

    def test_negative_payment_rejected(self):
        with pytest.raises(ValueError):
            self.rm_query().record_slot([], 0.0, -1.0)

    def test_coarser_cells_reduce_target_count(self):
        fine = RegionMonitoringQuery(Region(0, 0, 8, 6), 0, 5, 10.0, self.GP, cell_size=1.0)
        coarse = RegionMonitoringQuery(Region(0, 0, 8, 6), 0, 5, 10.0, self.GP, cell_size=2.0)
        assert len(coarse.cells) < len(fine.cells)
