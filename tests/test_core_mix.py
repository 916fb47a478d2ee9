"""Tests for Algorithm 5 (query mix) and the sequential mix baseline.

These drive the hand-rolled per-slot pipelines in :mod:`oracles`; the
engine-parity suite holds ``mix_engine`` equal to them slot by slot.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_snapshot
from oracles import OracleBaselineMixAllocator, OracleMixAllocator
from repro.core import GreedyAllocator
from repro.phenomena import (
    GaussianProcessField,
    HarmonicRegressionModel,
    OzoneTraceSynthesizer,
    RBFKernel,
    schedule_for_window,
)
from repro.queries import (
    LocationMonitoringQuery,
    PointQuery,
    RegionMonitoringQuery,
    SpatialAggregateQuery,
)
from repro.spatial import Region

SERIES = OzoneTraceSynthesizer().generate(50, np.random.default_rng(5))
MODEL = HarmonicRegressionModel(50, 1)
GP = GaussianProcessField(RBFKernel(1.0, 2.0), noise=0.2)
REGION = Region.from_origin(30, 30)


def build_slot(seed=0, n_sensors=20):
    rng = np.random.default_rng(seed)
    sensors = [
        make_snapshot(
            i, x=float(rng.uniform(0, 30)), y=float(rng.uniform(0, 30)),
            cost=10.0, inaccuracy=float(rng.uniform(0, 0.2)),
        )
        for i in range(n_sensors)
    ]
    points = [
        PointQuery(REGION.sample_location(rng), budget=15.0, theta_min=0.0, dmax=6.0)
        for _ in range(8)
    ]
    aggregates = [
        SpatialAggregateQuery(
            Region.random_subregion(REGION, rng, min_side=5, max_side=12),
            budget=40.0, sensing_range=6.0, coverage_radius=3.0,
        )
        for _ in range(3)
    ]
    desired = schedule_for_window(SERIES, 0, 10, 3, MODEL)
    lm = [
        LocationMonitoringQuery(
            REGION.sample_location(rng), 0, 9, desired, budget=100.0,
            series=SERIES, model=MODEL, theta_min=0.0, dmax=6.0,
        )
        for _ in range(3)
    ]
    rm = [RegionMonitoringQuery(Region(5, 5, 15, 13), 0, 9, budget=60.0, gp=GP)]
    return points, aggregates, lm, rm, sensors


class TestMixAllocator:
    def test_joint_allocation_covers_all_types(self):
        points, aggregates, lm, rm, sensors = build_slot()
        outcome = OracleMixAllocator().allocate_slot(0, points, aggregates, lm, rm, sensors)
        result = outcome.result
        answered_types = set()
        for qid in result.assignments:
            if any(q.query_id == qid for q in points):
                answered_types.add("point")
            if any(q.query_id == qid for q in aggregates):
                answered_types.add("aggregate")
        assert "point" in answered_types
        assert "aggregate" in answered_types

    def test_payment_invariants_after_adjustment(self):
        points, aggregates, lm, rm, sensors = build_slot(seed=1)
        outcome = OracleMixAllocator().allocate_slot(0, points, aggregates, lm, rm, sensors)
        outcome.result.verify()  # raises on violation

    def test_lm_state_updated(self):
        points, aggregates, lm, rm, sensors = build_slot(seed=2)
        outcome = OracleMixAllocator().allocate_slot(0, points, aggregates, lm, rm, sensors)
        total_samples = sum(len(q.sampled_times) for q in lm)
        assert total_samples == outcome.lm_samples

    def test_rm_slot_recorded(self):
        points, aggregates, lm, rm, sensors = build_slot(seed=3)
        OracleMixAllocator().allocate_slot(0, points, aggregates, lm, rm, sensors)
        assert len(rm[0].slot_values) == 1

    def test_total_utility_consistent(self):
        points, aggregates, lm, rm, sensors = build_slot(seed=4)
        outcome = OracleMixAllocator().allocate_slot(0, points, aggregates, lm, rm, sensors)
        child_ids = outcome.child_ids
        one_shot = sum(
            v for qid, v in outcome.result.values.items() if qid not in child_ids
        )
        expected = (
            one_shot
            + outcome.lm_value_delta
            + sum(o.achieved_value for o in outcome.rm_outcomes)
            - outcome.result.total_cost
        )
        assert outcome.total_utility == pytest.approx(expected)

    def test_empty_slot(self):
        outcome = OracleMixAllocator().allocate_slot(0, [], [], [], [], [])
        assert outcome.total_utility == 0.0

    def test_custom_joint_allocator(self):
        points, aggregates, lm, rm, sensors = build_slot(seed=5)
        joint = GreedyAllocator(min_gain=1e-6)
        outcome = OracleMixAllocator(joint=joint).allocate_slot(
            0, points, aggregates, lm, rm, sensors
        )
        assert outcome.result is not None


class TestBaselineMix:
    def test_runs_and_verifies(self):
        points, aggregates, lm, rm, sensors = build_slot(seed=6)
        outcome = OracleBaselineMixAllocator().allocate_slot(
            0, points, aggregates, lm, rm, sensors
        )
        outcome.result.verify()

    def test_aggregate_sensors_free_for_point_stage(self):
        """A sensor bought by the aggregate stage costs the point stage
        nothing; total sensor income still equals its cost."""
        points, aggregates, lm, rm, sensors = build_slot(seed=7)
        outcome = OracleBaselineMixAllocator().allocate_slot(
            0, points, aggregates, lm, rm, sensors
        )
        result = outcome.result
        for sid, snap in result.selected.items():
            assert result.sensor_income(sid) == pytest.approx(snap.cost, abs=1e-9)

    def test_mix_beats_baseline_on_average(self):
        """The headline Figure 10 relationship on a handful of slots."""
        alg5_total, base_total = 0.0, 0.0
        for seed in range(5):
            points, aggregates, lm, rm, sensors = build_slot(seed=seed)
            alg5 = OracleMixAllocator().allocate_slot(0, points, aggregates, lm, rm, sensors)
            alg5_total += alg5.total_utility
            points, aggregates, lm, rm, sensors = build_slot(seed=seed)
            base = OracleBaselineMixAllocator().allocate_slot(
                0, points, aggregates, lm, rm, sensors
            )
            base_total += base.total_utility
        assert alg5_total > base_total

    def test_lm_children_only_at_desired_times(self):
        points, aggregates, lm, rm, sensors = build_slot(seed=8)
        baseline = OracleBaselineMixAllocator()
        t = 1
        if any(t in q.desired_times for q in lm):
            t = max(max(q.desired_times) for q in lm) + 1
        outcome = baseline.allocate_slot(t, [], [], lm, [], sensors)
        assert outcome.lm_children == []
