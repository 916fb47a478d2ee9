"""EventDetectionStream: lifecycle, settlement accounting, and the
closed-form block and per-row gains of the derived :class:`EventSlotQuery`."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import block_gains, make_snapshot, relevance_row
from oracles import row_gains
from repro.core import (
    EventDetectionStream,
    GreedyAllocator,
    SimulationSummary,
    event_detection_engine,
)
from repro.datasets import ScenarioSpec, StreamSpec, build_rwm_scenario
from repro.queries import (
    EventDetectionQuery,
    EventDetectionWorkload,
    EventSlotQuery,
    SensorRoster,
)
from repro.spatial import Location, Region

ULP = dict(rel=1e-12, abs=1e-12)


class TestEventSlotQueryState:
    """The closed-form running-product state vs the generic recomputation."""

    def _query(self, **kw):
        defaults = dict(
            location=Location(10, 10), budget=20.0, required_confidence=0.9,
            theta_min=0.1, dmax=8.0, parent_id="p",
        )
        defaults.update(kw)
        return EventSlotQuery(**defaults)

    @pytest.mark.parametrize("seed", range(6))
    def test_gain_matches_scratch_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        query = self._query()
        sensors = [
            make_snapshot(
                i, x=float(rng.uniform(2, 18)), y=float(rng.uniform(2, 18)),
                inaccuracy=float(rng.uniform(0, 0.3)),
                trust=float(rng.uniform(0.4, 1.0)),
            )
            for i in range(15)
        ]
        state = query.new_state()
        for step, j in enumerate(rng.permutation(15)):
            for s in sensors:
                scratch = query.value(state.selected + [s]) - state.value
                assert state.gain(s) == pytest.approx(scratch, **ULP)
            state.add(sensors[j])
            if step >= 4:
                break
        # Value saturates at the budget once confidence is met.
        assert state.value <= query.budget + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_gain_many_matches_scalar_gain(self, seed):
        rng = np.random.default_rng(100 + seed)
        query = self._query(required_confidence=0.95, theta_min=0.05)
        sensors = [
            make_snapshot(
                i, x=float(rng.uniform(0, 20)), y=float(rng.uniform(0, 20)),
                inaccuracy=float(rng.uniform(0, 0.3)),
                trust=float(rng.uniform(0.4, 1.0)),
            )
            for i in range(20)
        ]
        roster = SensorRoster(sensors)
        relevant = np.flatnonzero(relevance_row(query, roster))
        state = query.new_state()
        for step in range(4):
            want = np.array([state.gain(s) for s in sensors])
            got = row_gains(state, roster).gain_many(roster.all_indices)
            assert got == pytest.approx(want, **ULP)
            got = block_gains(state, roster, relevant)
            assert got == pytest.approx(want[relevant], **ULP)
            state.add(sensors[step])

    def test_running_product_saturates(self):
        query = self._query(required_confidence=0.5, theta_min=0.0)
        perfect = make_snapshot(0, x=10, y=10, inaccuracy=0.0, trust=1.0)
        state = query.new_state()
        first = state.add(perfect)
        assert first == pytest.approx(query.budget)
        # A second perfect witness adds nothing once saturated.
        other = make_snapshot(1, x=10, y=10, inaccuracy=0.0, trust=1.0)
        assert state.gain(other) == pytest.approx(0.0, abs=1e-12)
        roster = SensorRoster([perfect, other])
        assert block_gains(state, roster, [1]) == pytest.approx([0.0], abs=1e-12)


class TestEventDetectionQueryAccounting:
    def _query(self, duration=5, confidence=0.8):
        return EventDetectionQuery(
            Location(5, 5), 0, duration - 1, threshold=50.0,
            confidence=confidence, budget=duration * 10.0, theta_min=0.0,
        )

    def test_confidence_history_records_every_sampled_slot(self):
        q = self._query()
        q.apply_readings(0, [(60.0, 0.8)], payment=2.0)
        q.apply_readings(1, [], payment=0.0)
        q.apply_readings(2, [(60.0, 0.5), (55.0, 0.5)], payment=3.0)
        assert q.confidence_history == pytest.approx([0.8, 0.0, 0.75])

    def test_quality_of_results_is_mean_attainment(self):
        q = self._query(confidence=0.8)
        q.apply_readings(0, [(60.0, 0.8)], payment=0.0)   # attainment 1.0
        q.apply_readings(1, [(60.0, 0.4)], payment=0.0)   # attainment 0.5
        assert q.quality_of_results() == pytest.approx(0.75)
        assert self._query().quality_of_results() == 0.0

    def test_record_slot_accrues_value_and_fires(self):
        q = self._query(confidence=0.6)
        fired = q.record_slot(0, [(60.0, 0.9)], achieved_value=7.5, payment=4.0)
        assert fired
        assert q.achieved_value() == pytest.approx(7.5)
        assert q.spent == pytest.approx(4.0)


class FixedArrivals:
    """Deterministic workload: the given queries arrive at slot 0."""

    def __init__(self, queries):
        self.queries = list(queries)

    def generate(self, t, rng):
        return [q for q in self.queries if q.t1 == t]


class TestEventDetectionStream:
    def test_full_lifecycle_against_engine(self):
        scenario = build_rwm_scenario(5, n_sensors=60, n_slots=10)
        workload = EventDetectionWorkload(
            scenario.working_region, threshold=40.0, arrivals_per_slot=2,
            duration_range=(2, 4), dmax=scenario.dmax,
        )
        engine = event_detection_engine(
            scenario.make_fleet(), workload, GreedyAllocator(),
            np.random.default_rng(8),
        )
        summary = engine.run(5)
        assert summary.n_slots == 5
        assert "event" in summary.quality_stats
        assert summary.quality_stats["event"].count > 0
        assert all("live" in r.extras and "detections" in r.extras for r in summary.slots)
        # Derived slot queries were issued and some answered.
        assert sum(r.issued for r in summary.slots) > 0
        assert sum(r.answered for r in summary.slots) > 0

    def test_expired_queries_retire_into_summary(self):
        region = Region.from_origin(20, 20)
        query = EventDetectionQuery(
            Location(10, 10), 0, 1, threshold=50.0, confidence=0.8,
            budget=20.0, theta_min=0.0, dmax=10.0,
        )
        stream = EventDetectionStream(FixedArrivals([query]))
        summary = SimulationSummary()
        stream.begin_slot(0, np.random.default_rng(0), summary)
        assert stream.live == [query]
        children = stream.emit(0, [])
        assert len(children) == 1
        assert children[0].parent_id == query.query_id
        # Expiry at t=2 folds the quality + outcome into the summary.
        stream.begin_slot(2, np.random.default_rng(0), summary)
        assert stream.live == []
        assert summary.quality_stats["event"].count == 1

    def test_flush_retires_everything(self):
        query = EventDetectionQuery(
            Location(5, 5), 0, 99, threshold=50.0, confidence=0.8, budget=10.0
        )
        stream = EventDetectionStream(FixedArrivals([query]))
        summary = SimulationSummary()
        stream.begin_slot(0, np.random.default_rng(0), summary)
        stream.flush(summary)
        assert stream.live == []
        assert summary.quality_stats["event"].count == 1

    def test_phenomenon_drives_detections(self):
        region = Region.from_origin(20, 20)
        query = EventDetectionQuery(
            Location(10, 10), 0, 3, threshold=50.0, confidence=0.5,
            budget=80.0, theta_min=0.0, dmax=10.0,
        )
        stream = EventDetectionStream(
            FixedArrivals([query]), phenomenon=lambda t, loc: 75.0
        )
        engine_sensors = [
            make_snapshot(0, x=10, y=10, cost=2.0, inaccuracy=0.0, trust=1.0)
        ]
        summary = SimulationSummary()
        from repro.core import SlotRecord

        stream.begin_slot(0, np.random.default_rng(0), summary)
        children = stream.emit(0, engine_sensors)
        result = GreedyAllocator().allocate(children, engine_sensors)
        record = SlotRecord(slot=0)
        stream.settle(0, result, record, summary)
        assert record.extras["detections"] == 1.0
        assert query.detections and query.detections[0][0] == 0

    def test_scenario_spec_event_stream(self):
        spec = ScenarioSpec(
            name="event-demo",
            dataset="rwm",
            seed=3,
            n_sensors=50,
            n_slots=4,
            allocator="greedy",
            streams=(
                StreamSpec("point", params={"n_queries": 10, "budget": 15.0}),
                StreamSpec(
                    "event",
                    params={"threshold": 45.0, "arrivals_per_slot": 2,
                            "duration_range": [2, 3]},
                ),
            ),
        )
        round_tripped = ScenarioSpec.from_dict(spec.to_dict())
        assert round_tripped == spec
        summary = spec.run()
        assert "event" in summary.quality_stats

    def test_point_only_allocators_reject_event_streams(self):
        with pytest.raises(ValueError, match="point queries only"):
            ScenarioSpec(
                name="bad",
                allocator="optimal",
                streams=(StreamSpec("event"),),
            )
