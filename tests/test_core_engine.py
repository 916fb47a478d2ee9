"""Unit tests for the unified SlotEngine, its streams and strategies."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_point_query, make_snapshot
from repro.core import (
    BaselineAllocator,
    BaselineMixAllocator,
    GreedyAllocator,
    JointSlotAllocation,
    LocalSearchPointAllocator,
    LocationMonitoringStream,
    MixAllocator,
    OneShotStream,
    PaymentInvariantError,
    SequentialBufferedAllocation,
    SlotEngine,
    ValuationKernel,
    mix_engine,
    one_shot_engine,
)
from repro.core.engine import quality_of
from repro.datasets import (
    ScenarioSpec,
    StreamSpec,
    build_intel_scenario,
    build_ozone_dataset,
    build_rwm_scenario,
)
from repro.queries import (
    AggregateQueryWorkload,
    LocationMonitoringWorkload,
    PointQueryWorkload,
    RegionMonitoringWorkload,
)
from repro.spatial import WorldRaster

SCENARIO = build_rwm_scenario(seed=55, n_sensors=40, n_slots=8)
OZONE = build_ozone_dataset(seed=55)


def _point_workload(n=15):
    return PointQueryWorkload(
        SCENARIO.working_region, n_queries=n, budget=15.0, dmax=SCENARIO.dmax
    )


class TestEngineBasics:
    def test_requires_streams(self):
        with pytest.raises(ValueError):
            SlotEngine(SCENARIO.make_fleet(), [], GreedyAllocator(), np.random.default_rng(0))

    def test_plain_allocator_is_wrapped(self):
        engine = SlotEngine(
            SCENARIO.make_fleet(),
            [OneShotStream(_point_workload())],
            LocalSearchPointAllocator(),
            np.random.default_rng(0),
        )
        assert isinstance(engine.allocation, JointSlotAllocation)
        summary = engine.run(3)
        assert summary.n_slots == 3

    def test_every_settled_ledger_is_verified(self):
        """Settlement may edit the ledger after the allocator verified it
        (region monitoring's refunds do); the engine checks the settled
        result of every slot, single-stream engines included."""

        class Overpaying(OneShotStream):
            def settle(self, t, result, record, summary):
                super().settle(t, result, record, summary)
                for key in result.payments:
                    result.payments[key] *= 2.0

        engine = SlotEngine(
            SCENARIO.make_fleet(), [Overpaying(_point_workload())], GreedyAllocator(),
            np.random.default_rng(0),
        )
        with pytest.raises(PaymentInvariantError):
            engine.run(3)

    def test_stream_lookup(self):
        engine = one_shot_engine(
            SCENARIO.make_fleet(), _point_workload(), LocalSearchPointAllocator(),
            np.random.default_rng(0),
        )
        assert engine.stream("one_shot") is engine.streams[0]
        with pytest.raises(KeyError):
            engine.stream("region_monitoring")

    def test_step_advances_fleet_clock(self):
        from repro.core import SimulationSummary

        engine = one_shot_engine(
            SCENARIO.make_fleet(), _point_workload(), LocalSearchPointAllocator(),
            np.random.default_rng(0),
        )
        summary = SimulationSummary()
        record = engine.step(summary)
        assert record.slot == 0
        assert engine.fleet.clock == 1
        record = engine.step(summary)
        assert record.slot == 1
        assert summary.n_slots == 2

    def test_quality_of_zero_max_value(self):
        query = make_point_query(budget=0.0)
        assert quality_of(query, 0.0) == 0.0


class TestKernelPlumbing:
    def test_joint_allocation_forwards_kernel(self):
        calls = {}

        class Spy:
            def allocate(self, queries, sensors, kernel=None):
                calls["kernel"] = kernel
                from repro.core import AllocationResult

                return AllocationResult()

        sensors = [make_snapshot(0)]
        kernel = ValuationKernel.from_sensors(sensors)
        JointSlotAllocation(Spy()).run(0, [], sensors, kernel)
        assert calls["kernel"] is kernel

    def test_allocator_runs_without_kernel(self):
        """An allocator handed ``kernel=None`` builds its own and settles
        what the engine's shared slot kernel would have."""
        fleet = SCENARIO.make_fleet()
        workload = _point_workload()
        rng = np.random.default_rng(4)
        allocator = LocalSearchPointAllocator()
        for t in range(3):
            sensors = fleet.announcements()
            queries = workload.generate(t, rng)
            kernel = ValuationKernel.from_sensors(sensors)
            with_kernel = allocator.allocate(queries, sensors, kernel=kernel)
            without = allocator.allocate(queries, sensors, kernel=None)
            assert with_kernel.total_utility == pytest.approx(without.total_utility)
            assert with_kernel.answered_count() == without.answered_count()
            fleet.advance()


class TestSequentialBufferedAllocation:
    def _streams(self):
        return [
            OneShotStream(
                _point_workload(8), kind="point", allocation_rank=1,
                record_slot_qualities=False, quality_label="point",
            ),
            OneShotStream(
                AggregateQueryWorkload(
                    SCENARIO.working_region, budget_factor=15.0, mean_queries=3,
                    count_spread=1, sensing_range=SCENARIO.dmax,
                ),
                kind="aggregate", allocation_rank=0,
                record_slot_qualities=False, quality_label="aggregate",
            ),
        ]

    def test_sequential_ledger_passes_invariants(self):
        engine = SlotEngine(
            SCENARIO.make_fleet(),
            self._streams(),
            SequentialBufferedAllocation(BaselineAllocator(), BaselineAllocator()),
            np.random.default_rng(6),
        )
        summary = engine.run(4)
        assert summary.n_slots == 4
        assert summary.total_queries > 0

    def test_stage1_kinds_filter(self):
        strategy = SequentialBufferedAllocation(
            BaselineAllocator(), BaselineAllocator(), stage1_kinds=("aggregate",)
        )
        streams = self._streams()
        sensors = SCENARIO.make_fleet().announcements()
        rng = np.random.default_rng(1)
        from repro.core import SimulationSummary

        summary = SimulationSummary()
        for stream in streams:
            stream.begin_slot(0, rng, summary)
        kernel = ValuationKernel.from_sensors(sensors)
        result = strategy.run(0, streams, sensors, kernel)
        result.verify()

    @pytest.mark.parametrize(
        "mix_cls", [MixAllocator, BaselineMixAllocator], ids=["alg5", "baseline"]
    )
    def test_one_world_raster_per_slot(self, monkeypatch, mix_cls):
        """The slot's one coverage block builds the slot's one raster; the
        zero-cost re-announcement and the region controller build none."""
        world = build_intel_scenario(seed=8, n_sensors=60, n_slots=10)
        scenario = world.scenario
        built = []
        init = WorldRaster.__init__

        def counting_init(self, xy):
            built.append(len(xy))
            init(self, xy)

        monkeypatch.setattr(WorldRaster, "__init__", counting_init)
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
                scenario.working_region, OZONE.values, OZONE.model(),
                budget_factor=15.0, max_live=4, arrivals_per_slot=2,
                duration_range=(2, 4), dmax=scenario.dmax,
            ),
            np.random.default_rng(8),
            region_workload=RegionMonitoringWorkload(
                scenario.working_region, world.gp, budget_factor=10.0,
                duration_range=(2, 4), sensing_radius=scenario.dmax,
            ),
            mix=mix_cls(),
        )
        engine.run(6)
        assert len(built) == 6


class TestMixConfiguration:
    def test_mix_subclass_configures_engine(self):
        from repro.core import MixAllocator

        class Tweaked(MixAllocator):
            def __init__(self):
                super().__init__(joint=GreedyAllocator(min_gain=1e-8))

        mix = Tweaked()
        engine = mix_engine(
            SCENARIO.make_fleet(),
            _point_workload(5),
            AggregateQueryWorkload(
                SCENARIO.working_region, budget_factor=15.0, mean_queries=2,
                count_spread=1, sensing_range=SCENARIO.dmax,
            ),
            LocationMonitoringWorkload(
                SCENARIO.working_region, OZONE.values, OZONE.model(),
                budget_factor=15.0, max_live=4, arrivals_per_slot=2,
                duration_range=(2, 3), dmax=SCENARIO.dmax,
            ),
            np.random.default_rng(2),
            mix=mix,
        )
        assert engine.allocation.allocator is mix.joint
        assert engine.stream("location_monitoring").controller is mix.lm_controller
        assert engine.run(2).n_slots == 2

    def test_baseline_mix_buffers_aggregates_and_events_first(self):
        from repro.core import BaselineMixAllocator

        mix = BaselineMixAllocator()
        allocation = mix.allocation()
        assert isinstance(allocation, SequentialBufferedAllocation)
        assert allocation.stage1_allocator is mix.aggregate_stage
        assert allocation.stage2_allocator is mix.point_stage
        assert allocation.stage1_kinds == {"aggregate", "event"}


class TestMixEngineComposition:
    def _lm_workload(self):
        return LocationMonitoringWorkload(
            SCENARIO.working_region, OZONE.values, OZONE.model(),
            budget_factor=15.0, max_live=6, arrivals_per_slot=2,
            duration_range=(2, 4), dmax=SCENARIO.dmax,
        )

    def test_joint_mix_runs_and_accounts_per_type(self):
        engine = mix_engine(
            SCENARIO.make_fleet(),
            _point_workload(8),
            AggregateQueryWorkload(
                SCENARIO.working_region, budget_factor=15.0, mean_queries=3,
                count_spread=1, sensing_range=SCENARIO.dmax,
            ),
            self._lm_workload(),
            np.random.default_rng(3),
        )
        summary = engine.run(4)
        assert summary.n_slots == 4
        assert "location_monitoring" in summary.quality_stats
        assert all("lm_samples" in r.extras for r in summary.slots)
        # only the point stream counts towards issued
        assert all(r.issued <= 8 for r in summary.slots)

    def test_monitoring_settles_before_one_shots(self):
        engine = mix_engine(
            SCENARIO.make_fleet(),
            _point_workload(8),
            AggregateQueryWorkload(
                SCENARIO.working_region, budget_factor=15.0, mean_queries=3,
                count_spread=1, sensing_range=SCENARIO.dmax,
            ),
            self._lm_workload(),
            np.random.default_rng(3),
        )
        order = [s.settle_rank for s in sorted(engine.streams, key=lambda s: s.settle_rank)]
        assert order == sorted(order)
        assert engine.stream("location_monitoring").settle_rank < 0


class TestLocationMonitoringStream:
    def test_flush_retires_everything(self):
        stream = LocationMonitoringStream(
            LocationMonitoringWorkload(
                SCENARIO.working_region, OZONE.values, OZONE.model(),
                budget_factor=15.0, max_live=5, arrivals_per_slot=2,
                duration_range=(2, 3), dmax=SCENARIO.dmax,
            )
        )
        engine = SlotEngine(
            SCENARIO.make_fleet(), [stream], LocalSearchPointAllocator(),
            np.random.default_rng(8),
        )
        summary = engine.run(4)
        assert stream.live == []
        assert summary.total_queries > 0


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", dataset="mars")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", allocator="quantum")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", allocation="psychic")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", streams=())
        with pytest.raises(ValueError):
            StreamSpec(kind="telepathy")

    def test_point_only_allocator_rejects_aggregate_stream(self):
        with pytest.raises(ValueError, match="point queries only"):
            ScenarioSpec(
                name="x", allocator="optimal",
                streams=(StreamSpec("aggregate"),),
            )
        # monitoring streams emit derived point queries — allowed
        ScenarioSpec(
            name="x", allocator="optimal",
            streams=(StreamSpec("location_monitoring"),),
        )

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict({"name": "x", "wat": 1})
        with pytest.raises(ValueError):
            StreamSpec.from_dict({"kind": "point", "wat": 1})

    def test_round_trip(self):
        spec = ScenarioSpec.example()
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_json_round_trip(self, tmp_path):
        import json

        spec = ScenarioSpec.example()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_json(path) == spec

    def test_region_monitoring_requires_intel(self):
        spec = ScenarioSpec(
            name="bad", dataset="rwm",
            streams=(StreamSpec("region_monitoring"),),
        )
        with pytest.raises(ValueError, match="intel"):
            spec.build()

    def test_point_spec_matches_one_shot_engine(self):
        spec = ScenarioSpec(
            name="points", dataset="rwm", seed=55, n_sensors=40, n_slots=4,
            workload_seed=99, allocator="local_search",
            streams=(StreamSpec("point", params={"n_queries": 15, "budget": 15.0}),),
        )
        got = spec.run()
        want = one_shot_engine(
            SCENARIO.make_fleet(),
            _point_workload(15),
            LocalSearchPointAllocator(),
            np.random.default_rng(99),
        ).run(4)
        assert got.total_utility == pytest.approx(want.total_utility)
        assert got.satisfaction_ratio == want.satisfaction_ratio

    def test_intel_region_spec_runs(self):
        spec = ScenarioSpec(
            name="regions", dataset="intel", seed=41, n_sensors=12, n_slots=3,
            allocator="optimal",
            streams=(
                StreamSpec(
                    "region_monitoring",
                    params={"duration_range": [2, 3], "budget_factor": 10.0},
                    controller={"use_shared_sensors": False, "paper_weighting": False},
                ),
            ),
        )
        summary = spec.run()
        assert summary.n_slots == 3

    def test_sequential_mixed_spec_runs(self):
        spec = ScenarioSpec(
            name="seq-mix", dataset="rwm", seed=55, n_sensors=40, n_slots=3,
            allocator="baseline", allocation="sequential",
            streams=(
                StreamSpec("aggregate", params={"mean_queries": 3, "count_spread": 1}),
                StreamSpec("point", params={"n_queries": 10}),
                StreamSpec(
                    "location_monitoring",
                    params={"max_live": 5, "arrivals_per_slot": 2,
                            "duration_range": [2, 3]},
                    controller={"opportunistic": False, "scheduled_only": True},
                ),
            ),
        )
        summary = spec.run()
        assert summary.n_slots == 3
