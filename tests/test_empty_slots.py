"""Zero-query and all-rejected slots settle cleanly.

A streaming service regularly ticks slots that admit nothing (quiet
arrivals) or whose every query the allocator turns away (unaffordable
budgets).  :meth:`SlotEngine.step` and every :class:`QueryStream` must
treat those as ordinary slots — empty allocation, zeroed record, no
crash, summary still coherent — because the service ticker cannot skip
them without drifting off the fleet clock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GreedyAllocator, SimulationSummary, SlotEngine
from repro.core.engine import (
    EventDetectionStream,
    LocationMonitoringStream,
    OneShotStream,
    RegionMonitoringStream,
)
from repro.datasets import build_rwm_scenario
from repro.queries import PointQuery
from repro.spatial import Location


class NothingWorkload:
    """A workload whose every slot is empty."""

    def generate(self, t, rng, **_):
        return []


class UnaffordableWorkload:
    """Point queries priced below any sensor's cost: emitted, never won."""

    def __init__(self, region, n=3):
        self.region = region
        self.n = n

    def generate(self, t, rng, **_):
        return [
            PointQuery(
                Location(
                    rng.uniform(self.region.x_min, self.region.x_max),
                    rng.uniform(self.region.y_min, self.region.y_max),
                ),
                budget=1e-9,
                dmax=5.0,
            )
            for _ in range(self.n)
        ]


def make_engine(streams):
    scenario = build_rwm_scenario(seed=11, n_sensors=60, n_slots=4)
    return SlotEngine(
        scenario.make_fleet(),
        streams,
        GreedyAllocator(),
        np.random.default_rng(5),
    )


STREAM_FACTORIES = {
    "one_shot": lambda: OneShotStream(NothingWorkload(), kind="point"),
    "location_monitoring": lambda: LocationMonitoringStream(NothingWorkload()),
    "region_monitoring": lambda: RegionMonitoringStream(NothingWorkload()),
    "event": lambda: EventDetectionStream(NothingWorkload()),
}


@pytest.mark.parametrize("kind", sorted(STREAM_FACTORIES), ids=str)
def test_zero_query_slots_settle_cleanly(kind):
    engine = make_engine([STREAM_FACTORIES[kind]()])
    summary = SimulationSummary()
    for t in range(3):
        record = engine.step(summary)
        assert record.slot == t
        assert record.issued == 0 and record.answered == 0
        assert record.value == 0.0
        assert engine.last_result is not None
        assert not engine.last_result.selected
        assert set(engine.last_timings) == {
            "announce", "kernel", "allocate", "settle"
        }
    for stream in engine.streams:
        stream.flush(summary)
    assert summary.n_slots == 3
    assert summary.total_queries == 0


def test_all_rejected_slots_settle_cleanly():
    """Queries emitted but none answered: issued counts, answered stays
    zero, utilities are recorded as plain losses (here 0 — nothing
    spent), and the next slot proceeds."""
    scenario = build_rwm_scenario(seed=11, n_sensors=60, n_slots=4)
    stream = OneShotStream(
        UnaffordableWorkload(scenario.working_region), kind="point"
    )
    engine = SlotEngine(
        scenario.make_fleet(), [stream], GreedyAllocator(),
        np.random.default_rng(5),
    )
    summary = SimulationSummary()
    for _ in range(3):
        record = engine.step(summary)
        assert record.issued == 3
        assert record.answered == 0
        assert record.value == 0.0
        assert not engine.last_result.selected
        assert not engine.last_result.payments
    assert summary.total_queries == 9
    assert summary.satisfaction_ratio == 0.0


def test_service_ticks_through_empty_and_all_rejected_slots():
    """The marketplace service settles slots that admit nothing and
    slots whose admitted queries are all turned away, and its admission
    trace still replays to identical signatures."""
    from repro.datasets import ScenarioSpec, StreamSpec
    from repro.service import MarketplaceService, replay_admission_trace

    spec = ScenarioSpec(
        name="svc-empty",
        dataset="rwm",
        seed=11,
        n_sensors=60,
        n_slots=4,
        allocator="greedy",
        streams=[StreamSpec("point", {"n_queries": 2, "budget": 10.0})],
    )
    service = MarketplaceService.from_spec(spec)
    template = service.workloads[0][1]
    rng = np.random.default_rng(9)

    # Slot 0: nothing submitted.  Slot 1: unaffordable queries.  Slot 2:
    # a normal batch.
    service.tick_once()
    rejected_batch = template.generate(1, rng)
    for query in rejected_batch:
        query.budget = 1e-9
        service.submit(query)
    service.tick_once()
    normal_batch = template.generate(2, rng)
    for query in normal_batch:
        service.submit(query)
    service.tick_once()

    slots = service.metrics.slots
    assert [s.admitted for s in slots] == [0, len(rejected_batch), len(normal_batch)]
    assert slots[0].issued == 0
    assert slots[1].answered == 0
    assert service.metrics.settled == len(rejected_batch) + len(normal_batch)

    replayed = replay_admission_trace(spec, service.trace)
    assert replayed == service.slot_signatures
