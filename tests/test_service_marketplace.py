"""Unit coverage for the marketplace service layer: admission control
and backpressure, config validation, SLO metrics, the loadgen's seeded
determinism, and the asyncio ticker."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.datasets import ScenarioSpec, StreamSpec
from repro.service import (
    REJECT_NOT_ACCEPTING,
    REJECT_QUEUE_FULL,
    BurstyProfile,
    LatencyHistogram,
    LoadGenerator,
    MarketplaceService,
    PoissonProfile,
    ServiceConfig,
    WorkloadArrivals,
    profile_from_payload,
    service_engine,
    summary_payload,
)


def make_spec(**knobs):
    defaults = dict(
        name="svc-unit",
        dataset="rwm",
        seed=21,
        n_sensors=300,
        n_slots=6,
        allocator="greedy",
        streams=[StreamSpec("point", {"n_queries": 4, "budget": 12.0})],
    )
    defaults.update(knobs)
    return ScenarioSpec(**defaults)


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
def test_service_config_defaults_and_payload():
    config = ServiceConfig.from_payload(None)
    assert config.max_queue_depth == 1024
    assert config.max_admitted_per_tick == 256
    config = ServiceConfig.from_payload(
        {"tick_interval": 0.5, "max_queue_depth": 32,
         "arrivals": {"profile": "bursty", "rate": 4, "burst_rate": 40}}
    )
    assert config.tick_interval == 0.5
    assert config.max_queue_depth == 32
    profile, seed = profile_from_payload(config.arrivals)
    assert isinstance(profile, BurstyProfile) and seed == 0


@pytest.mark.parametrize(
    "payload",
    [
        {"max_queue_depth": 0},
        {"max_admitted_per_tick": -1},
        {"tick_interval": -0.1},
        {"unknown_knob": 3},
        {"arrivals": {"profile": "square_wave"}},
        {"arrivals": {"profile": "poisson", "bogus": 1}},
    ],
    ids=lambda p: next(iter(p)),
)
def test_service_config_rejects_bad_payloads(payload):
    with pytest.raises(ValueError):
        ServiceConfig.from_payload(payload)


def test_spec_service_block_is_validated_and_round_trips():
    spec = make_spec(service={"max_queue_depth": 16})
    assert ScenarioSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
    with pytest.raises(ValueError):
        make_spec(service={"max_queue_depth": "many"})


def test_service_engine_rejects_continuous_streams():
    spec = make_spec(
        streams=[
            StreamSpec("point", {"n_queries": 2}),
            StreamSpec("event", {}),
        ]
    )
    with pytest.raises(ValueError, match="one-shot"):
        service_engine(spec)


# ----------------------------------------------------------------------
# admission control + backpressure
# ----------------------------------------------------------------------
def test_tickets_number_every_arrival_and_reject_when_full():
    service = MarketplaceService.from_spec(
        make_spec(), max_queue_depth=3, max_admitted_per_tick=2
    )
    queries = service.workloads[0][1].generate(0, np.random.default_rng(0))
    assert len(queries) == 4
    tickets = [service.submit(q) for q in queries]
    assert [t.accepted for t in tickets] == [True, True, True, False]
    # Rejected arrivals still consume a sequence number (arrival order).
    assert [t.seq for t in tickets] == [0, 1, 2, 3]
    assert tickets[3].reason == REJECT_QUEUE_FULL
    assert service.metrics.rejected == {REJECT_QUEUE_FULL: 1}

    record = service.tick_once()
    assert record.issued == 2  # admission cap
    assert service.metrics.slots[0].admitted == 2
    assert service.metrics.slots[0].queue_depth == 1  # still queued

    service.stop()
    ticket = service.submit(queries[0])
    assert not ticket.accepted and ticket.reason == REJECT_NOT_ACCEPTING


def test_queued_arrivals_carry_over_and_wait_is_observed():
    service = MarketplaceService.from_spec(make_spec(), max_admitted_per_tick=1)
    queries = service.workloads[0][1].generate(0, np.random.default_rng(0))
    for q in queries[:2]:
        service.submit(q)
    service.tick_once()
    service.tick_once()
    assert [s.admitted for s in service.metrics.slots] == [1, 1]
    # The second query waited one tick in the queue.
    assert service.metrics.max_admission_wait == 1
    assert service.metrics.settled == 2


def test_bursty_load_keeps_the_admission_ledger():
    """Bursts that outrun the admission cap turn into a bounded queue and
    explicit ``queue_full`` rejections, never unbounded growth, and the
    per-tick ledger adds up to the service totals."""
    n_ticks, depth, cap = 8, 12, 3
    service = MarketplaceService.from_spec(
        make_spec(n_slots=n_ticks), max_queue_depth=depth, max_admitted_per_tick=cap
    )
    generator = LoadGenerator(
        BurstyProfile(rate=2.0, burst_rate=40.0, period=4, burst_length=1),
        service.workloads,
        seed=7,
    )
    generator.drive(service, n_ticks)
    metrics = service.metrics
    assert len(metrics.slots) == n_ticks
    assert metrics.submitted > n_ticks * cap
    assert all(s.admitted <= cap for s in metrics.slots)
    assert metrics.admitted == sum(s.admitted for s in metrics.slots)
    assert metrics.max_queue_depth <= depth
    assert metrics.rejected.get(REJECT_QUEUE_FULL, 0) > 0


def test_tick_property_tracks_fleet_clock():
    service = MarketplaceService.from_spec(make_spec())
    assert service.tick == 0
    service.tick_once()
    assert service.tick == 1 and service.ticks == 1


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_latency_histogram_quantiles_bracket_observations():
    hist = LatencyHistogram()
    for v in [0.001, 0.002, 0.004, 0.008, 0.1]:
        hist.observe(v)
    assert hist.count == 5
    assert 0.001 <= hist.p50 <= 0.008
    assert hist.p99 <= 0.1 * 1.2 + 1e-9
    snap = hist.snapshot()
    assert snap["count"] == 5 and snap["max_seconds"] == pytest.approx(0.1)
    assert LatencyHistogram().p50 == 0.0  # empty histogram is defined


def test_metrics_export_json_and_csv(tmp_path):
    spec = make_spec()
    service = MarketplaceService.from_spec(spec)
    generator = LoadGenerator(PoissonProfile(6.0), service.workloads, seed=1)
    generator.drive(service, 3)

    payload = service.metrics.payload()
    assert payload["counters"]["admitted"] == service.metrics.admitted
    assert set(payload["latency"]["phases"]) == {
        "announce", "kernel", "allocate", "settle"
    }

    out = tmp_path / "m.json"
    extra = summary_payload(spec.to_dict(), 3, service.summary)
    service.metrics.write_json(out, extra=extra)
    data = json.loads(out.read_text())
    assert data["service"]["counters"]["settled"] == service.metrics.settled
    assert data["n_slots"] == 3 and "phase_timings" in data

    csv_path = tmp_path / "m.csv"
    service.metrics.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 4  # header + one row per slot
    assert lines[0].startswith("slot,admitted,rejected,queue_depth")


# ----------------------------------------------------------------------
# loadgen
# ----------------------------------------------------------------------
def test_profiles_are_deterministic_and_bursty_peaks():
    rng = np.random.default_rng(3)
    bursty = BurstyProfile(rate=1.0, burst_rate=50.0, period=4, burst_length=1)
    counts = [bursty.count(t, rng) for t in range(8)]
    assert counts[0] > counts[1] and counts[4] > counts[5]
    with pytest.raises(ValueError):
        BurstyProfile(rate=1.0, burst_rate=2.0, period=0)
    with pytest.raises(ValueError):
        PoissonProfile(-1.0)


def test_schedule_is_reproducible_and_matches_drive():
    spec = make_spec()
    service = MarketplaceService.from_spec(spec)
    generator = LoadGenerator(PoissonProfile(5.0), service.workloads, seed=4)
    a = generator.schedule(4)
    b = generator.schedule(4)
    assert [len(batch) for batch in a] == [len(batch) for batch in b]
    for qa, qb in zip(
        (q for batch in a for q in batch), (q for batch in b for q in batch)
    ):
        # Fresh objects/ids, identical parameters.
        assert qa is not qb and qa.query_id != qb.query_id
        assert qa.budget == qb.budget
        assert (qa.location.x, qa.location.y) == (qb.location.x, qb.location.y)

    generator.drive(service, 4)
    assert service.metrics.submitted == sum(len(batch) for batch in a)


def test_workload_arrivals_deals_round_robin_and_survives_dry_streams():
    class Dry:
        def generate(self, t, rng):
            return []

    spec = make_spec(
        streams=[
            StreamSpec("point", {"n_queries": 2, "budget": 12.0}),
            StreamSpec("aggregate", {"mean_queries": 2, "count_spread": 0,
                                     "min_side": 5.0, "max_side": 10.0}),
        ]
    )
    _, _, workloads = service_engine(spec)
    dealer = WorkloadArrivals(workloads)
    rng = np.random.default_rng(0)
    out = dealer.take(6, 0, rng)
    assert len(out) == 6
    assert len({type(q).__name__ for q in out}) == 2  # both streams dealt

    dry_dealer = WorkloadArrivals([("a", Dry()), ("b", Dry())])
    assert dry_dealer.take(5, 0, rng) == []
    with pytest.raises(ValueError):
        WorkloadArrivals([])


# ----------------------------------------------------------------------
# asyncio ticker
# ----------------------------------------------------------------------
def test_async_serve_ticks_and_interleaves_submissions():
    spec = make_spec()
    service = MarketplaceService.from_spec(spec)
    generator = LoadGenerator(PoissonProfile(5.0), service.workloads, seed=2)

    async def run():
        await asyncio.gather(
            service.serve(3), generator.drive_async(service, 3)
        )

    asyncio.run(run())
    assert service.ticks == 3
    assert len(service.metrics.slots) == 3
    assert service.metrics.submitted > 0


def test_serve_stop_ends_open_ended_loop():
    service = MarketplaceService.from_spec(make_spec())

    async def run():
        async def stopper():
            await asyncio.sleep(0)
            service.stop()

        await asyncio.gather(service.serve(), stopper())

    asyncio.run(run())
    assert service.ticks >= 1
    assert not service._accepting
