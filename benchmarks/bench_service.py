"""Service liveness under bursty load at fleet scale.

A 20k-sensor sharded world is driven open-loop with a bursty arrival
profile that outruns the admission budget by design.  The service must
stay *live*: the queue stays at its declared bound and overflow turns
into explicit ``queue_full`` rejections, while per-slot latency stays
flat (work per tick is capped by admission, never by the backlog).  The
suite asserts those properties and emits ``BENCH_service.json`` — p50 /
p99 slot latency, per-phase latencies, and the admission ledger — so
future changes to the service or the engine underneath have SLO numbers
to compare against.  Set ``REPRO_BENCH_SERVICE_JSON`` to choose the
output path.

Run:  pytest benchmarks/bench_service.py -s
"""

from __future__ import annotations

import json
import os
import statistics

import pytest

from repro.datasets import ScenarioSpec, StreamSpec
from repro.service import BurstyProfile, LoadGenerator, MarketplaceService

_RESULTS: dict[str, dict] = {}

N_TICKS = 12
QUEUE_DEPTH = 96
ADMIT_CAP = 24


@pytest.fixture(scope="session", autouse=True)
def bench_service_json():
    """Write the SLO table after the whole bench session."""
    yield
    if not _RESULTS:
        return
    path = os.environ.get("REPRO_BENCH_SERVICE_JSON", "BENCH_service.json")
    with open(path, "w") as fh:
        json.dump(_RESULTS, fh, indent=2, sort_keys=True)
    print(f"\nwrote {len(_RESULTS)} service bench cases to {path}")


def burst_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="bench-service-burst",
        dataset="rwm",
        seed=2013,
        n_sensors=20_000,
        n_slots=N_TICKS,
        allocator="greedy",
        sharding="auto",
        streams=[
            StreamSpec("point", {"n_queries": 64, "budget": 15.0, "dmax": 2.0}),
            StreamSpec(
                "aggregate",
                {"mean_queries": 16, "count_spread": 0, "min_side": 24.0,
                 "max_side": 48.0, "coverage_radius": 5.0,
                 "sensing_range": 10.0},
            ),
        ],
    )


def run_burst() -> MarketplaceService:
    spec = burst_spec()
    service = MarketplaceService.from_spec(
        spec, max_queue_depth=QUEUE_DEPTH, max_admitted_per_tick=ADMIT_CAP
    )
    generator = LoadGenerator(
        BurstyProfile(rate=8.0, burst_rate=160.0, period=4, burst_length=1),
        service.workloads,
        seed=7,
    )
    generator.drive(service, N_TICKS)
    return service


@pytest.fixture(scope="module")
def burst_service():
    return run_burst()


def test_bursty_load_stays_live_at_20k_sensors(burst_service):
    metrics = burst_service.metrics
    # The bursts outran the admission budget: backpressure engaged...
    assert metrics.submitted > N_TICKS * ADMIT_CAP
    assert metrics.rejected.get("queue_full", 0) > 0
    # ...as bounded queue + rejections, never unbounded growth.
    assert metrics.max_queue_depth <= QUEUE_DEPTH
    assert all(s.admitted <= ADMIT_CAP for s in metrics.slots)
    assert metrics.admitted == sum(s.admitted for s in metrics.slots)
    assert len(metrics.slots) == N_TICKS


def test_latency_stays_flat_not_collapsing(burst_service):
    """Backlog must not leak into slot latency: with admission capped,
    the ticks after a burst cost about what the ticks before it did."""
    seconds = [s.slot_seconds for s in burst_service.metrics.slots]
    median = statistics.median(seconds)
    assert median > 0
    # Generous bound: no slot (burst ticks included) an order of
    # magnitude beyond the median — a backlog-driven collapse shows up
    # as monotonically growing slot times, far past this.
    assert max(seconds) <= 10 * median
    tail = statistics.mean(seconds[-3:])
    assert tail <= 5 * median


def test_record_service_slo(burst_service):
    metrics = burst_service.metrics
    _RESULTS["bursty_20k"] = {
        "config": {
            "n_sensors": 20_000,
            "n_ticks": N_TICKS,
            "max_queue_depth": QUEUE_DEPTH,
            "max_admitted_per_tick": ADMIT_CAP,
            "profile": repr(
                BurstyProfile(rate=8.0, burst_rate=160.0, period=4,
                              burst_length=1)
            ),
        },
        "slot_latency": metrics.slot_latency.snapshot(),
        "phase_latency": {
            phase: hist.snapshot()
            for phase, hist in metrics.phase_latency.items()
        },
        "admission": {
            "submitted": metrics.submitted,
            "admitted": metrics.admitted,
            "rejected": dict(sorted(metrics.rejected.items())),
            "settled": metrics.settled,
            "answered": metrics.answered,
            "max_queue_depth": metrics.max_queue_depth,
            "mean_queue_depth": metrics.queue_depth.mean,
            "max_admission_wait_ticks": metrics.max_admission_wait,
        },
    }
