"""A slot whose engine step raises must not take the service down or
corrupt its admission trace.

The poison is a point query whose gain block raises ``RuntimeError`` on
commit, priced so that it wins a sensor.  The failed tick records its drained queries as
``slot_failed``, counts the failure by error class, and leaves nothing in
the replayed slots; the fleet has not advanced, so the next tick re-runs
the same clock and the offline replay still matches the live signatures.
"""

from __future__ import annotations

import asyncio
import csv
import json

import numpy as np
import pytest

from repro.datasets import StreamSpec
from repro.queries import GainBlock, PointQuery
from repro.service import (
    SLOT_FAILED,
    MarketplaceService,
    replay_admission_trace,
)
from test_service_marketplace import make_spec


class _PoisonBlock(GainBlock):
    def commit(self, member, column):
        raise RuntimeError("poisoned commit")


class PoisonQuery(PointQuery):
    """A point query whose gain block refuses every commit."""

    @classmethod
    def gain_block(cls, queries, roster, columns):
        return _PoisonBlock(queries, roster)


SPECS = {
    # the plain 300-sensor unit-test service, full rebuild every slot
    "rebuild": make_spec(),
    # patched slot state over churn, with aggregates: the failed step
    # has already spliced the announcements, rasters and grid index
    "incremental": make_spec(
        n_sensors=400,
        mobility={"kind": "churn", "fraction": 0.05},
        streams=[
            StreamSpec("point", {"n_queries": 4, "budget": 12.0}),
            StreamSpec(
                "aggregate",
                {"mean_queries": 2, "count_spread": 0, "min_side": 10.0,
                 "max_side": 20.0},
            ),
        ],
    ),
}


def submit_draw(service: MarketplaceService, t: int, rng) -> list[int]:
    """Submit one draw of every arrival template; return the seqs."""
    seqs = []
    for _, workload in service.workloads:
        for query in workload.generate(t, rng):
            seqs.append(service.submit(query).seq)
    return seqs


def poison(service: MarketplaceService, rng) -> PoisonQuery:
    # A wide reach and a large budget make it win a sensor in any slot.
    template = service.workloads[0][1].generate(0, rng)[0]
    return PoisonQuery(template.location, budget=1000.0, theta_min=0.0, dmax=40.0)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_poisoned_slot_fails_alone_and_replay_still_agrees(name):
    spec = SPECS[name]
    service = MarketplaceService.from_spec(spec)
    rng = np.random.default_rng(4)
    for t in range(2):
        submit_draw(service, t, rng)
        service.tick_once()

    clock = service.tick
    seqs = submit_draw(service, clock, rng)
    seqs.append(service.submit(poison(service, rng)).seq)
    with pytest.raises(RuntimeError, match="poisoned commit"):
        service.tick_once()

    # The drained queries are recorded as failed, not lost or replayed.
    assert service.queue_depth == 0
    assert len(service.trace.failed) == 1
    failed = service.trace.failed[0]
    assert failed.t == clock and list(failed.seqs) == seqs
    assert failed.reason == SLOT_FAILED and failed.error == "RuntimeError"
    assert service.trace.n_slots == len(service.slot_signatures) == 2
    assert service.metrics.failed == {"RuntimeError": 1}
    assert service.metrics.failed_total == 1
    assert service.metrics.slots[-1].failed == "RuntimeError"
    # The fleet did not advance: the next tick re-runs the same clock.
    assert service.tick == clock and service.ticks == 2

    for t in range(3):
        submit_draw(service, service.tick, rng)
        service.tick_once()
    assert service.ticks == 5 and service.tick == clock + 3
    assert [s.t for s in service.trace.slots] == [0, 1, 2, 3, 4]
    assert service.metrics.settled > 0
    assert replay_admission_trace(spec, service.trace) == service.slot_signatures


def test_serve_keeps_ticking_past_a_failed_slot():
    spec = SPECS["rebuild"]
    service = MarketplaceService.from_spec(spec)
    rng = np.random.default_rng(9)
    submit_draw(service, 0, rng)
    service.submit(poison(service, rng))

    async def run():
        async def feed():
            for t in range(1, 4):
                await asyncio.sleep(0)
                submit_draw(service, t, rng)

        await asyncio.gather(service.serve(4), feed())

    asyncio.run(run())
    assert service.metrics.failed == {"RuntimeError": 1}
    assert len(service.trace.failed) == 1
    assert service.ticks == 3  # four ticks served, one of them failed
    assert replay_admission_trace(spec, service.trace) == service.slot_signatures


def test_failures_are_exported_by_error_class(tmp_path):
    service = MarketplaceService.from_spec(SPECS["rebuild"])
    rng = np.random.default_rng(2)
    service.submit(poison(service, rng))
    with pytest.raises(RuntimeError):
        service.tick_once()
    submit_draw(service, service.tick, rng)
    service.tick_once()

    payload = service.metrics.payload()
    assert payload["counters"]["failed"] == {"RuntimeError": 1}
    assert payload["counters"]["failed_total"] == 1
    assert [row["failed"] for row in payload["slots"]] == ["RuntimeError", ""]

    out = tmp_path / "m.json"
    service.metrics.write_json(out)
    assert json.loads(out.read_text())["counters"]["failed"] == {"RuntimeError": 1}

    csv_path = tmp_path / "m.csv"
    service.metrics.write_csv(csv_path)
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert [row["failed"] for row in rows] == ["RuntimeError", ""]
    assert [int(row["slot"]) for row in rows] == [0, 0]
