"""Seeded Aggregator oracle: receipts, accounts and digests of one fixed run.

``fixtures/aggregator_oracle.json`` holds :func:`observe` of the run below,
recorded (``json.dump`` of its output) while the Aggregator still ran its
own copy of Algorithm 5 — ``allocate_slot`` of the mix classes plus a
hand-rolled settle loop — with event settlement already on eq. (4).  The
Aggregator now feeds submissions to the :class:`~repro.core.SlotEngine`
that ``mix_engine`` builds; the same seeded run must reproduce every
recorded float exactly (``==``).  Never re-record the fixture to make a
change pass.

The run covers every query type of Figure 1 (point, multi-sensor point,
aggregate, trajectory, location and region monitoring, event detection
with ground truth), a zero-budget user whose queries re-queue every slot,
a capped user who runs out mid-run, and submissions between slots, under
both Algorithm 5 and the Section 4.7 baseline.  Every query carries an
explicit id: automatic ids come from a process-global counter.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core import Aggregator, BaselineMixAllocator, MixAllocator
from repro.datasets import build_ozone_dataset, build_rwm_scenario
from repro.phenomena import GaussianProcessField, RBFKernel, schedule_for_window
from repro.queries import (
    EventDetectionQuery,
    LocationMonitoringQuery,
    MultiSensorPointQuery,
    PointQuery,
    RegionMonitoringQuery,
    SpatialAggregateQuery,
    TrajectoryQuery,
)
from repro.spatial import Location, Region, Trajectory

FIXTURE = Path(__file__).parent / "fixtures" / "aggregator_oracle.json"
MIXES = {"alg5": MixAllocator, "baseline": BaselineMixAllocator}
CONTINUOUS = (LocationMonitoringQuery, RegionMonitoringQuery, EventDetectionQuery)


def _ground_truth(location: Location) -> float:
    return 40.0 + location.x


def _first_wave(scenario, ozone, rng) -> list:
    region = scenario.working_region
    dmax = scenario.dmax
    wave = []
    for i in range(4):
        wave.append((
            PointQuery(region.sample_location(rng), budget=25.0, theta_min=0.0,
                       dmax=dmax, query_id=f"p{i}"),
            "alice",
        ))
    wave.append((
        PointQuery(region.sample_location(rng), budget=25.0, theta_min=0.0,
                   dmax=dmax, query_id="capped-p0"),
        "capped",
    ))
    wave.append((
        PointQuery(region.sample_location(rng), budget=25.0, theta_min=0.0,
                   dmax=dmax, query_id="broke-p0"),
        "broke",
    ))
    wave.append((
        MultiSensorPointQuery(region.sample_location(rng), budget=60.0,
                              n_readings=2, theta_min=0.0, dmax=dmax,
                              query_id="msp0"),
        "alice",
    ))
    wave.append((
        SpatialAggregateQuery(Region(20, 20, 40, 40), budget=200.0,
                              sensing_range=dmax, coverage_radius=3.0,
                              query_id="agg0"),
        "alice",
    ))
    wave.append((
        TrajectoryQuery(
            Trajectory((Location(20, 50), Location(45, 55), Location(60, 30))),
            budget=150.0, sensing_range=dmax, query_id="traj0",
        ),
        "bob",
    ))
    desired = schedule_for_window(ozone.values, 0, 6, 3, ozone.model())
    wave.append((
        LocationMonitoringQuery(region.sample_location(rng), 0, 5, desired,
                                budget=90.0, series=ozone.values,
                                model=ozone.model(), theta_min=0.0, dmax=dmax,
                                query_id="lm0"),
        "agency",
    ))
    wave.append((
        RegionMonitoringQuery(Region(30, 30, 42, 40), 0, 4, budget=80.0,
                              gp=GaussianProcessField(RBFKernel(1.0, 2.0), noise=0.2),
                              dmax=dmax, query_id="rm0"),
        "agency",
    ))
    wave.append((
        EventDetectionQuery(region.sample_location(rng), 0, 5, threshold=60.0,
                            confidence=0.5, budget=120.0, theta_min=0.0,
                            dmax=dmax, query_id="ev0"),
        "watch",
    ))
    return wave


def _second_wave(scenario, ozone, rng, t: int) -> list:
    region = scenario.working_region
    dmax = scenario.dmax
    wave = []
    for i in range(1, 4):
        wave.append((
            PointQuery(region.sample_location(rng), budget=25.0, theta_min=0.0,
                       dmax=dmax, query_id=f"capped-p{i}"),
            "capped",
        ))
    wave.append((
        PointQuery(region.sample_location(rng), budget=25.0, theta_min=0.0,
                   dmax=dmax, query_id="broke-p1"),
        "broke",
    ))
    wave.append((
        SpatialAggregateQuery(Region(35, 25, 60, 45), budget=200.0,
                              sensing_range=dmax, coverage_radius=3.0,
                              query_id="agg1"),
        "alice",
    ))
    desired = schedule_for_window(ozone.values, t, 5, 2, ozone.model())
    wave.append((
        LocationMonitoringQuery(region.sample_location(rng), t, t + 4, desired,
                                budget=70.0, series=ozone.values,
                                model=ozone.model(), theta_min=0.0, dmax=dmax,
                                query_id="lm1"),
        "agency",
    ))
    wave.append((
        EventDetectionQuery(region.sample_location(rng), t, t + 3, threshold=50.0,
                            confidence=0.3, budget=80.0, theta_min=0.0,
                            dmax=dmax, query_id="ev1"),
        "watch",
    ))
    return wave


def _third_wave(scenario, rng) -> list:
    region = scenario.working_region
    return [
        (
            PointQuery(region.sample_location(rng), budget=25.0, theta_min=0.0,
                       dmax=scenario.dmax, query_id=qid),
            user_id,
        )
        for qid, user_id in (("capped-p4", "capped"), ("p4", "alice"))
    ]


def observe(mix_name: str) -> dict:
    """Run the seeded scenario under one mix; everything the API reports."""
    scenario = build_rwm_scenario(seed=21, n_sensors=300, n_slots=12)
    ozone = build_ozone_dataset(seed=21)
    rng = np.random.default_rng(21)
    agg = Aggregator(scenario.make_fleet(), mix=MIXES[mix_name](),
                     ground_truth=_ground_truth)
    agg.open_account("capped", budget=8.0)
    agg.open_account("broke", budget=0.0)
    continuous = {}
    waves = [
        (_first_wave(scenario, ozone, rng), 2),
        (_second_wave(scenario, ozone, rng, t=2), 2),
        (_third_wave(scenario, rng), 3),
    ]
    for wave, n_slots in waves:
        for query, user_id in wave:
            agg.submit(query, user_id=user_id)
            if isinstance(query, CONTINUOUS):
                continuous[query.query_id] = query
        agg.run(n_slots)
    return {
        "receipts": {
            qid: [r.user_id, r.query_type, r.submitted_at, r.answered, r.value,
                  r.paid, r.completed_at]
            for qid, r in agg.receipts.items()
        },
        "accounts": {
            uid: [a.budget, a.spent, a.value_received, list(a.queries)]
            for uid, a in agg.accounts.items()
        },
        "digests": [
            [d.slot, d.utility, d.total_value, d.total_cost, d.answered,
             d.sensors_used, d.events_fired]
            for d in agg.digests
        ],
        "continuous": {
            qid: _continuous_state(query) for qid, query in continuous.items()
        },
    }


def _continuous_state(query) -> list:
    state = [query.spent]
    if isinstance(query, EventDetectionQuery):
        state += [query.value_accrued, list(query.confidence_history),
                  [list(d) for d in query.detections]]
    return state


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("mix_name", sorted(MIXES))
def test_aggregator_matches_recorded_run(recorded, mix_name):
    got = json.loads(json.dumps(observe(mix_name)))
    want = recorded[mix_name]
    assert got["digests"] == want["digests"]
    assert got["receipts"] == want["receipts"]
    assert got["accounts"] == want["accounts"]
    assert got["continuous"] == want["continuous"]


def test_recorded_run_exercises_every_path(recorded):
    """Guard against a degenerate fixture: each behaviour it claims to pin
    actually happens in the recorded run."""
    for want in recorded.values():
        receipts = want["receipts"]
        kinds = {r[1] for r in receipts.values() if r[3]}
        assert {"point", "multi_point", "aggregate", "trajectory",
                "location_monitoring", "region_monitoring", "event"} <= kinds
        assert not receipts["broke-p0"][3] and receipts["broke-p0"][5] == 0.0
        assert want["accounts"]["broke"][1] == 0.0
        assert math.isinf(want["accounts"]["alice"][0])
        assert sum(d[6] for d in want["digests"]) > 0  # an event fired
        # The capped user overspends in slot 2, so its later query waits.
        assert want["accounts"]["capped"][1] > 8.0
        assert receipts["capped-p4"][6] is None and receipts["p4"][6] == 4
