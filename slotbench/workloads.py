"""The four benchmark workloads, as scenario specs generated from a seed.

Each workload is a function of ``(seed, n_slots)`` returning the spec the
program receives; nothing else about the seed reaches the program.  No
workload sets the ``backend`` or ``workspace`` knobs, so the benchmark runs
unchanged once those seams are deleted, and the fused gain pipeline is left
at the allocator's default (``"auto"``).

Why each workload exists is in BENCHMARK.json and, at length, in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """How many slots a run holds and how the spec is made.

    ``slots_per_second`` converts ``--seconds`` into a fixed slot count at
    the slot cost measured when the benchmark was defined, so every run of
    a workload does identical work whatever the program's speed.
    ``period`` is the arrival-burst period: measured slots and the warm-up
    are whole periods.
    """

    name: str
    #: ``(seed, n_slots) -> ScenarioSpec payload``
    spec: Callable[[int, int], dict]
    slots_per_second: float
    warmup: int
    period: int = 1

    def n_slots(self, seconds: float) -> int:
        n = max(2 * self.period, round(seconds * self.slots_per_second))
        return -(-n // self.period) * self.period


def _world_seed(seed: int, salt: int) -> int:
    return (int(seed) * 7919 + salt) % (2**31 - 1)


def _points_metro(seed: int, n_slots: int) -> dict:
    return {
        "name": "points-metro",
        "dataset": "rwm",
        "seed": _world_seed(seed, 11),
        "n_sensors": 20000,
        "n_slots": n_slots,
        "allocator": "greedy",
        "allocation": "joint",
        "sharding": "auto",
        "streams": [
            {"kind": "point", "params": {"n_queries": 200, "budget": 15.0, "dmax": 2.0}},
        ],
    }


def _region_agg(seed: int, n_slots: int) -> dict:
    return {
        "name": "region-agg",
        "dataset": "rwm",
        "seed": _world_seed(seed, 23),
        "n_sensors": 10000,
        "n_slots": n_slots,
        "allocator": "greedy",
        "allocation": "joint",
        "sharding": "auto",
        "streams": [
            {"kind": "aggregate", "params": {
                "budget_factor": 2.5, "mean_queries": 24, "count_spread": 0,
                "sensing_range": 10.0, "min_side": 8.0, "max_side": 16.0,
                "coverage_radius": 5.0,
            }},
        ],
    }


def _mixed_small(seed: int, n_slots: int) -> dict:
    # examples/specs/rush_hour_burst.json, copied so that edits to the
    # example do not move the benchmark, with the sensor lifetime raised
    # past the run: at the default 50 readings most of the 120 sensors are
    # exhausted within a few hundred slots and the run would measure a
    # dead fleet (the drift guard checks exhausted_count stays 0).
    return {
        "name": "mixed-small",
        "dataset": "rwm",
        "seed": _world_seed(seed, 37),
        "n_sensors": 120,
        "n_slots": n_slots,
        "allocator": "greedy",
        "sharding": True,
        "fleet": {"lifetime": 1_000_000},
        "streams": [
            {"kind": "aggregate", "params": {
                "mean_queries": 8, "count_spread": 4, "min_side": 6.0, "max_side": 14.0,
            }},
            {"kind": "point", "params": {
                "n_queries": 150, "budget": 12.0, "budget_spread": 5.0,
            }},
            {"kind": "location_monitoring", "params": {
                "max_live": 25, "arrivals_per_slot": 8, "duration_range": [3, 8],
            }},
        ],
    }


#: service_burst arrivals: per tick, BASE_TICK_DRAWS draws of each arrival
#: template (18 point + 6 aggregate queries per draw); every
#: BURST_PERIOD-th tick draws BURST_TICK_DRAWS times instead.  With the
#: admission cap of 48 a period admits 48, 48, then 24 per tick, so three
#: quarters of the ticks (and three fifths of the queries) share one size
#: and the medians sit inside one mode rather than on the edge of two.
POINTS_PER_DRAW = 18
AGGREGATES_PER_DRAW = 6
BASE_TICK_DRAWS = 1
BURST_TICK_DRAWS = 3
BURST_PERIOD = 8


def _service_burst(seed: int, n_slots: int) -> dict:
    return {
        "name": "service-burst",
        "dataset": "rwm",
        "seed": _world_seed(seed, 53),
        "n_sensors": 10000,
        "n_slots": n_slots,
        "allocator": "greedy",
        "allocation": "joint",
        "sharding": "auto",
        "incremental": "auto",
        "mobility": {"kind": "churn", "fraction": 0.02},
        "service": {"max_queue_depth": 128, "max_admitted_per_tick": 48},
        "streams": [
            {"kind": "point", "params": {
                "n_queries": POINTS_PER_DRAW, "budget": 15.0, "dmax": 2.0,
            }},
            {"kind": "aggregate", "params": {
                "budget_factor": 2.5, "mean_queries": AGGREGATES_PER_DRAW,
                "count_spread": 0, "sensing_range": 10.0, "min_side": 8.0,
                "max_side": 16.0, "coverage_radius": 5.0,
            }},
        ],
    }


WORKLOADS = {
    "points_metro": Workload("points_metro", _points_metro, slots_per_second=13.0, warmup=3),
    "region_agg": Workload("region_agg", _region_agg, slots_per_second=5.5, warmup=2),
    "mixed_small": Workload("mixed_small", _mixed_small, slots_per_second=40.0, warmup=5),
    "service_burst": Workload("service_burst", _service_burst, slots_per_second=13.0,
                              warmup=BURST_PERIOD, period=BURST_PERIOD),
}
