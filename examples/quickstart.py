#!/usr/bin/env python
"""Quickstart: utility-driven point-query acquisition in 60 lines.

Builds the paper's RWM world (200 sensors random-waypointing over an 80x80
grid, aggregator working the central 50x50 hotspot), throws 300 point
queries per slot at it, and compares the three schedulers of Section 3.1:
the optimal BILP, the Feige local search, and the sequential baseline.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    BaselineAllocator,
    FleetConfig,
    LocalSearchPointAllocator,
    OptimalPointAllocator,
    PointQueryWorkload,
    RandomWaypointMobility,
    Region,
    SensorFleet,
    one_shot_engine,
)

N_SLOTS = 10
QUERY_BUDGET = 15.0


def build_fleet(seed: int) -> SensorFleet:
    """200 mobile sensors; announcements restricted to the 50x50 hotspot."""
    rng = np.random.default_rng(seed)
    world = Region.from_origin(80, 80)
    hotspot = Region.centered_in(world, 50, 50)
    mobility = RandomWaypointMobility(world, n_sensors=200, rng=rng)
    return SensorFleet(mobility, hotspot, FleetConfig(), rng)


def main() -> None:
    hotspot = Region.centered_in(Region.from_origin(80, 80), 50, 50)
    workload = PointQueryWorkload(
        hotspot, n_queries=300, budget=QUERY_BUDGET, theta_min=0.2, dmax=5.0
    )

    print(f"Point queries, budget={QUERY_BUDGET}, {N_SLOTS} slots")
    print(f"{'algorithm':<12} {'avg utility/slot':>17} {'satisfaction':>13}")
    for name, allocator in [
        ("Optimal", OptimalPointAllocator()),
        ("LocalSearch", LocalSearchPointAllocator()),
        ("Baseline", BaselineAllocator()),
    ]:
        # Same seeds -> same world and same queries for every algorithm.
        engine = one_shot_engine(
            build_fleet(seed=7), workload, allocator, np.random.default_rng(11)
        )
        summary = engine.run(N_SLOTS)
        print(
            f"{name:<12} {summary.average_utility:>17.1f} "
            f"{summary.satisfaction_ratio:>12.1%}"
        )

    print(
        "\nThe sharing algorithms answer queries the baseline cannot afford:"
        " a sensor's cost is split among every query it serves (eq. 11)."
    )


if __name__ == "__main__":
    main()
