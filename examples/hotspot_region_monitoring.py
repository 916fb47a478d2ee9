#!/usr/bin/env python
"""Region monitoring over a learned Gaussian-process field (Section 4.6).

The Intel-Lab replay: a spatially correlated temperature field over a 20x15
grid, 30 imaginary mobile sensors reporting the cell they stand on, and a
region-monitoring query valuing sensor sets by the expected variance
reduction at the region's cells (eqs. 6-7).  Algorithm 3 plans sampling
points with Algorithm 4, buys them through the optimal point scheduler, and
opportunistically absorbs sensors bought by overlapping queries.

After the run we reconstruct the field from the purchased readings with the
GP posterior and report the reconstruction error — the quantity the
variance-reduction valuation is a proxy for.

Run:  python examples/hotspot_region_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    OptimalPointAllocator,
    RegionMonitoringWorkload,
    region_monitoring_engine,
)
from repro.datasets import build_intel_scenario

N_SLOTS = 15


def main() -> None:
    world = build_intel_scenario(seed=2013, n_sensors=30, n_slots=N_SLOTS)
    workload = RegionMonitoringWorkload(
        world.scenario.working_region,
        world.gp,
        budget_factor=15.0,
        sensing_radius=world.scenario.dmax,
        queries_per_slot=1,
    )
    engine = region_monitoring_engine(
        world.scenario.make_fleet(),
        workload,
        OptimalPointAllocator(),
        np.random.default_rng(3),
    )
    summary = engine.run(N_SLOTS)

    print(f"Region monitoring, {N_SLOTS} slots, learned GP "
          f"(variance={world.gp.kernel.variance:.2f}, "
          f"length_scale={world.gp.kernel.length_scale:.2f})")
    print(f"  avg utility / slot : {summary.average_utility:8.1f}")
    print(f"  avg result quality : {summary.average_quality('region_monitoring'):8.3f}")

    # Reconstruct the field from everything the queries bought.
    rng = np.random.default_rng(9)
    bought: list = []
    values: list[float] = []
    replay = world.scenario.make_fleet()
    # Collect one snapshot of readings at the final positions as a demo.
    for snap in replay.announcements():
        bought.append(snap.location)
        values.append(world.field.reading(snap.location, snap.inaccuracy, rng))
    targets = world.field.cell_centers
    truth = world.field.cell_values()
    mean, variance = world.gp.predict(bought, np.asarray(values) - truth.mean(), targets)
    reconstruction = mean + truth.mean()
    rmse = float(np.sqrt(np.mean((reconstruction - truth) ** 2)))
    prior_rmse = float(np.std(truth))
    print(f"  field reconstruction RMSE from {len(bought)} readings: "
          f"{rmse:.3f} (prior spread {prior_rmse:.3f})")
    print(f"  mean posterior std over cells: {float(np.sqrt(variance.mean())):.3f}")


if __name__ == "__main__":
    main()
