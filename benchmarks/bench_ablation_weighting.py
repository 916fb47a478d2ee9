"""Ablation: the eq. 18 cost-sharing weight w(k) for region monitoring.

The weight discounts a sensor's cost inside Algorithm 4 proportionally to
how many monitored regions contain it, "increasing the selection chance of
a sensor which can be shared".  Disabling it (w = 1) is exactly what the
Figure 9 baseline does besides dropping shared sensors; here we isolate
the weighting alone.
"""

from __future__ import annotations

import numpy as np

from conftest import run_once
from repro.core import (
    OptimalPointAllocator,
    RegionMonitoringController,
    paper_weight_function,
    region_monitoring_engine,
)
from repro.datasets import build_intel_scenario
from repro.queries import RegionMonitoringWorkload


def run_variant(scale, weighted: bool):
    world = build_intel_scenario(2013, scale.intel_sensors, scale.n_slots)
    workload = RegionMonitoringWorkload(
        world.scenario.working_region,
        world.gp,
        budget_factor=15.0,
        sensing_radius=world.scenario.dmax,
        queries_per_slot=2,  # overlap needed for w(k) to matter
    )
    controller = RegionMonitoringController(
        weight_fn=paper_weight_function if weighted else (lambda k: 1.0),
    )
    engine = region_monitoring_engine(
        world.scenario.make_fleet(),
        workload,
        OptimalPointAllocator(),
        np.random.default_rng(2013),
        controller=controller,
    )
    summary = engine.run(scale.n_slots)
    return summary.average_utility, summary.average_quality("region_monitoring")


def sweep(scale):
    return {
        "weighted": run_variant(scale, weighted=True),
        "unweighted": run_variant(scale, weighted=False),
    }


def test_weighting_ablation(benchmark, scale):
    rows = run_once(benchmark, sweep, scale)
    print("\nvariant     avg_utility  avg_quality")
    for name, (utility, quality) in rows.items():
        print(f"{name:10s}  {utility:11.2f}  {quality:11.3f}")
    # The discount can only enlarge the sampling plans; it must not collapse
    # utility (>= 60% of the unweighted variant at any scale).
    assert rows["weighted"][0] >= 0.6 * rows["unweighted"][0]
