"""Ablation: the alpha budget-carryover control of Algorithms 2/3.

Section 3.3 introduces alpha as "a fraction of the extra budget ... to be
able to keep some extra budget for uncertain future samples" and fixes it
at 0.5 in the experiments.  This sweep shows what the knob buys: alpha = 0
disables opportunistic sampling entirely, alpha = 1 spends every surplus
immediately.
"""

from __future__ import annotations

import numpy as np

from conftest import run_once
from repro.core import (
    LocationMonitoringController,
    OptimalPointAllocator,
    location_monitoring_engine,
)
from repro.datasets import build_ozone_dataset, build_rnc_scenario
from repro.queries import LocationMonitoringWorkload

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def sweep(scale):
    scenario = build_rnc_scenario(
        2013, scale.rnc_sensors, scale.rnc_presence, scale.n_slots
    )
    ozone = build_ozone_dataset(2013, n_slots=max(50, scale.n_slots))
    rows = []
    for alpha in ALPHAS:
        workload = LocationMonitoringWorkload(
            scenario.working_region,
            ozone.values,
            ozone.model(),
            budget_factor=15.0,
            max_live=scale.lm_max_live,
            arrivals_per_slot=scale.lm_arrivals_per_slot,
            dmax=scenario.dmax,
        )
        engine = location_monitoring_engine(
            scenario.make_fleet(),
            workload,
            OptimalPointAllocator(),
            np.random.default_rng(2013),
            controller=LocationMonitoringController(alpha=alpha),
        )
        summary = engine.run(scale.n_slots)
        rows.append(
            (alpha, summary.average_utility, summary.average_quality("location_monitoring"))
        )
    return rows


def test_alpha_ablation(benchmark, scale):
    rows = run_once(benchmark, sweep, scale)
    print("\nalpha  avg_utility  avg_quality")
    for alpha, utility, quality in rows:
        print(f"{alpha:5.2f}  {utility:11.2f}  {quality:11.3f}")
    # Opportunistic sampling (alpha > 0) must not hurt result quality
    # relative to alpha = 0 at the same budget.
    q0 = rows[0][2]
    assert max(q for _, _, q in rows[1:]) >= q0 - 1e-9
