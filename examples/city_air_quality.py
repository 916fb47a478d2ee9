#!/usr/bin/env python
"""City air-quality platform: the full query mix of Section 3.4.

The motivating scenario of the paper's introduction: one participatory-
sensing platform serving many concurrent applications —

* citizens asking "what is the CO2 level right here?" (point queries),
* a newspaper mapping averages per neighbourhood (spatial aggregates),
* an environmental agency monitoring fixed addresses over hours
  (location-monitoring queries with OptiMoS-style sampling schedules).

Algorithm 5 shares sensors (and their costs) across all of them; the
sequential baseline runs every application separately.  Watch the utility
gap — that gap is the platform's sustainability margin.

Run:  python examples/city_air_quality.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AggregateQueryWorkload,
    BaselineMixAllocator,
    LocationMonitoringWorkload,
    MixAllocator,
    PointQueryWorkload,
    mix_engine,
)
from repro.core import SlotEngine
from repro.datasets import build_ozone_dataset, build_rnc_scenario

N_SLOTS = 12
BUDGET_FACTOR = 15.0


def build_engine(mix, seed: int = 2013) -> SlotEngine:
    # A down-scaled Lausanne: 200 participants, ~40 in the downtown hotspot.
    scenario = build_rnc_scenario(
        seed=seed, n_sensors=200, target_presence=40.0, n_slots=N_SLOTS
    )
    ozone = build_ozone_dataset(seed=seed)
    citizens = PointQueryWorkload(
        scenario.working_region, n_queries=60, budget=BUDGET_FACTOR, dmax=scenario.dmax
    )
    newspaper = AggregateQueryWorkload(
        scenario.working_region,
        budget_factor=BUDGET_FACTOR,
        mean_queries=8,
        count_spread=3,
        sensing_range=scenario.dmax,
    )
    agency = LocationMonitoringWorkload(
        scenario.working_region,
        ozone.values,
        ozone.model(),
        budget_factor=BUDGET_FACTOR,
        max_live=20,
        arrivals_per_slot=4,
        dmax=scenario.dmax,
    )
    return mix_engine(
        scenario.make_fleet(), citizens, newspaper, agency, np.random.default_rng(5), mix=mix
    )


def main() -> None:
    print(f"Query mix on the RNC-substitute city, {N_SLOTS} slots\n")
    results = {}
    for name, mix in [("Algorithm 5", MixAllocator()), ("Baseline", BaselineMixAllocator())]:
        summary = build_engine(mix).run(N_SLOTS)
        results[name] = summary
        print(f"--- {name}")
        print(f"  avg utility / slot      : {summary.average_utility:9.1f}")
        print(f"  point satisfaction      : {summary.satisfaction_ratio:9.1%}")
        print(f"  point quality           : {summary.average_quality('point'):9.3f}")
        print(f"  aggregate quality       : {summary.average_quality('aggregate'):9.3f}")
        print(
            "  monitoring quality      : "
            f"{summary.average_quality('location_monitoring'):9.3f}"
        )
        print(f"  queries with net benefit: {summary.egalitarian_ratio:9.1%}\n")

    advantage = (
        results["Algorithm 5"].average_utility - results["Baseline"].average_utility
    )
    print(f"Sensor sharing is worth {advantage:.1f} utility per slot to this city.")


if __name__ == "__main__":
    main()
