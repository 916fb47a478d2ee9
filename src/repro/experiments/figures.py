"""Reproduction of every figure in the paper's evaluation (Section 4).

Each ``figN`` function regenerates the corresponding figure's series — the
same x-axis sweep, the same algorithms, the same metrics — on the synthetic
scenario substitutes of :mod:`repro.datasets`.  All functions take an
:class:`~repro.experiments.config.ExperimentScale` so benches can run them
small (``ci``) or at the published size (``paper``).
"""

from __future__ import annotations

import numpy as np

from ..core import (
    BaselineAllocator,
    BaselineMixAllocator,
    GreedyAllocator,
    LocalSearchPointAllocator,
    LocationMonitoringController,
    MixAllocator,
    OptimalPointAllocator,
    RegionMonitoringController,
    event_detection_engine,
    location_monitoring_engine,
    mix_engine,
    one_shot_engine,
    region_monitoring_engine,
)
from ..datasets import (
    build_intel_scenario,
    build_ozone_dataset,
    build_rnc_scenario,
    build_rwm_scenario,
)
from ..queries import (
    AggregateQueryWorkload,
    EventDetectionWorkload,
    LocationMonitoringWorkload,
    PointQueryWorkload,
    RegionMonitoringWorkload,
)
from ..sensors import FleetConfig, FullTrust, UniformTrust
from .config import ExperimentScale, get_scale
from .runner import FigureResult, SeriesCollector, parallel_map

__all__ = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig_event",
    "trust_sweep",
    "ALL_FIGURES",
]

_POINT_ALGORITHMS = {
    "Optimal": OptimalPointAllocator,
    "LocalSearch": LocalSearchPointAllocator,
    "Baseline": BaselineAllocator,
}


def _point_sweep_cell(
    scenario,
    n_slots: int,
    n_queries: int,
    budget: float,
    budget_spread: float,
    algorithm: str,
    rng_seed: int,
) -> tuple[float, float]:
    """One independent sweep cell: a full engine run for one (x, algorithm).

    Module-level and fed only picklable arguments, so :func:`parallel_map`
    can dispatch cells to worker processes; each cell seeds its own rng,
    which makes parallel results bit-identical to the serial loop.
    """
    workload = PointQueryWorkload(
        scenario.working_region,
        n_queries=n_queries,
        budget=float(budget),
        budget_spread=budget_spread,
        dmax=scenario.dmax,
    )
    engine = one_shot_engine(
        scenario.make_fleet(),
        workload,
        _POINT_ALGORITHMS[algorithm](),
        np.random.default_rng(rng_seed),
    )
    summary = engine.run(n_slots)
    return summary.average_utility, summary.satisfaction_ratio


def _point_sweep(
    figure: FigureResult,
    scenario,
    scale: ExperimentScale,
    budgets,
    seed: int,
    budget_spread: float = 0.0,
    n_queries: int | None = None,
    max_workers: int | None = None,
) -> FigureResult:
    """Shared engine for Figures 2, 3, 4 and 6."""
    n_queries = scale.point_queries_per_slot if n_queries is None else n_queries
    with SeriesCollector(figure) as fig:
        fig.x_values = list(budgets)
        cells = [
            (
                scenario,
                scale.n_slots,
                n_queries,
                float(budget),
                budget_spread,
                name,
                seed + int(budget * 10),
            )
            for budget in budgets
            for name in _POINT_ALGORITHMS
        ]
        results = parallel_map(_point_sweep_cell, cells, max_workers)
        for cell, (avg_utility, satisfaction) in zip(cells, results):
            name = cell[5]
            fig.add(name, "avg_utility", avg_utility)
            fig.add(name, "satisfaction_ratio", satisfaction)
    return fig


def fig2(
    scale: ExperimentScale | None = None,
    seed: int = 2013,
    max_workers: int | None = None,
) -> FigureResult:
    """Figure 2: point queries on RWM — utility and satisfaction vs budget."""
    scale = scale or get_scale()
    scenario = build_rwm_scenario(seed, scale.rwm_sensors, scale.n_slots)
    figure = FigureResult(
        "fig2", "Single-sensor point queries, RWM", "query budget"
    )
    return _point_sweep(
        figure, scenario, scale, scale.budgets, seed, max_workers=max_workers
    )


def fig3(
    scale: ExperimentScale | None = None,
    seed: int = 2013,
    max_workers: int | None = None,
) -> FigureResult:
    """Figure 3: point queries on RNC — utility and satisfaction vs budget."""
    scale = scale or get_scale()
    scenario = build_rnc_scenario(
        seed, scale.rnc_sensors, scale.rnc_presence, scale.n_slots
    )
    figure = FigureResult(
        "fig3", "Single-sensor point queries, RNC", "query budget"
    )
    return _point_sweep(
        figure, scenario, scale, scale.budgets, seed, max_workers=max_workers
    )


def fig4(
    scale: ExperimentScale | None = None,
    seed: int = 2013,
    max_workers: int | None = None,
) -> FigureResult:
    """Figure 4: RNC with budgets drawn uniformly in mean +- 10."""
    scale = scale or get_scale()
    scenario = build_rnc_scenario(
        seed, scale.rnc_sensors, scale.rnc_presence, scale.n_slots
    )
    figure = FigureResult(
        "fig4", "Uniformly distributed budgets, RNC", "mean query budget"
    )
    return _point_sweep(
        figure, scenario, scale, scale.budgets, seed, budget_spread=10.0,
        max_workers=max_workers,
    )


def fig5(
    scale: ExperimentScale | None = None,
    seed: int = 2013,
    max_workers: int | None = None,
) -> FigureResult:
    """Figure 5: RNC, query budget fixed at 15, number of queries swept."""
    scale = scale or get_scale()
    scenario = build_rnc_scenario(
        seed, scale.rnc_sensors, scale.rnc_presence, scale.n_slots
    )
    figure = FigureResult(
        "fig5", "Varying the number of queries (budget 15), RNC", "number of queries"
    )
    with SeriesCollector(figure) as fig:
        fig.x_values = list(scale.query_counts)
        cells = [
            (scenario, scale.n_slots, count, 15.0, 0.0, name, seed + count)
            for count in scale.query_counts
            for name in _POINT_ALGORITHMS
        ]
        results = parallel_map(_point_sweep_cell, cells, max_workers)
        for cell, (avg_utility, satisfaction) in zip(cells, results):
            name = cell[5]
            fig.add(name, "avg_utility", avg_utility)
            fig.add(name, "satisfaction_ratio", satisfaction)
    return fig


def fig6(
    scale: ExperimentScale | None = None,
    seed: int = 2013,
    max_workers: int | None = None,
) -> FigureResult:
    """Figure 6: random privacy levels + linear energy cost, lifetime 50/25.

    Metrics carry a lifetime suffix: ``avg_utility_l50`` corresponds to
    Figure 6(a), ``satisfaction_ratio_l25`` to Figure 6(d), and so on.
    """
    scale = scale or get_scale()
    figure = FigureResult(
        "fig6",
        "Random privacy sensitivity + linear energy cost, RNC",
        "query budget",
    )
    with SeriesCollector(figure) as fig:
        fig.x_values = list(scale.budgets)
        cells = []
        for lifetime in (50, 25):
            config = FleetConfig(
                lifetime=lifetime,
                linear_energy=True,
                beta_range=(0.0, 4.0),
                random_privacy=True,
            )
            scenario = build_rnc_scenario(
                seed, scale.rnc_sensors, scale.rnc_presence, scale.n_slots,
                fleet_config=config,
            )
            for budget in scale.budgets:
                for name in _POINT_ALGORITHMS:
                    cells.append(
                        (
                            lifetime,
                            (
                                scenario,
                                scale.n_slots,
                                scale.point_queries_per_slot,
                                float(budget),
                                0.0,
                                name,
                                seed + int(budget * 10),
                            ),
                        )
                    )
        results = parallel_map(
            _point_sweep_cell, [cell for _, cell in cells], max_workers
        )
        for (lifetime, cell), (avg_utility, satisfaction) in zip(cells, results):
            name = cell[5]
            fig.add(name, f"avg_utility_l{lifetime}", avg_utility)
            fig.add(name, f"satisfaction_ratio_l{lifetime}", satisfaction)
    return fig


def fig7(scale: ExperimentScale | None = None, seed: int = 2013) -> FigureResult:
    """Figure 7: spatial aggregate queries — Greedy (Alg. 1) vs Baseline."""
    scale = scale or get_scale()
    scenario = build_rnc_scenario(
        seed, scale.rnc_sensors, scale.rnc_presence, scale.n_slots
    )
    algorithms = {"Greedy": GreedyAllocator, "Baseline": BaselineAllocator}
    figure = FigureResult("fig7", "Spatial aggregate queries, RNC", "budget factor")
    with SeriesCollector(figure) as fig:
        fig.x_values = list(scale.aggregate_budget_factors)
        for factor in scale.aggregate_budget_factors:
            for name, factory in algorithms.items():
                workload = AggregateQueryWorkload(
                    scenario.working_region,
                    budget_factor=float(factor),
                    mean_queries=scale.aggregate_mean_queries,
                    count_spread=min(10, scale.aggregate_mean_queries - 1),
                    sensing_range=scenario.dmax,
                )
                engine = one_shot_engine(
                    scenario.make_fleet(),
                    workload,
                    factory(),
                    np.random.default_rng(seed + int(factor * 10)),
                )
                summary = engine.run(scale.n_slots)
                fig.add(name, "avg_utility", summary.average_utility)
                fig.add(name, "avg_quality", summary.average_quality("aggregate"))
    return fig


def fig8(scale: ExperimentScale | None = None, seed: int = 2013) -> FigureResult:
    """Figure 8: location monitoring — Alg2-O / Alg2-LS / Baseline."""
    scale = scale or get_scale()
    scenario = build_rnc_scenario(
        seed, scale.rnc_sensors, scale.rnc_presence, scale.n_slots
    )
    ozone = build_ozone_dataset(seed, n_slots=max(50, scale.n_slots))
    variants = {
        "Alg2-O": (OptimalPointAllocator, LocationMonitoringController()),
        "Alg2-LS": (LocalSearchPointAllocator, LocationMonitoringController()),
        "Baseline": (
            BaselineAllocator,
            LocationMonitoringController(opportunistic=False, scheduled_only=True),
        ),
    }
    figure = FigureResult("fig8", "Location monitoring queries, RNC", "budget factor")
    with SeriesCollector(figure) as fig:
        fig.x_values = list(scale.monitoring_budget_factors)
        for factor in scale.monitoring_budget_factors:
            for name, (alloc_factory, controller_proto) in variants.items():
                workload = LocationMonitoringWorkload(
                    scenario.working_region,
                    ozone.values,
                    ozone.model(),
                    budget_factor=float(factor),
                    max_live=scale.lm_max_live,
                    arrivals_per_slot=scale.lm_arrivals_per_slot,
                    dmax=scenario.dmax,
                )
                controller = LocationMonitoringController(
                    alpha=controller_proto.alpha,
                    opportunistic=controller_proto.opportunistic,
                    scheduled_only=controller_proto.scheduled_only,
                )
                engine = location_monitoring_engine(
                    scenario.make_fleet(),
                    workload,
                    alloc_factory(),
                    np.random.default_rng(seed + int(factor * 10)),
                    controller=controller,
                )
                summary = engine.run(scale.n_slots)
                fig.add(name, "avg_utility", summary.average_utility)
                fig.add(
                    name, "avg_quality", summary.average_quality("location_monitoring")
                )
    return fig


def fig9(scale: ExperimentScale | None = None, seed: int = 2013) -> FigureResult:
    """Figure 9: region monitoring — Alg3 vs Baseline on the Intel field."""
    scale = scale or get_scale()
    world = build_intel_scenario(seed, scale.intel_sensors, scale.n_slots)
    variants = {
        "Alg3": (OptimalPointAllocator, RegionMonitoringController()),
        "Baseline": (
            BaselineAllocator,
            RegionMonitoringController(
                weight_fn=lambda k: 1.0, use_shared_sensors=False
            ),
        ),
    }
    figure = FigureResult("fig9", "Region monitoring queries, Intel field", "budget factor")
    with SeriesCollector(figure) as fig:
        fig.x_values = list(scale.monitoring_budget_factors)
        for factor in scale.monitoring_budget_factors:
            for name, (alloc_factory, controller_proto) in variants.items():
                workload = RegionMonitoringWorkload(
                    world.scenario.working_region,
                    world.gp,
                    budget_factor=float(factor),
                    sensing_radius=world.scenario.dmax,
                )
                controller = RegionMonitoringController(
                    alpha=controller_proto.alpha,
                    weight_fn=controller_proto.weight_fn,
                    use_shared_sensors=controller_proto.use_shared_sensors,
                )
                engine = region_monitoring_engine(
                    world.scenario.make_fleet(),
                    workload,
                    alloc_factory(),
                    np.random.default_rng(seed + int(factor * 10)),
                    controller=controller,
                )
                summary = engine.run(scale.n_slots)
                fig.add(name, "avg_utility", summary.average_utility)
                fig.add(
                    name, "avg_quality", summary.average_quality("region_monitoring")
                )
    return fig


def fig10(scale: ExperimentScale | None = None, seed: int = 2013) -> FigureResult:
    """Figure 10: the query mix — Algorithm 5 vs the sequential baseline.

    As in the paper: point + aggregate + location monitoring on RNC (region
    monitoring excluded — no measurement data), sensor lifetime 25, random
    privacy sensitivity, linear energy cost with beta ~ U[0, 4].
    """
    scale = scale or get_scale()
    config = FleetConfig(
        lifetime=25, linear_energy=True, beta_range=(0.0, 4.0), random_privacy=True
    )
    scenario = build_rnc_scenario(
        seed, scale.rnc_sensors, scale.rnc_presence, scale.n_slots, fleet_config=config
    )
    ozone = build_ozone_dataset(seed, n_slots=max(50, scale.n_slots))
    variants = {"Alg5": MixAllocator, "Baseline": BaselineMixAllocator}
    figure = FigureResult("fig10", "Query mix, RNC", "budget factor")
    with SeriesCollector(figure) as fig:
        fig.x_values = list(scale.mix_budget_factors)
        for factor in scale.mix_budget_factors:
            for name, make_mix in variants.items():
                point_wl = PointQueryWorkload(
                    scenario.working_region,
                    n_queries=scale.point_queries_per_slot,
                    budget=float(factor),
                    dmax=scenario.dmax,
                )
                agg_wl = AggregateQueryWorkload(
                    scenario.working_region,
                    budget_factor=float(factor),
                    mean_queries=scale.aggregate_mean_queries,
                    count_spread=min(10, scale.aggregate_mean_queries - 1),
                    sensing_range=scenario.dmax,
                )
                lm_wl = LocationMonitoringWorkload(
                    scenario.working_region,
                    ozone.values,
                    ozone.model(),
                    budget_factor=float(factor),
                    max_live=scale.lm_max_live,
                    arrivals_per_slot=scale.lm_arrivals_per_slot,
                    dmax=scenario.dmax,
                )
                engine = mix_engine(
                    scenario.make_fleet(),
                    point_wl,
                    agg_wl,
                    lm_wl,
                    np.random.default_rng(seed + int(factor * 10)),
                    mix=make_mix(),
                )
                summary = engine.run(scale.n_slots)
                fig.add(name, "avg_utility", summary.average_utility)
                fig.add(name, "quality_point", summary.average_quality("point"))
                fig.add(name, "quality_aggregate", summary.average_quality("aggregate"))
                fig.add(
                    name,
                    "quality_location_monitoring",
                    summary.average_quality("location_monitoring"),
                )
    return fig


def fig_event(scale: ExperimentScale | None = None, seed: int = 2013) -> FigureResult:
    """Event-detection extension: latency / confidence attainment vs budget.

    The paper defers event detection (Section 2.3) but notes its data
    acquisition mirrors the monitoring queries with redundant sampling;
    this figure-style sweep exercises exactly that economics: per-slot
    budgets scale the redundant-witness pool, so a larger budget factor
    buys the requested confidence sooner.  A steady exceedance phenomenon
    (constant 75 against threshold 50) makes every confident sampled slot
    a detection, so the reported latency isolates *acquisition* delay —
    how many slots of sampling it takes to afford the confidence — from
    phenomenon dynamics.

    Metrics per budget factor, for Greedy (Algorithm 1 on the derived
    ``EventSlotQuery`` sets) vs the sequential Baseline:

    * ``avg_utility`` — slot utility as everywhere else;
    * ``confidence_attainment`` — mean per-slot ``min(1, achieved/alpha)``
      over the retired queries (their ``quality_of_results``);
    * ``detection_ratio`` — fraction of retired queries that fired;
    * ``detection_latency`` — mean slots from issue to first detection
      over the fired queries (``n_slots`` when nothing fired: the sweep's
      pessimistic ceiling, keeping the series comparable).
    """
    scale = scale or get_scale()
    scenario = build_rwm_scenario(seed, scale.rwm_sensors, scale.n_slots)

    def phenomenon(t, location):
        return 75.0  # steady exceedance of the threshold below

    variants = {"Greedy": GreedyAllocator, "Baseline": BaselineAllocator}
    figure = FigureResult(
        "fig_event", "Event detection (extension), RWM", "budget factor"
    )
    with SeriesCollector(figure) as fig:
        fig.x_values = list(scale.event_budget_factors)
        for factor in scale.event_budget_factors:
            for name, factory in variants.items():
                workload = EventDetectionWorkload(
                    scenario.working_region,
                    threshold=50.0,
                    confidence=0.8,
                    budget_factor=float(factor),
                    arrivals_per_slot=scale.event_arrivals_per_slot,
                    duration_range=(2, max(3, scale.n_slots // 2)),
                    # Events watch coarse phenomena: a wider sensing reach
                    # than the point queries' dmax, so the redundant
                    # witness pool is budget-limited, not geometry-limited.
                    dmax=3.0 * scenario.dmax,
                )
                engine = event_detection_engine(
                    scenario.make_fleet(),
                    workload,
                    factory(),
                    np.random.default_rng(seed + int(factor * 10)),
                    phenomenon=phenomenon,
                )
                summary = engine.run(scale.n_slots)
                fig.add(name, "avg_utility", summary.average_utility)
                fig.add(
                    name, "confidence_attainment", summary.average_quality("event")
                )
                fig.add(
                    name, "detection_ratio", summary.average_quality("event_detected")
                )
                latency = (
                    summary.average_quality("event_detection_latency")
                    if summary.quality_count("event_detection_latency")
                    else float(scale.n_slots)
                )
                fig.add(name, "detection_latency", latency)
    return fig


def trust_sweep(scale: ExperimentScale | None = None, seed: int = 2013) -> FigureResult:
    """Section 4.7 (text): utility grows with sensor trustworthiness."""
    scale = scale or get_scale()
    distributions = {
        "FullTrust": FullTrust(),
        "Uniform[0.5,1]": UniformTrust(0.5, 1.0),
        "Uniform[0,1]": UniformTrust(0.0, 1.0),
    }
    figure = FigureResult(
        "trust_sweep", "Trust distribution sensitivity (point queries, RNC)", "trust distribution"
    )
    with SeriesCollector(figure) as fig:
        fig.x_values = [0]
        for name, trust_model in distributions.items():
            config = FleetConfig(trust_model=trust_model)
            scenario = build_rnc_scenario(
                seed, scale.rnc_sensors, scale.rnc_presence, scale.n_slots,
                fleet_config=config,
            )
            workload = PointQueryWorkload(
                scenario.working_region,
                n_queries=scale.point_queries_per_slot,
                budget=15.0,
                dmax=scenario.dmax,
            )
            engine = one_shot_engine(
                scenario.make_fleet(),
                workload,
                LocalSearchPointAllocator(),
                np.random.default_rng(seed),
            )
            summary = engine.run(scale.n_slots)
            fig.add(name, "avg_utility", summary.average_utility)
            fig.add(name, "satisfaction_ratio", summary.satisfaction_ratio)
    return fig


ALL_FIGURES = {
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig_event": fig_event,
    "trust_sweep": trust_sweep,
}
