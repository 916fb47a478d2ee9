"""The service's resident memory does not grow with the ticks it has run
or with the spec's ``n_slots``: every slot builds a fresh
:class:`WorldRaster` that nothing links to the next slot's, so only the
live slot's raster (and its coverage-row cache) stays alive; and a spec
whose ``mobility`` block replaces the RWM trace never generates or
caches the trace it would discard."""

from __future__ import annotations

import gc
import weakref

import numpy as np

from oracles import DenseKernel, compile_kernel_as
from repro.datasets import RWM_REGION, ScenarioSpec, StreamSpec, rwm
from repro.mobility import ChurnMobility
from repro.queries import SpatialAggregateQuery
from repro.service import LoadGenerator, MarketplaceService, PoissonProfile

N_TICKS = 12


def churn_spec(**knobs) -> ScenarioSpec:
    defaults = dict(
        name="svc-memory",
        dataset="rwm",
        seed=5,
        n_sensors=400,
        n_slots=N_TICKS,
        allocator="greedy",
        mobility={"kind": "churn", "fraction": 0.05},
        streams=[
            StreamSpec("point", {"n_queries": 4, "budget": 12.0}),
            StreamSpec(
                "aggregate",
                {"mean_queries": 2, "count_spread": 0, "min_side": 10.0,
                 "max_side": 20.0},
            ),
        ],
    )
    defaults.update(knobs)
    return ScenarioSpec(**defaults)


def test_service_keeps_only_the_live_raster(monkeypatch):
    for dense in (True, False):
        with monkeypatch.context() as patch:
            if dense:
                compile_kernel_as(patch, DenseKernel)
            service = MarketplaceService.from_spec(churn_spec())
            generator = LoadGenerator(PoissonProfile(6.0), service.workloads, seed=3)
            schedule = generator.schedule(N_TICKS)
            refs = []
            coverage_of: dict[int, set[int]] = {}
            for batch in schedule:
                for query in batch:
                    service.submit(query)
                service.tick_once()
                raster = service.engine._kernel.raster
                fns = {
                    id(q.coverage)
                    for q in service.trace.slots[-1].queries
                    if isinstance(q, SpatialAggregateQuery)
                }
                # A raster reused over unchanged announcements serves both slots.
                coverage_of.setdefault(id(raster), set()).update(fns)
                refs.append(weakref.ref(raster))
                del raster
            assert service.metrics.admitted > 0
            gc.collect()
            live = [ref() for ref in refs]
            live = list({id(r): r for r in live if r is not None}.values())
            assert len(live) == 1, (dense, len(live))
            assert service.engine._kernel.raster in live
            assert any(r._coverage_rows for r in live)
            for raster in live:
                cached = {id(entry[0]) for entry in raster._coverage_rows.values()}
                assert cached <= coverage_of[id(raster)]


def test_churn_rwm_spec_skips_the_discarded_trace():
    n_sensors, n_slots, fraction = 90, 37, 0.05
    spec = churn_spec(
        seed=8, n_sensors=n_sensors, n_slots=n_slots,
        mobility={"kind": "churn", "fraction": fraction},
    )
    before = rwm._cached_trace.cache_info()
    engine = spec.build()
    after = rwm._cached_trace.cache_info()
    # The random-waypoint trace was neither generated nor looked up.
    assert (after.hits, after.misses) == (before.hits, before.misses)

    expected = ChurnMobility(
        RWM_REGION, n_sensors, np.random.default_rng(spec.seed), fraction
    ).run_xy(n_slots)
    assert len(expected) == n_slots
    mobility = engine.fleet.mobility
    for t in range(n_slots):
        assert np.array_equal(mobility.locations_xy(), expected[t]), t
        engine.fleet.advance()
