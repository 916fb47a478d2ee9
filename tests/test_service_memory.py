"""The service's resident memory does not grow with the ticks it has run
or with the spec's ``n_slots``: every slot builds a fresh
:class:`WorldRaster` that nothing links to the next slot's, so only the
live slot's raster (and its coverage-row cache) stays alive; and a
generated world (the RWM walk, a ``mobility`` churn block) is kept as its
recipe, so building a spec allocates no frame per slot and each replay
holds only its live frame."""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np

from oracles import DenseKernel, compile_kernel_as
from repro.datasets import RWM_REGION, ScenarioSpec, StreamSpec
from repro.mobility import ChurnMobility, RandomWaypointMobility
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


def test_churn_rwm_spec_replays_the_churn_recipe():
    n_sensors, n_slots, fraction = 90, 37, 0.05
    spec = churn_spec(
        seed=8, n_sensors=n_sensors, n_slots=n_slots,
        mobility={"kind": "churn", "fraction": fraction},
    )
    engine = spec.build()
    # The fleet replays the churn recipe; the random-waypoint walk it
    # replaces is never run.
    recipe = engine.fleet.mobility._trace.recipe
    assert recipe.model is ChurnMobility
    assert (recipe.region, recipe.n_sensors, recipe.n_slots, recipe.seed) == (
        RWM_REGION, n_sensors, n_slots, spec.seed,
    )
    assert recipe.params == (("fraction", fraction),)

    expected = ChurnMobility(
        RWM_REGION, n_sensors, np.random.default_rng(spec.seed), fraction
    ).run_xy(n_slots)
    assert len(expected) == n_slots
    mobility = engine.fleet.mobility
    for t in range(n_slots):
        assert np.array_equal(mobility.locations_xy(), expected[t]), t
        engine.fleet.advance()


def test_building_a_long_world_allocates_no_frames():
    """A 5000-slot, 1000-sensor world used to be recorded at build: 80 MB
    of frames before the first slot.  Its recipe and one live frame per
    replay cost a few kilobytes, whatever ``n_slots`` says."""
    n_sensors, n_slots = 1000, 5000
    streams = [StreamSpec("point", {"n_queries": 4, "budget": 12.0})]
    specs = {
        "rwm": ScenarioSpec(
            name="long-rwm", seed=3, n_sensors=n_sensors, n_slots=n_slots,
            streams=streams,
        ),
        "churn": ScenarioSpec(
            name="long-churn", seed=3, n_sensors=n_sensors, n_slots=n_slots,
            streams=streams, mobility={"kind": "churn", "fraction": 0.02},
        ),
    }
    models = {"rwm": RandomWaypointMobility, "churn": ChurnMobility}
    for spec in specs.values():
        spec.build()  # warm every import and cache out of the measurement
    tracemalloc.start()
    try:
        for name, spec in specs.items():
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            engine = spec.build()
            _, peak = tracemalloc.get_traced_memory()
            assert peak - base < 2_000_000, (name, peak - base)
            assert engine.fleet.mobility._trace.recipe.model is models[name]
            del engine
    finally:
        tracemalloc.stop()
