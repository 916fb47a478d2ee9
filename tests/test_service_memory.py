"""The service's resident memory does not grow with the spec's
``n_slots``: a generated world (the RWM walk, a ``mobility`` churn block)
is kept as its recipe, so building a spec allocates no frame per slot and
each replay holds only its live frame, and a ``mobility`` block never
builds the dataset's native trace it replaces.  (That no slot state
outlives its slot is pinned by ``test_slot_state.py``.)"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np

from repro.datasets import RWM_REGION, ScenarioSpec, StreamSpec, intel, rnc
from repro.mobility import PAPER_RNC_REGION, ChurnMobility, RandomWaypointMobility
from repro.phenomena import INTEL_LAB_REGION

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


def test_a_mobility_block_never_builds_the_native_trace():
    """An ``rnc`` or ``intel`` spec with a ``mobility`` block churns over
    the dataset's movement region and never builds the native trace it
    replaces (a 2000-sensor, 2000-slot ``rnc`` campaign trace used to be
    synthesized, and kept by the builder's cache: 64.6 MB)."""
    streams = [StreamSpec("point", {"n_queries": 4, "budget": 12.0})]
    mobility = {"kind": "churn", "fraction": 0.02}
    specs = {
        name: (
            ScenarioSpec(
                name=f"{name}-churn", dataset=name, seed=4, n_sensors=2000,
                n_slots=2000, streams=streams, mobility=mobility,
            ),
            region,
            module._cached_trace,
        )
        for name, region, module in (
            ("rnc", PAPER_RNC_REGION, rnc), ("intel", INTEL_LAB_REGION, intel)
        )
    }
    for spec, _, _ in specs.values():
        # Warm every import and the intel field fit out of the measurement.
        dataclasses.replace(spec, n_sensors=200, n_slots=3).build()
    tracemalloc.start()
    try:
        for name, (spec, region, native_trace) in specs.items():
            misses = native_trace.cache_info().misses
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            engine = spec.build()
            _, peak = tracemalloc.get_traced_memory()
            assert peak - base < 2_000_000, (name, peak - base)
            assert native_trace.cache_info().misses == misses, name
            recipe = engine.fleet.mobility._trace.recipe
            assert (recipe.model, recipe.region) == (ChurnMobility, region), name
            del engine
    finally:
        tracemalloc.stop()
