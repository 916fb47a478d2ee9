"""The service honesty contract: for a recorded admission trace, the
marketplace service's per-slot allocations are bit-identical to an
offline :class:`~repro.core.engine.SlotEngine` replay of the same query
sequence (the :func:`~repro.experiments.allocation_signature` relabeling
discipline of ``experiments/replay.py``).

Moving (random-waypoint), near-stationary (churn) and stationary fleets
(whose ticks keep the previous kernel) must uphold
the contract, and so must the oracles
(:class:`oracles.PerRowGreedyAllocator` gain refreshes and the full-fleet
:class:`oracles.DenseKernel`, compiled into the dense corners), so the
suite sweeps recorded traces across those corners plus saturated
admission (rejections must not perturb what *was* admitted).
"""

from __future__ import annotations

import pytest

from oracles import (
    DenseKernel,
    PerRowGreedyAllocator,
    compile_greedy_as,
    compile_kernel_as,
)
from repro.core import AllocationResult
from repro.datasets import ScenarioSpec, StreamSpec
from repro.experiments import allocation_signature
from repro.service import (
    BurstyProfile,
    LoadGenerator,
    MarketplaceService,
    PoissonProfile,
    replay_admission_trace,
)

N_TICKS = 4


def make_spec(name, **knobs):
    """A small mixed point+aggregate world the service can tick quickly."""
    return ScenarioSpec(
        name=name,
        dataset="rwm",
        seed=99,
        n_sensors=900,
        n_slots=N_TICKS,
        allocator="greedy",
        streams=[
            StreamSpec("point", {"n_queries": 6, "budget": 12.0}),
            StreamSpec(
                "aggregate",
                {"mean_queries": 3, "count_spread": 0, "min_side": 10.0,
                 "max_side": 20.0},
            ),
        ],
        **knobs,
    )


SCENARIOS = {
    # DenseKernel (DENSE), per-row gains (ORACLES)
    "dense": make_spec("svc-dense"),
    # grid candidate views + fused type-blocked gain batches
    "sharded-fused": make_spec("svc-sharded-fused"),
    # grid candidate views over churn mobility
    "sharded-churn": make_spec(
        "svc-sharded-churn",
        mobility={"kind": "churn", "fraction": 0.02},
    ),
    # DenseKernel over churn mobility
    "dense-churn": make_spec(
        "svc-dense-churn",
        mobility={"kind": "churn", "fraction": 0.02},
    ),
    # grid candidate views over a fleet nobody leaves: ticks keep the kernel
    "sharded-stationary": make_spec(
        "svc-sharded-stationary",
        mobility={"kind": "churn", "fraction": 0.0},
    ),
    # DenseKernel over a fleet nobody leaves
    "dense-stationary": make_spec(
        "svc-dense-stationary",
        mobility={"kind": "churn", "fraction": 0.0},
    ),
}

#: scenarios whose engines run a reference allocator instead of the
#: production greedy (see :func:`oracles.compile_greedy_as`)
ORACLES = {"dense": PerRowGreedyAllocator}
#: scenarios whose engines run on the full-fleet kernel oracle
#: (see :func:`oracles.compile_kernel_as`)
DENSE = {"dense", "dense-churn", "dense-stationary"}


def run_and_replay(spec, service, generator, n_ticks=N_TICKS):
    """Drive the service open-loop, then replay its admission trace
    offline against a fresh batch engine of the same spec."""
    generator.drive(service, n_ticks)
    flat = [q for batch in generator.schedule(n_ticks) for q in batch]
    replayed = replay_admission_trace(spec, service.trace, flat)
    return replayed, service.slot_signatures


@pytest.mark.parametrize("name", sorted(SCENARIOS), ids=str)
def test_service_matches_offline_replay(name, monkeypatch):
    if name in ORACLES:
        compile_greedy_as(monkeypatch, ORACLES[name])
    if name in DENSE:
        compile_kernel_as(monkeypatch, DenseKernel)
    spec = SCENARIOS[name]
    service = MarketplaceService.from_spec(spec)
    generator = LoadGenerator(
        PoissonProfile(10.0), service.workloads, seed=spec.seed
    )
    replayed, live = run_and_replay(spec, service, generator)
    assert service.metrics.admitted > 0
    assert len(live) == N_TICKS
    assert replayed == live


def test_parity_survives_saturated_admission():
    """Queue-full rejections drop arrivals but must not perturb the
    allocations of what was admitted: the trace (admitted seqs only)
    replays to identical signatures."""
    spec = SCENARIOS["sharded-fused"]
    service = MarketplaceService.from_spec(
        spec, max_queue_depth=8, max_admitted_per_tick=4
    )
    generator = LoadGenerator(
        BurstyProfile(rate=2.0, burst_rate=40.0, period=4, burst_length=1),
        service.workloads,
        seed=7,
    )
    replayed, live = run_and_replay(spec, service, generator)
    assert service.metrics.rejected.get("queue_full", 0) > 0
    assert service.metrics.max_queue_depth <= 8
    assert all(s.admitted <= 4 for s in service.metrics.slots)
    assert replayed == live


def test_parity_across_engine_corners_is_mutual(monkeypatch):
    """The same recorded trace replays identically through *different*
    engine settings — the service contract composes with the batch
    layer's own dense/sharded and fused/per-row equivalences."""
    spec = SCENARIOS["dense"]
    with monkeypatch.context() as patch:
        compile_greedy_as(patch, ORACLES["dense"])
        compile_kernel_as(patch, DenseKernel)
        service = MarketplaceService.from_spec(spec)
        generator = LoadGenerator(
            PoissonProfile(8.0), service.workloads, seed=spec.seed
        )
        replayed, live = run_and_replay(spec, service, generator)
    assert replayed == live

    flat = [q for batch in generator.schedule(N_TICKS) for q in batch]
    assert replay_admission_trace(spec, service.trace, flat) == live


def test_trace_queries_replay_without_regeneration():
    """``queries_by_seq=None`` replays the service's own recorded query
    objects — the weaker (object-identity) form of the contract."""
    spec = SCENARIOS["dense"]
    service = MarketplaceService.from_spec(spec)
    generator = LoadGenerator(
        PoissonProfile(6.0), service.workloads, seed=3
    )
    generator.drive(service, N_TICKS)
    replayed = replay_admission_trace(spec, service.trace)
    assert replayed == service.slot_signatures


def test_allocation_signature_canonicalizes_query_ids():
    """Two engines label identical queries differently (process-global id
    counter); the signature must equate them by generation order."""
    a = AllocationResult(
        selected={},
        assignments={"q10": (1, 2), "q11": (3,)},
        values={"q10": 1.5, "q11": 0.25},
        payments={("q10", 1): 0.75, ("q10", 2): 0.75, ("q11", 3): 0.25},
    )
    b = AllocationResult(
        selected={},
        assignments={"q57": (1, 2), "q58": (3,)},
        values={"q57": 1.5, "q58": 0.25},
        payments={("q57", 1): 0.75, ("q57", 2): 0.75, ("q58", 3): 0.25},
    )
    assert allocation_signature(a) == allocation_signature(b)
    c = AllocationResult(
        selected={},
        assignments={"q57": (1, 2), "q58": (3,)},
        values={"q57": 1.5, "q58": 0.2500000001},
        payments={("q57", 1): 0.75, ("q57", 2): 0.75, ("q58", 3): 0.25},
    )
    assert allocation_signature(a) != allocation_signature(c)
