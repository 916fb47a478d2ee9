"""Shared test helpers, imported explicitly (``from helpers import ...``).

Kept out of ``conftest.py`` on purpose: ``from conftest import ...`` binds
to whichever conftest pytest put on ``sys.path`` first, so a run that also
collects ``benchmarks/`` resolves it to ``benchmarks/conftest.py`` and the
whole suite fails to collect.  A plainly-named module has no such double.
"""

from __future__ import annotations

import numpy as np

from repro.core.mix import BaselineMixAllocator
from repro.core.monitoring import LocationMonitoringController, RegionMonitoringController
from repro.core.valuation import ValuationKernel
from repro.queries import PointQuery
from repro.sensors import SensorSnapshot
from repro.spatial import Location, Region
from repro.spatial.index import UniformGridIndex

__all__ = [
    "block_gains",
    "engine_kernels",
    "gridded_kernel",
    "make_snapshot",
    "make_point_query",
    "member_block",
    "random_instance",
    "relevance_row",
    "sequential_mix",
]


def make_snapshot(
    sensor_id: int = 0,
    x: float = 0.0,
    y: float = 0.0,
    cost: float = 10.0,
    inaccuracy: float = 0.0,
    trust: float = 1.0,
) -> SensorSnapshot:
    """Terse snapshot builder used throughout the suite."""
    return SensorSnapshot(
        sensor_id=sensor_id,
        location=Location(x, y),
        cost=cost,
        inaccuracy=inaccuracy,
        trust=trust,
    )


def make_point_query(
    x: float = 0.0,
    y: float = 0.0,
    budget: float = 15.0,
    theta_min: float = 0.2,
    dmax: float = 5.0,
    query_id: str | None = None,
) -> PointQuery:
    return PointQuery(
        location=Location(x, y),
        budget=budget,
        theta_min=theta_min,
        dmax=dmax,
        query_id=query_id,
    )


def random_instance(seed: int, n_sensors: int = 8, n_queries: int = 10, side: float = 20.0):
    """A random point-query instance (sensors, queries) for solver tests."""
    trng = np.random.default_rng(seed)
    region = Region.from_origin(side, side)
    sensors = [
        SensorSnapshot(
            i,
            region.sample_location(trng),
            float(trng.uniform(2.0, 12.0)),
            float(trng.uniform(0.0, 0.2)),
            float(trng.uniform(0.5, 1.0)),
        )
        for i in range(n_sensors)
    ]
    queries = [
        PointQuery(
            region.sample_location(trng),
            budget=float(trng.uniform(5.0, 25.0)),
            theta_min=0.2,
            dmax=6.0,
        )
        for _ in range(n_queries)
    ]
    return queries, sensors


def relevance_row(query, roster) -> np.ndarray:
    """``query``'s boolean relevance over the roster's columns."""
    return query.relevant_mask(roster.xy, roster.gamma, roster.trust)


def member_block(queries, roster):
    """The production gain block of ``queries`` (one query or several of
    one gain type) over ``roster``, each member's relevant columns taken
    from its mask — what ``gain_setup`` builds for them."""
    if not isinstance(queries, (list, tuple)):
        queries = [queries]
    columns = [np.flatnonzero(relevance_row(q, roster)) for q in queries]
    return type(queries[0]).gain_block(list(queries), roster, columns)


def block_gains(block, indices, member: int = 0) -> np.ndarray:
    """``block``'s marginal gains of ``member`` at the roster columns
    ``indices`` (which must be relevant to its query)."""
    indices = np.asarray(indices, dtype=np.intp)
    return block.gain_many_block(np.full(len(indices), member, dtype=np.intp), indices)


def gridded_kernel(sensors, cell_size: float) -> ValuationKernel:
    """A slot kernel whose candidate grid uses ``cell_size`` instead of the
    density heuristic — the parity suites sweep cell sizes from fine cells
    to one cell holding the whole fleet."""
    kernel = ValuationKernel.from_sensors(sensors)
    kernel._index = UniformGridIndex(kernel.sensor_xy, cell_size)
    return kernel


def engine_kernels(monkeypatch) -> list[ValuationKernel]:
    """Every slot kernel ``SlotEngine.step`` builds while ``monkeypatch``
    is active, in build order (the list keeps them alive)."""
    import repro.core.engine as engine_module

    kernels = []

    class Recorded(engine_module.ValuationKernel):
        @classmethod
        def from_sensors(cls, sensors):
            kernel = super().from_sensors(sensors)
            kernels.append(kernel)
            return kernel

    monkeypatch.setattr(engine_module, "ValuationKernel", Recorded)
    return kernels


def sequential_mix(stage_allocator) -> BaselineMixAllocator:
    """The Section 4.7 buffered pipeline with both stages on
    ``stage_allocator()`` and Algorithm 2/3's default controllers."""
    mix = BaselineMixAllocator()
    mix.aggregate_stage = stage_allocator()
    mix.point_stage = stage_allocator()
    mix.lm_controller = LocationMonitoringController()
    mix.rm_controller = RegionMonitoringController()
    return mix
