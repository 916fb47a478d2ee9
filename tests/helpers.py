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
    "gridded_kernel",
    "make_snapshot",
    "make_point_query",
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


def block_gains(state, roster, indices) -> np.ndarray:
    """``state``'s marginal gains at the roster columns ``indices`` (which
    must be relevant to its query) through the production gain block, with
    ``state`` as the block's only member."""
    indices = np.asarray(indices, dtype=np.intp)
    columns = [np.flatnonzero(relevance_row(state.query, roster))]
    block = type(state).block([state], roster, columns)
    return block.gain_many_block(np.zeros(len(indices), dtype=np.intp), indices)


def gridded_kernel(sensors, cell_size: float) -> ValuationKernel:
    """A slot kernel whose candidate grid uses ``cell_size`` instead of the
    density heuristic — the parity suites sweep cell sizes from fine cells
    to one cell holding the whole fleet."""
    kernel = ValuationKernel.from_sensors(sensors)
    kernel._index = UniformGridIndex(kernel.sensor_xy, cell_size)
    return kernel


def sequential_mix(stage_allocator) -> BaselineMixAllocator:
    """The Section 4.7 buffered pipeline with both stages on
    ``stage_allocator()`` and Algorithm 2/3's default controllers."""
    mix = BaselineMixAllocator()
    mix.aggregate_stage = stage_allocator()
    mix.point_stage = stage_allocator()
    mix.lm_controller = LocationMonitoringController()
    mix.rm_controller = RegionMonitoringController()
    return mix
