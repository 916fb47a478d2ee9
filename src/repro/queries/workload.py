"""Workload generators reproducing the paper's experimental query streams.

Every generator owns the parameters of one experiment family (Section 4) and
emits fresh query objects per time slot:

* :class:`PointQueryWorkload` — Section 4.3: a fixed number of point queries
  per slot at uniform locations; fixed or uniformly-distributed budgets.
* :class:`AggregateQueryWorkload` — Section 4.4: a random number of
  aggregate queries (uniform, mean 30) over random rectangles, with the
  area-proportional budget ``A(r)/(1.5 r_s) * b``.
* :class:`LocationMonitoringWorkload` — Section 4.5: keeps up to 100 live
  queries, duration ~ U[5, 20], one third of the duration as desired
  sampling times (chosen by the OptiMoS-substitute), budget ``duration * b``.
* :class:`RegionMonitoringWorkload` — Section 4.6: one query per slot over a
  random rectangle of the Intel-substitute field, duration ~ U[5, 20],
  budget ``A(r)/(3 pi r_s^2) * b``.
* :class:`EventDetectionWorkload` — the event extension (Section 2.3 defers
  it; not in the paper's evaluation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..phenomena import (
    GaussianProcessField,
    HarmonicRegressionModel,
    schedule_for_window,
)
from ..spatial import Region
from ..spatial import Trajectory
from .aggregate import SpatialAggregateQuery, TrajectoryQuery
from .event import EventDetectionQuery
from .monitoring import LocationMonitoringQuery, RegionMonitoringQuery
from .point import PointQuery

__all__ = [
    "PointQueryWorkload",
    "AggregateQueryWorkload",
    "TrajectoryQueryWorkload",
    "LocationMonitoringWorkload",
    "RegionMonitoringWorkload",
    "EventDetectionWorkload",
]


@dataclass
class PointQueryWorkload:
    """Point queries per Section 4.3.

    ``budget_spread`` = 0 reproduces the fixed-budget experiments; the
    paper's Figure 4 uses ``spread = 10`` ("budget chosen uniformly at
    random in mean +- 10").
    """

    region: Region
    n_queries: int = 300
    budget: float = 15.0
    budget_spread: float = 0.0
    theta_min: float = 0.2
    dmax: float = 5.0

    def __post_init__(self) -> None:
        if self.n_queries < 0:
            raise ValueError("n_queries must be non-negative")
        if self.budget_spread < 0:
            raise ValueError("budget_spread must be non-negative")

    def generate(self, t: int, rng: np.random.Generator) -> list[PointQuery]:
        queries = []
        for _ in range(self.n_queries):
            if self.budget_spread > 0:
                budget = rng.uniform(
                    max(0.0, self.budget - self.budget_spread),
                    self.budget + self.budget_spread,
                )
            else:
                budget = self.budget
            queries.append(
                PointQuery(
                    location=self.region.sample_location(rng),
                    budget=float(budget),
                    theta_min=self.theta_min,
                    dmax=self.dmax,
                    issued_at=t,
                )
            )
        return queries


@dataclass
class AggregateQueryWorkload:
    """Spatial aggregate queries per Section 4.4.

    The per-slot count is uniform with the given mean (``mean_queries +-
    count_spread``); the budget follows the paper's formula
    ``A(r) / (1.5 r_s) * budget_factor`` with ``r_s`` the average sensor
    coverage (= ``sensing_range``).
    """

    region: Region
    budget_factor: float = 15.0
    mean_queries: int = 30
    count_spread: int = 10
    sensing_range: float = 10.0
    # One reading represents only the sensor's immediate vicinity for the
    # eq. 5 coverage term.  Together with region sizes that make query
    # regions overlap, this puts small budget factors in the regime where
    # a sensor is worth less than its cost to any single query but worth
    # buying jointly — exactly where Figure 7 separates Algorithm 1 from
    # the sequential baseline.
    coverage_radius: float = 2.5
    min_side: float = 6.0
    max_side: float = 16.0

    def __post_init__(self) -> None:
        if self.mean_queries < 1:
            raise ValueError("mean_queries must be >= 1")
        if not (0 <= self.count_spread <= self.mean_queries):
            raise ValueError("count_spread must be in [0, mean_queries]")
        if self.min_side > self.max_side:
            raise ValueError("min_side must be <= max_side")

    def budget_for(self, region: Region) -> float:
        """The paper's area-proportional budget ``A(r)/(1.5 r_s) * b``."""
        return region.area / (1.5 * self.sensing_range) * self.budget_factor

    def generate(self, t: int, rng: np.random.Generator) -> list[SpatialAggregateQuery]:
        count = int(
            rng.integers(
                self.mean_queries - self.count_spread,
                self.mean_queries + self.count_spread + 1,
            )
        )
        queries = []
        for _ in range(count):
            sub = Region.random_subregion(
                self.region, rng, min_side=self.min_side, max_side=self.max_side
            )
            queries.append(
                SpatialAggregateQuery(
                    region=sub,
                    budget=self.budget_for(sub),
                    sensing_range=self.sensing_range,
                    coverage_radius=self.coverage_radius,
                    issued_at=t,
                )
            )
        return queries


@dataclass
class LocationMonitoringWorkload:
    """Location monitoring queries per Section 4.5.

    New queries arrive each slot until ``max_live`` are active ("the number
    of existing queries and new queries is always less than 100").  Each
    query's desired sampling times come from the OptiMoS-substitute run on
    the historical series.
    """

    region: Region
    series: np.ndarray
    model: HarmonicRegressionModel
    budget_factor: float = 15.0
    max_live: int = 100
    arrivals_per_slot: int = 10
    duration_range: tuple[int, int] = (5, 20)
    sampling_fraction: float = 1.0 / 3.0
    theta_min: float = 0.2
    dmax: float = 10.0

    def __post_init__(self) -> None:
        lo, hi = self.duration_range
        if not (1 <= lo <= hi):
            raise ValueError("duration_range must satisfy 1 <= lo <= hi")
        if not (0.0 < self.sampling_fraction <= 1.0):
            raise ValueError("sampling_fraction must be in (0, 1]")

    def generate(
        self, t: int, rng: np.random.Generator, live_count: int = 0
    ) -> list[LocationMonitoringQuery]:
        budget_room = max(0, self.max_live - live_count)
        count = min(self.arrivals_per_slot, budget_room)
        queries = []
        for _ in range(count):
            duration = int(rng.integers(self.duration_range[0], self.duration_range[1] + 1))
            t2 = t + duration - 1
            k = max(1, int(round(duration * self.sampling_fraction)))
            desired = schedule_for_window(self.series, t, duration, k, self.model)
            queries.append(
                LocationMonitoringQuery(
                    location=self.region.sample_location(rng),
                    t1=t,
                    t2=t2,
                    desired_times=desired,
                    budget=duration * self.budget_factor,
                    series=self.series,
                    model=self.model,
                    theta_min=self.theta_min,
                    dmax=self.dmax,
                )
            )
        return queries


@dataclass
class RegionMonitoringWorkload:
    """Region monitoring queries per Section 4.6: one per slot.

    Budget = ``A(r) / (3 pi r_s^2) * b`` with ``r_s`` the average sensor
    coverage distance (paper: 2 for the Intel-substitute scenario).
    """

    region: Region
    gp: GaussianProcessField
    budget_factor: float = 15.0
    sensing_radius: float = 2.0
    duration_range: tuple[int, int] = (5, 20)
    min_side: float = 3.0
    max_side: float = 10.0
    queries_per_slot: int = 1
    cell_size: float = 1.0

    def __post_init__(self) -> None:
        lo, hi = self.duration_range
        if not (1 <= lo <= hi):
            raise ValueError("duration_range must satisfy 1 <= lo <= hi")
        if self.sensing_radius <= 0:
            raise ValueError("sensing_radius must be positive")

    def budget_for(self, region: Region) -> float:
        return region.area / (3.0 * math.pi * self.sensing_radius**2) * self.budget_factor

    def generate(self, t: int, rng: np.random.Generator) -> list[RegionMonitoringQuery]:
        queries = []
        for _ in range(self.queries_per_slot):
            sub = Region.random_subregion(
                self.region, rng, min_side=self.min_side, max_side=self.max_side
            )
            duration = int(rng.integers(self.duration_range[0], self.duration_range[1] + 1))
            queries.append(
                RegionMonitoringQuery(
                    region=sub,
                    t1=t,
                    t2=t + duration - 1,
                    budget=self.budget_for(sub),
                    gp=self.gp,
                    cell_size=self.cell_size,
                    dmax=self.sensing_radius,
                )
            )
        return queries


@dataclass
class TrajectoryQueryWorkload:
    """Queries over trajectories (Section 2.2.3).

    The paper folds trajectories into the aggregate machinery; this
    generator emits random commute-like polylines with the same
    length-proportional budget logic the aggregate workload applies to
    areas: ``budget = length(trajectory) / (1.5 r_s) * b``.
    """

    region: Region
    budget_factor: float = 15.0
    queries_per_slot: int = 5
    sensing_range: float = 10.0
    n_waypoints: int = 4
    spacing: float = 2.0

    def __post_init__(self) -> None:
        if self.queries_per_slot < 0:
            raise ValueError("queries_per_slot must be non-negative")
        if self.n_waypoints < 2:
            raise ValueError("n_waypoints must be >= 2")

    def budget_for(self, trajectory: Trajectory) -> float:
        return trajectory.length / (1.5 * self.sensing_range) * self.budget_factor

    def generate(self, t: int, rng: np.random.Generator) -> list[TrajectoryQuery]:
        queries = []
        for _ in range(self.queries_per_slot):
            path = Trajectory.random(self.region, rng, n_waypoints=self.n_waypoints)
            queries.append(
                TrajectoryQuery(
                    path,
                    budget=self.budget_for(path),
                    sensing_range=self.sensing_range,
                    spacing=self.spacing,
                    issued_at=t,
                )
            )
        return queries


@dataclass
class EventDetectionWorkload:
    """Event-detection queries (extension; see :mod:`repro.queries.event`)."""

    region: Region
    threshold: float
    confidence: float = 0.9
    budget_factor: float = 15.0
    arrivals_per_slot: int = 2
    duration_range: tuple[int, int] = (5, 20)
    theta_min: float = 0.2
    dmax: float = 5.0

    def generate(self, t: int, rng: np.random.Generator) -> list[EventDetectionQuery]:
        queries = []
        for _ in range(self.arrivals_per_slot):
            duration = int(rng.integers(self.duration_range[0], self.duration_range[1] + 1))
            queries.append(
                EventDetectionQuery(
                    location=self.region.sample_location(rng),
                    t1=t,
                    t2=t + duration - 1,
                    threshold=self.threshold,
                    confidence=self.confidence,
                    budget=duration * self.budget_factor,
                    theta_min=self.theta_min,
                    dmax=self.dmax,
                )
            )
        return queries
