"""Spatial aggregate and trajectory queries (Sections 2.2.2, 2.2.3).

Eq. (5) values a sensor set for an aggregate query over a region as::

    v_q(S_q) = B_q * G_q(S_q) * (sum_{s in S_q} theta_s) / |S_q|

coverage times mean reading quality, scaled by the budget.  The paper
stresses (Section 3.2) that this function is *not* submodular even though
the coverage term alone is: "involving sensor quality in evaluation of a
set of sensors destroys the submodularity of the function" — our property
tests exhibit exactly such counterexamples.

A query over a trajectory "can be treated as a special case of spatial
aggregate query in which instead of providing a region of interest, a
trajectory is specified" (Section 2.2.3); :class:`TrajectoryQuery` performs
that reduction with a corridor coverage function.

The greedy state of a slot's aggregate and trajectory queries lives in one
:class:`_CoverageBlock`, built from the shared
:class:`~repro.spatial.raster.WorldRaster` covered-cell CSR rows — no
per-query mask matrices at all.  Per (member, sensor) it keeps the count of
still-uncovered cells, and a commit decrements those counts straight from
the winner's CSR row.  The counts are exact integers, so a pair's gain is
one count lookup plus the eq.-(5) arithmetic, in the operation order of
:meth:`SpatialAggregateQuery.value`.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from ..sensors import SensorSnapshot
from ..spatial import (
    AreaCoverage,
    CoverageFunction,
    Location,
    Region,
    Trajectory,
    TrajectoryCoverage,
    as_xy,
)
from ..spatial.geometry import require_positive
from ..spatial.raster import WorldRaster
from .base import GainBlock, Query, QueryType, SensorRoster

__all__ = ["AggregateOp", "SpatialAggregateQuery", "TrajectoryQuery", "sensor_quality"]


class AggregateOp(enum.Enum):
    """The aggregate requested by the user (semantic label; the valuation
    of eq. (5) depends on coverage and quality, not on the operator)."""

    AVG = "avg"
    MIN = "min"
    MAX = "max"
    SUM = "sum"


def sensor_quality(snapshot: SensorSnapshot) -> float:
    """Reading quality of a sensor *inside* a queried region.

    Eq. (4)'s distance term measures correlation decay between the sensor
    and a queried point; for region queries the sensors stand in the region
    and cover the cells around them, so quality reduces to the inaccuracy
    and trust terms: ``theta_s = (1 - gamma_s) * tau_s``.
    """
    return (1.0 - snapshot.inaccuracy) * snapshot.trust


class _CoverageBlock(GainBlock):
    """Fused eq.-(5) gains for a slot's aggregate queries, from live counts.

    Per member ``p`` the block keeps the covered-cell mask, the quality sum
    and the number of committed sensors, and per roster column ``j`` the
    exact integer ``uncovered[p, j] = |row(j) \\ mask_p|``: how many of
    sensor ``j``'s covered cells the member has not covered yet.  The counts
    start at the raster's CSR row lengths.  A commit of column ``j`` marks
    the cells of ``row(j)`` that were still uncovered and, for each of them,
    decrements the columns covering that cell through a per-member
    cell → column transpose of the same CSR rows.  A pair's gain then reads
    one count and finishes with the exact eq.-(5) operation order of
    :meth:`SpatialAggregateQuery.value`.  The rows are built over
    ``columns[p]``, member ``p``'s relevant roster columns, and callers must
    pass *relevant* pairs to :meth:`gain_many_block` (both allocators
    evaluate relevance-filtered pairs by construction).  A committed
    irrelevant column covers nothing and adds no quality, but still counts
    in the mean, as in eq. (5).

    :attr:`cells_read` counts the transpose entries visited while
    decrementing — the block's covered-cell reads, a deterministic work
    counter.
    """

    def __init__(self, queries, roster: SensorRoster, columns) -> None:
        super().__init__(queries, roster)
        m = len(self.queries)
        n = roster.n_sensors
        self._n_cells = np.fromiter(
            (q.coverage.cell_count for q in self.queries), float, m
        )
        self._budgets = np.fromiter((q.budget for q in self.queries), float, m)
        # Eq.-(5) reading quality (1 - gamma) * tau of every roster column,
        # the scalar `sensor_quality` arithmetic.
        self._quality = (1.0 - roster.gamma) * roster.trust
        self._uncovered = np.zeros((m, n), dtype=np.int32)
        # Per member: covered-cell count, quality sum, committed sensors.
        self._covered = np.zeros(m, dtype=float)
        self._quality_sum = np.zeros(m, dtype=float)
        self._count = np.zeros(m, dtype=float)
        self._mask: list[np.ndarray] = []
        # Per member: its relevant columns and their CSR covered-cell rows.
        self._columns = list(columns)
        self._row_ptr: list[np.ndarray] = []
        self._row_cells: list[np.ndarray] = []
        # Per-member transpose: the roster columns covering cell ``c`` are
        # ``_cell_cols[p][_cell_ptr[p][c]:_cell_ptr[p][c + 1]]``.
        self._cell_ptr: list[np.ndarray] = []
        self._cell_cols: list[np.ndarray] = []
        self.cells_read = 0
        # Rosters cut from a kernel carry the slot raster, keyed in world
        # columns; any other roster gets a raster over its own coordinates.
        self._raster, self._world_cols = roster.raster, roster.kernel_columns
        if self._raster is None:
            self._raster, self._world_cols = WorldRaster(roster.xy), None
        for p, (query, rel_idx) in enumerate(zip(self.queries, self._columns)):
            indptr, cells = self.coverage_rows(query, rel_idx)
            lens = np.diff(indptr)
            self._uncovered[p, rel_idx] = lens
            n_cells = int(self._n_cells[p])
            # Cell ids cast to the narrowest unsigned type that holds them:
            # numpy stable-sorts 8- and 16-bit keys by radix sort, ~5x the
            # int64 sort on region_agg's rows.
            keys = cells.astype(np.min_scalar_type(max(n_cells - 1, 0)))
            order = np.argsort(keys, kind="stable")
            self._cell_cols.append(np.repeat(rel_idx, lens)[order])
            ptr = np.zeros(n_cells + 1, dtype=np.int64)
            np.cumsum(np.bincount(cells, minlength=n_cells), out=ptr[1:])
            self._cell_ptr.append(ptr)
            self._row_ptr.append(indptr)
            self._row_cells.append(cells)
            self._mask.append(np.zeros(n_cells, dtype=bool))

    def coverage_rows(
        self, query: "SpatialAggregateQuery", rel_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR covered-cell rows of ``query`` over the roster columns ``rel_idx``.

        Read through the raster's shared cache; the row memberships are
        exactly the dense coverage masks' ``True`` positions (see
        :mod:`repro.spatial.raster`).
        """
        cols = rel_idx if self._world_cols is None else self._world_cols[rel_idx]
        return self._raster.coverage_rows(query.coverage, cols)

    def gain_many_block(
        self, member_idx: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        counts = self._covered[member_idx] + self._uncovered[member_idx, indices]
        n_cells = self._n_cells[member_idx]
        empty = n_cells == 0.0
        coverage = counts / np.where(empty, 1.0, n_cells)
        coverage[empty] = 0.0
        qsums = self._quality_sum[member_idx] + self._quality[indices]
        value_new = (self._budgets[member_idx] * coverage) * (
            qsums / (self._count[member_idx] + 1.0)
        )
        return value_new - self.values[member_idx]

    def commit(self, member: int, column: int) -> float:
        rel_idx = self._columns[member]
        pos = int(np.searchsorted(rel_idx, column))
        if pos < len(rel_idx) and rel_idx[pos] == column:
            self._cover(member, pos)
            self._quality_sum[member] += self._quality[column]
        self._count[member] += 1.0
        n_cells = self._n_cells[member]
        coverage = self._covered[member] / n_cells if n_cells else 0.0
        value = self._budgets[member] * coverage * (
            self._quality_sum[member] / self._count[member]
        )
        gain = value - self.values[member]
        self.values[member] = value
        return float(gain)

    def _cover(self, p: int, pos: int) -> None:
        """Mark the still-uncovered cells of member ``p``'s row ``pos`` and
        decrement the uncovered counts of every column covering them."""
        indptr = self._row_ptr[p]
        cells = self._row_cells[p][indptr[pos] : indptr[pos + 1]]
        mask = self._mask[p]
        fresh = cells[~mask[cells]]
        if fresh.size == 0:
            return
        mask[fresh] = True
        self._covered[p] += fresh.size
        ptr = self._cell_ptr[p]
        starts = ptr[fresh]
        lens = ptr[fresh + 1] - starts
        total = int(lens.sum())
        prev = np.zeros(len(fresh), dtype=np.int64)
        np.cumsum(lens[:-1], out=prev[1:])
        entries = np.repeat(starts - prev, lens) + np.arange(total)
        self._uncovered[p] -= np.bincount(
            self._cell_cols[p][entries], minlength=self._uncovered.shape[1]
        )
        self.cells_read += total


class SpatialAggregateQuery(Query):
    """Aggregate query over a rectangular region with the eq. (5) valuation."""

    def __init__(
        self,
        region: Region,
        budget: float,
        sensing_range: float = 10.0,
        op: AggregateOp = AggregateOp.AVG,
        coverage: CoverageFunction | None = None,
        coverage_radius: float | None = None,
        query_id: str | None = None,
        issued_at: int = 0,
    ) -> None:
        # Geometry first: workloads derive the budget from
        # ``sensing_range``, so a NaN range would otherwise be reported as
        # a NaN budget.
        require_positive("sensing_range", sensing_range)
        if coverage_radius is not None:
            require_positive("coverage_radius", coverage_radius)
        super().__init__(budget, query_id, issued_at)
        self.region = region
        self.sensing_range = sensing_range
        self.op = op
        # ``sensing_range`` bounds which sensors may *serve* the query
        # (eq. 4's dmax); ``coverage_radius`` bounds the area one reading
        # *represents* for the coverage term of eq. 5 — physical phenomena
        # decorrelate far faster than a device can be asked for data, so
        # the default keeps them separate.
        self.coverage_radius = (
            coverage_radius if coverage_radius is not None else sensing_range
        )
        self.coverage = (
            coverage
            if coverage is not None
            else AreaCoverage(region, self.coverage_radius)
        )

    @property
    def query_type(self) -> QueryType:
        return QueryType.AGGREGATE

    def value(self, snapshots: Sequence[SensorSnapshot]) -> float:
        """Eq. (5): budget * coverage * mean quality.

        Sensors whose sensing disk cannot reach the region contribute no
        coverage and zero quality (they cannot report about the region), so
        adding one never increases the valuation.
        """
        if not snapshots:
            return 0.0
        eligible = [s for s in snapshots if self.relevant(s)]
        coverage = self.coverage([s.location for s in eligible])
        quality_sum = sum(sensor_quality(s) for s in eligible)
        return self.budget * coverage * (quality_sum / len(snapshots))

    def relevant(self, snapshot: SensorSnapshot) -> bool:
        """Sensor is useful iff its sensing disk reaches the region."""
        loc = snapshot.location
        dx = max(self.region.x_min - loc.x, 0.0, loc.x - self.region.x_max)
        dy = max(self.region.y_min - loc.y, 0.0, loc.y - self.region.y_max)
        return (dx * dx + dy * dy) <= self.sensing_range**2

    def relevant_mask(
        self,
        xy: np.ndarray,
        gamma: np.ndarray | None = None,
        trust: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized :meth:`relevant` (purely geometric; ``gamma``/``trust``
        are ignored).  Element-for-element the same clamped-axis arithmetic
        as the scalar predicate, so the two can never disagree."""
        return self.region.exterior_distance_sq(as_xy(xy)) <= self.sensing_range**2

    def reach_box(self) -> tuple[float, float, float, float]:
        """``region ± sensing_range``: the box around the reachable disks."""
        region, pad = self.region, self.sensing_range
        return (
            region.x_min - pad,
            region.x_max + pad,
            region.y_min - pad,
            region.y_max + pad,
        )

    @classmethod
    def gain_block(cls, queries, roster: SensorRoster, columns) -> GainBlock:
        return _CoverageBlock(queries, roster, columns)


class TrajectoryQuery(SpatialAggregateQuery):
    """Aggregate along a trajectory, reduced to corridor coverage.

    The region of interest is the trajectory's corridor of half-width
    ``sensing_range``; coverage counts path sample points instead of region
    cells, everything else (eq. (5) shape, greedy machinery) is inherited.
    """

    def __init__(
        self,
        trajectory: Trajectory,
        budget: float,
        sensing_range: float = 10.0,
        op: AggregateOp = AggregateOp.MAX,
        spacing: float = 1.0,
        query_id: str | None = None,
        issued_at: int = 0,
    ) -> None:
        coverage = TrajectoryCoverage(trajectory, sensing_range, spacing)
        super().__init__(
            region=trajectory.bounding_region(margin=sensing_range),
            budget=budget,
            sensing_range=sensing_range,
            op=op,
            coverage=coverage,
            query_id=query_id,
            issued_at=issued_at,
        )
        self.trajectory = trajectory

    @property
    def query_type(self) -> QueryType:
        return QueryType.TRAJECTORY

    def relevant(self, snapshot: SensorSnapshot) -> bool:
        """Useful iff the sensing disk reaches the trajectory corridor.

        Routed through :meth:`relevant_mask` with ``n = 1`` so the scalar
        and batch predicates share one distance computation and cannot
        diverge (``np.hypot`` everywhere; the historical ``math.hypot``
        scalar could differ in the final ulp).
        """
        loc = snapshot.location
        return bool(self.relevant_mask(np.asarray([[loc.x, loc.y]]))[0])

    def relevant_mask(
        self,
        xy: np.ndarray,
        gamma: np.ndarray | None = None,
        trust: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized corridor-reach test (purely geometric)."""
        return self.trajectory.distance_to_many(as_xy(xy)) <= 2 * self.sensing_range

    # The corridor's 2r reach stays within ``region ± r``: the region is
    # already the path's r-padded bounding box.
    reach_box = SpatialAggregateQuery.reach_box

    def nearest_path_distance(self, location: Location) -> float:
        return self.trajectory.distance_to(location)
