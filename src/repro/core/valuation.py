"""Vectorized query valuation — the slot's shared hot path.

Every point-query consumer — the BILP/local-search value matrix (eq. 9/12),
the greedy/baseline relevance prefilter (the paper's ``Q_{l_s}``), and the
monitoring controllers' derived queries — ultimately evaluates eq. (3)/(4)
for query×sensor pairs.  The seed implementation rebuilt those values with a
per-location Python loop inside every allocator call; at paper scale
(hundreds of queries × hundreds of sensors, every slot, every algorithm in
a sweep) that loop dominates the profile.

:class:`ValuationKernel` adopts one slot's
:class:`~repro.sensors.AnnouncementBatch` arrays (coordinates, inaccuracy
``gamma``, trust ``tau``) without copying them; a plain snapshot list is
converted to a batch once, by
:func:`~repro.sensors.state.announcement_batch`, when the kernel is built.
Its reuse check compares batch tokens.  The engine builds one kernel per slot
and hands it to whatever allocator runs, so the stacked arrays are shared
across :class:`~repro.core.point_problem.PointProblem`, the query-mix
pipeline and the monitoring controllers instead of being reassembled per
call.

Relevance is resolved through *candidate views*.  A point query with reach
``dmax`` can only be served by the sensors within ``dmax`` of its location,
and an aggregate/trajectory query only by those within ``sensing_range`` of
its region — the paper's ``Q_{l_s}`` pre-filter.  The kernel buckets its
columns into a lazy :class:`~repro.spatial.index.UniformGridIndex` (cell
side from :func:`resolve_cell_size`) and answers each query with the
columns of the grid cells its reach box touches:

* :meth:`ValuationKernel.candidate_view` — ``(columns, xy, gamma, trust)``
  of those cells, gathered once per distinct cell range and shared by every
  query resolving to it (the batch-relevance entry point,
  :meth:`~repro.queries.Query.relevant_mask`).  Unknown query types get the
  full fleet, so every query has a view;
* :meth:`ValuationKernel.sparse_single_values` — per plain point query,
  ``(candidate columns, eq.-(3) values)`` from one fused pass over the
  concatenated (query, candidate) pairs.

Candidate sets are cell supersets of the truly relevant sensors, and every
omitted (query, sensor) pair has value exactly ``0.0`` (beyond ``dmax`` /
outside the padded region), so allocations equal those of a full-fleet
pass bit for bit.  ``tests/oracles.py::DenseKernel`` is that full-fleet
pass; the parity suites pin the equality.

Two numerical paths coexist in the codebase and the kernel reproduces each
bit-for-bit so that refactored callers keep their exact seed behavior:

* the *matrix* path (``value_rows``) mirrors the dense-matrix construction
  historically inlined in ``PointProblem.build``: distances via
  ``sqrt(dx^2 + dy^2)`` and quality ``((1-gamma)*tau) * (1 - d/dmax)``;
* the *scalar* path (``sparse_single_values``, through
  :func:`repro.queries.point.pair_quality`) mirrors
  :func:`repro.queries.point.reading_quality`: distances via ``hypot`` and
  quality ``((1-gamma) * (1 - d/dmax)) * tau``.  (``np.hypot`` delegates to
  libm while ``math.hypot`` uses CPython's own algorithm, so this path can
  differ from the scalar original in the final ulp — irrelevant unless an
  instance is engineered to sit within one rounding step of a threshold.)

The paths differ from each other only in the last ulps, but allocators
compare against sharp thresholds (``theta_min``, ``> 0``), so each consumer
keeps its historical formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..queries import (
    EventSlotQuery,
    MultiSensorPointQuery,
    PointQuery,
    Query,
    SensorRoster,
    SpatialAggregateQuery,
    TrajectoryQuery,
)
from ..queries.point import pair_quality
from ..sensors import SensorSnapshot
from ..sensors.state import AnnouncementBatch, SnapshotColumnView, announcement_batch
from ..spatial.index import UniformGridIndex
from ..spatial.raster import WorldRaster, get_raster

__all__ = [
    "ValuationKernel",
    "resolve_cell_size",
]

_EMPTY = np.zeros(0, dtype=np.intp)

#: Query types whose relevant sensors all lie within ``dmax`` of
#: ``location`` (their reading quality is zero beyond that disk).
_DISK_TYPES = (PointQuery, MultiSensorPointQuery, EventSlotQuery)
#: Query types whose relevant sensors all lie within ``sensing_range`` of
#: ``region`` (aggregate eq.-5 eligibility; the trajectory corridor's 2r
#: reach is covered because its ``region`` is already the r-padded bbox).
_RECT_TYPES = (SpatialAggregateQuery, TrajectoryQuery)


def resolve_cell_size(xy: np.ndarray, target_occupancy: float = 4.0) -> float:
    """Heuristic grid cell size: ~``target_occupancy`` sensors per cell.

    Derived from the announcement bounding box, so cell granularity tracks
    fleet density rather than a fixed world size; degenerate extents
    (single sensor, colinear fleet) fall back to a unit cell along the
    collapsed axis.
    """
    n = len(xy)
    if n == 0:
        return 1.0
    width = float(np.ptp(xy[:, 0]))
    height = float(np.ptp(xy[:, 1]))
    if width <= 0.0 and height <= 0.0:
        return 1.0
    area = (width if width > 0.0 else 1.0) * (height if height > 0.0 else 1.0)
    return float(np.sqrt(target_occupancy * area / n))


def _stack_queries(
    queries: Sequence[PointQuery],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    q = len(queries)
    xy = np.empty((q, 2), dtype=float)
    budgets = np.empty(q, dtype=float)
    theta_mins = np.empty(q, dtype=float)
    dmaxes = np.empty(q, dtype=float)
    for i, query in enumerate(queries):
        xy[i, 0] = query.location.x
        xy[i, 1] = query.location.y
        budgets[i] = query.budget
        theta_mins[i] = query.theta_min
        dmaxes[i] = query.dmax
    return xy, budgets, theta_mins, dmaxes


@dataclass
class ValuationKernel:
    """One slot's announcements, stacked for broadcasted valuation.

    Attributes:
        sensors: the :class:`~repro.sensors.AnnouncementBatch`, defining
            the column order of every matrix the kernel produces.
        sensor_xy: ``(n, 2)`` sensor coordinates.
        gamma: per-sensor inaccuracy ``gamma_s``.
        trust: per-sensor trust ``tau_s``.
        costs: announced costs ``c_s`` (snapshot convenience only — value
            matrices never depend on cost, which is what lets a kernel be
            reused across re-announcements that change prices only, e.g.
            the sequential baseline's zero-cost buffering stage).

    The grid index and the per-cell-range candidate/gather caches are
    built lazily and memoized — a slot that never queries a neighbourhood
    never pays for it.  They key on geometry only, which the
    ``matches``/``ensure`` reuse protocol guarantees stable
    (re-announcements may change costs, never positions), so a reused
    kernel keeps them warm.
    """

    sensors: AnnouncementBatch
    sensor_xy: np.ndarray
    gamma: np.ndarray
    trust: np.ndarray
    costs: np.ndarray
    #: the token of the batch the kernel was built from.
    _stamp: tuple | None = field(default=None, repr=False, compare=False)
    #: the slot's shared world raster over ``sensor_xy`` (lazy).
    _raster: WorldRaster | None = field(default=None, repr=False, compare=False)
    #: grid bucketing of ``sensor_xy`` behind the candidate views (lazy).
    _index: UniformGridIndex | None = field(default=None, repr=False, compare=False)
    #: per cell range: sorted candidate columns.
    _range_cache: dict = field(default_factory=dict, repr=False, compare=False)
    #: per cell range: gathered ``(xy, gamma, trust)`` blocks of those columns.
    _gather_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sensors(cls, sensors: Sequence[SensorSnapshot]) -> "ValuationKernel":
        """A kernel over the announcements, converted once to a batch.

        The batch's stacked arrays are adopted as-is (no copy, no
        per-sensor loop) and its token becomes the reuse stamp.  The
        kernel treats them as frozen, as the batch does.
        """
        batch = announcement_batch(sensors)
        return cls(
            batch, batch.xy, batch.gamma, batch.trust, batch.costs, _stamp=batch.token
        )

    @classmethod
    def ensure(
        cls,
        kernel: "ValuationKernel | None",
        sensors: Sequence[SensorSnapshot],
    ) -> "ValuationKernel":
        """Reuse ``kernel`` when it covers exactly ``sensors``, else build.

        Compatibility means identical sensor ids, positions, inaccuracy and
        trust in identical column order; announced costs may differ (the
        sequential mix baseline re-announces stage-1 sensors at zero cost,
        and slot-to-slot reuse survives pure price moves) — consumers must
        treat :attr:`costs` as a build-time snapshot, never as settlement
        truth.  Any other batch gets a fresh kernel, whose grid index and
        raster are built lazily on first use.
        """
        sensors = announcement_batch(sensors)
        if kernel is not None and kernel.matches(sensors):
            # Rebind to the current announcements: identity attributes are
            # equal by the match, and rebinding restores the O(1) ``is``
            # fast path for every later check this slot (the kernel
            # otherwise stays pinned to the *previous* slot's batch after a
            # cross-slot reuse and pays a token compare per consumer).
            kernel.sensors = sensors
            return kernel
        return cls.from_sensors(sensors)

    def matches(self, sensors: Sequence[SensorSnapshot]) -> bool:
        """Whether the kernel covers exactly these announcements.

        Allocators call this on every ``allocate``; when they are handed
        the very batch the slot kernel was built from (the engine's normal
        path) the identity check answers immediately.  Otherwise the batch
        tokens decide: a fleet's stamps compare in O(1) — equal stamps
        guarantee identical announcement identity, and unequal stamps mean
        the producing fleet state actually changed or the producers are
        different fleets — and converted snapshot lists compare their
        ``(id, x, y, gamma, trust)`` rows.
        """
        sensors = announcement_batch(sensors)
        return sensors is self.sensors or sensors.token == self._stamp

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    @property
    def raster(self) -> WorldRaster:
        """The slot's shared :class:`~repro.spatial.WorldRaster`.

        Attached to the announcement batch (see
        :func:`~repro.spatial.raster.get_raster`), so the kernel shares
        one raster — and its cached
        containment/coverage geometry — with every other consumer of that
        batch this slot (monitoring controllers, other kernels).
        Revalidated against :attr:`sensor_xy` by object identity, which
        survives :meth:`ensure` rebinds (those keep the stacked arrays).
        """
        raster = self._raster
        if raster is None or raster.xy is not self.sensor_xy:
            raster = get_raster(self.sensors, self.sensor_xy)
            self._raster = raster
        return raster

    def roster(
        self,
        indices: np.ndarray | None = None,
        snapshots: Sequence[SensorSnapshot] | None = None,
    ) -> SensorRoster:
        """A :class:`~repro.queries.SensorRoster` over (a subset of) the
        kernel's columns, sharing its stacked arrays.

        ``indices`` selects candidate columns in order (default: all).
        ``snapshots`` supplies the snapshot objects the roster should carry
        — pass the slot's *current* announcement batch whenever the kernel
        may be a reused one (cross-slot reuse, the sequential baseline's
        zero-cost re-announcements): the identity attributes are guaranteed
        equal by :meth:`matches`, but announced costs live only on the
        current batch.

        Column subsets are carried as a lazy
        :class:`~repro.sensors.state.SnapshotColumnView`, so building a
        roster over a candidate subset of the batch never
        materializes a snapshot — only the columns a consumer actually
        indexes (the committed winners) are built.
        """
        source = self.sensors if snapshots is None else snapshots
        if indices is None:
            roster = SensorRoster(source, self.sensor_xy, self.gamma, self.trust)
        else:
            picked = SnapshotColumnView(source, indices)
            roster = SensorRoster(
                picked,
                self.sensor_xy[indices],
                self.gamma[indices],
                self.trust[indices],
            )
            roster.kernel_columns = np.asarray(indices, dtype=np.intp)
        roster.raster = self.raster
        return roster

    # ------------------------------------------------------------------
    # the matrix path (eq. 9/12 consumers: PointProblem, BILP, local search)
    # ------------------------------------------------------------------
    def value_rows(self, queries: Sequence[PointQuery]) -> np.ndarray:
        """Per-query value rows ``V[i, j] = v_{q_i}(s_j)`` in one pass.

        Replicates the historical ``PointProblem.build`` arithmetic exactly
        (including operation order, for bit-stable refactoring): distance by
        ``sqrt(dx^2+dy^2)``, quality ``((1-gamma)*tau) * (1 - d/dmax)``,
        zeroed beyond ``dmax`` and below ``theta_min``, scaled by budget.
        """
        xy, budgets, theta_mins, dmaxes = _stack_queries(queries)
        return self.value_matrix(xy, budgets, theta_mins, dmaxes)

    def value_matrix(
        self,
        query_xy: np.ndarray,
        budgets: np.ndarray,
        theta_mins: np.ndarray,
        dmaxes: np.ndarray,
    ) -> np.ndarray:
        """Raw-array form of :meth:`value_rows` for pre-stacked workloads.

        Written with explicit per-component temporaries and in-place ops:
        the naive ``(q, n, 2)`` difference tensor triples the memory
        traffic of this (memory-bound) pass.  Every element still goes
        through exactly the historical operation sequence
        ``sqrt(dx^2 + dy^2)`` then ``((1-gamma)*tau) * (1 - d/dmax)``, so
        results stay bit-identical to the seed loop.
        """
        q = len(query_xy)
        n = self.n_sensors
        if q == 0 or n == 0:
            return np.zeros((q, n))
        dx = self.sensor_xy[:, 0][None, :] - query_xy[:, 0][:, None]
        np.multiply(dx, dx, out=dx)
        dy = self.sensor_xy[:, 1][None, :] - query_xy[:, 1][:, None]
        np.multiply(dy, dy, out=dy)
        dist = dx
        dist += dy
        np.sqrt(dist, out=dist)
        dmax_col = dmaxes[:, None]
        quality = dist / dmax_col
        np.subtract(1.0, quality, out=quality)
        np.multiply(((1.0 - self.gamma) * self.trust)[None, :], quality, out=quality)
        quality[dist > dmax_col] = 0.0
        quality[quality < theta_mins[:, None]] = 0.0
        np.multiply(budgets[:, None], quality, out=quality)
        return quality

    # ------------------------------------------------------------------
    # candidate views (the Q_{l_s} pre-filter)
    # ------------------------------------------------------------------
    @property
    def index(self) -> UniformGridIndex:
        """The grid bucketing of :attr:`sensor_xy` (lazy)."""
        if self._index is None:
            self._index = UniformGridIndex(
                self.sensor_xy, resolve_cell_size(self.sensor_xy)
            )
        return self._index

    def _query_box(self, query: Query) -> tuple[float, float, float, float] | None:
        """The axis-aligned reach box of a known query type, else ``None``.

        The geometric contracts behind the known types are exact-type
        checks on purpose, since a subclass may override ``relevant``
        arbitrarily.
        """
        t = type(query)
        if t in _DISK_TYPES:
            location, reach = query.location, query.dmax
            return (
                location.x - reach,
                location.x + reach,
                location.y - reach,
                location.y + reach,
            )
        if t in _RECT_TYPES:
            region, pad = query.region, query.sensing_range
            return (
                region.x_min - pad,
                region.x_max + pad,
                region.y_min - pad,
                region.y_max + pad,
            )
        return None

    def _range_candidates(self, rng) -> np.ndarray:
        """Sorted candidate columns for one cell range (memoized: localized
        workloads re-hit the same neighbourhoods)."""
        if rng is None:
            return _EMPTY
        cached = self._range_cache.get(rng)
        if cached is None:
            cached = self.index.indices_in_cell_range(*rng)
            self._range_cache[rng] = cached
        return cached

    def candidate_indices(self, query: Query) -> np.ndarray:
        """Superset of the kernel columns ``query`` could find relevant;
        every column for an unknown query type (see :meth:`_query_box`)."""
        box = self._query_box(query)
        if box is None:
            return np.arange(self.n_sensors, dtype=np.intp)
        return self._range_candidates(self.index.cell_range(*box))

    def candidate_view(
        self, query: Query
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(columns, xy, gamma, trust)`` of the query's candidate cells.

        The gathered array blocks are memoized per distinct cell range, so
        a slot with many region queries over the same neighbourhood pays
        each gather once: every query sharing the range evaluates its
        relevance mask — and, downstream, its coverage-mask matrix — on the
        same arrays instead of against the whole fleet.  An unknown query
        type gets the full fleet.  The blocks are per-kernel caches:
        callers must treat them as read-only.
        """
        box = self._query_box(query)
        if box is None:
            every = np.arange(self.n_sensors, dtype=np.intp)
            return every, self.sensor_xy, self.gamma, self.trust
        rng = self.index.cell_range(*box)
        cached = self._gather_cache.get(rng)
        if cached is None:
            idx = self._range_candidates(rng)
            cached = (idx, self.sensor_xy[idx], self.gamma[idx], self.trust[idx])
            self._gather_cache[rng] = cached
        return cached

    def sparse_single_values(
        self, queries: Sequence[PointQuery]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-query ``(candidate columns, eq.-(3) values)``, one fused pass.

        ``values[k] = PointQuery.value_single`` of column ``columns[k]``:
        ``budget * pair_quality`` (:func:`repro.queries.point.pair_quality`,
        the one vector form of eq. (4), zeroed below ``theta_min``).  Every
        omitted column is exactly ``0.0`` (outside ``dmax`` by
        construction).  All queries' candidate pairs are concatenated and
        evaluated in a single vectorized pass, so the cost is proportional
        to sensors-near-queries, not fleet size.
        """
        q = len(queries)
        if q == 0:
            return []
        cands = [self.candidate_indices(query) for query in queries]
        counts = np.fromiter((len(c) for c in cands), np.intp, q)
        if int(counts.sum()) == 0:
            return [(c, np.zeros(0)) for c in cands]
        idx_cat = np.concatenate(cands)
        rep = np.repeat(np.arange(q), counts)
        qx = np.fromiter((query.location.x for query in queries), float, q)
        qy = np.fromiter((query.location.y for query in queries), float, q)
        budgets = np.fromiter((query.budget for query in queries), float, q)
        theta_mins = np.fromiter((query.theta_min for query in queries), float, q)
        dmaxes = np.fromiter((query.dmax for query in queries), float, q)
        theta = pair_quality(
            self.sensor_xy[idx_cat],
            self.gamma[idx_cat],
            self.trust[idx_cat],
            qx[rep],
            qy[rep],
            dmaxes[rep],
            theta_mins[rep],
        )
        values = budgets[rep] * theta
        splits = np.split(values, np.cumsum(counts)[:-1])
        return list(zip(cands, splits))
