"""Slot geometry for valuation — the candidate views behind ``Q_{l_s}``.

:class:`ValuationKernel` adopts one slot's
:class:`~repro.sensors.AnnouncementBatch` arrays (coordinates, inaccuracy
``gamma``, trust ``tau``) without copying them; a plain snapshot list is
converted to a batch once, by
:func:`~repro.sensors.state.announcement_batch`, when the kernel is built.
The engine builds one kernel per slot, from that slot's announcements, and
hands it to whatever allocator runs, so Greedy, Baseline, the query-mix
pipeline and the monitoring controllers share its grid and caches instead
of rebuilding them per call.  The kernel lives for its slot: the next slot
announces afresh and gets a kernel of its own.

Relevance is resolved through *candidate views*.  Each query declares its
reach through :meth:`~repro.queries.Query.reach_box` — ``location ± dmax``
for the point-flavoured types, ``region ± sensing_range`` for the
aggregate and trajectory types, ``None`` (the full fleet) by default.  The
kernel buckets its columns into a lazy
:class:`~repro.spatial.index.UniformGridIndex` (cell side from
:func:`resolve_cell_size`) and answers each query with the columns of the
grid cells its box touches, once the box is widened against rounding
(:func:`widen_reach_box`):

* :meth:`ValuationKernel.candidate_view` — ``(columns, xy, gamma, trust)``
  of those cells, gathered once per distinct cell range and shared by every
  query resolving to it (the batch-relevance entry point,
  :meth:`~repro.queries.Query.relevant_mask`);
* :meth:`ValuationKernel.sparse_single_values` — per plain point query,
  ``(candidate columns, eq.-(3) values)`` from one fused
  :func:`~repro.queries.point.pair_quality` pass over the concatenated
  (query, candidate) pairs.

Candidate sets are cell supersets of the truly relevant sensors, and every
omitted (query, sensor) pair has value exactly ``0.0`` (beyond ``dmax`` /
outside the padded region), so allocations equal those of a full-fleet
pass bit for bit.  ``tests/oracles.py::DenseKernel`` is that full-fleet
pass; the parity suites pin the equality.  The dense eq.-(9/12) rows of
:class:`~repro.core.point_problem.PointProblem` are
:meth:`ValuationKernel.sparse_single_values` scattered into zeros, so
every allocator sees the same value bits for every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..queries import SensorRoster
from ..queries.point import pair_quality
from ..sensors import SensorSnapshot
from ..sensors.state import AnnouncementBatch, SnapshotColumnView, announcement_batch
from ..spatial.index import UniformGridIndex

__all__ = [
    "ValuationKernel",
    "resolve_cell_size",
]

_EMPTY = np.zeros(0, dtype=np.intp)

#: relative slack added to a reach box before it picks grid cells
REACH_SLACK = 1e-9


def widen_reach_box(box: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """``box`` widened by :data:`REACH_SLACK` times its largest coordinate
    (at least 1).

    A sensor an ulp or two outside a query's box can still be relevant:
    its rounded distance (``hypot``, a box edge computed as ``(a - r) - r``)
    can land exactly on the reach radius.  The slack keeps such a sensor's
    grid cell among the candidates.
    """
    x_min, x_max, y_min, y_max = box
    pad = REACH_SLACK * max(1.0, abs(x_min), abs(x_max), abs(y_min), abs(y_max))
    return (x_min - pad, x_max + pad, y_min - pad, y_max + pad)


def resolve_cell_size(xy: np.ndarray, target_occupancy: float = 4.0) -> float:
    """Heuristic grid cell size: ~``target_occupancy`` sensors per cell.

    Derived from the announcement bounding box, so cell granularity tracks
    fleet density rather than a fixed world size; degenerate extents
    (single sensor, colinear fleet) fall back to a unit cell along the
    collapsed axis.  No axis gets more cells than there are sensors: a
    side only ulps wide would otherwise shrink the cell towards zero and
    overflow the grid's int64 cell keys.
    """
    n = len(xy)
    if n == 0:
        return 1.0
    width = float(np.ptp(xy[:, 0]))
    height = float(np.ptp(xy[:, 1]))
    if width <= 0.0 and height <= 0.0:
        return 1.0
    area = (width if width > 0.0 else 1.0) * (height if height > 0.0 else 1.0)
    return max(float(np.sqrt(target_occupancy * area / n)), max(width, height) / n)


@dataclass
class ValuationKernel:
    """One slot's announcements, stacked for broadcasted valuation.

    Attributes:
        sensors: the :class:`~repro.sensors.AnnouncementBatch`, defining
            the column order of every view and value the kernel produces.
        sensor_xy: ``(n, 2)`` sensor coordinates.
        gamma: per-sensor inaccuracy ``gamma_s``.
        trust: per-sensor trust ``tau_s``.

    The grid index and the per-cell-range candidate/gather caches are
    built lazily and memoized — a slot that never queries a neighbourhood
    never pays for it, and queries resolving to the same cell range share
    one gather.
    """

    sensors: AnnouncementBatch
    sensor_xy: np.ndarray
    gamma: np.ndarray
    trust: np.ndarray
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
        per-sensor loop); the kernel treats them as frozen, as the batch
        does.  A fleet whose coordinate extent overflows a float is
        refused: its grid offsets ``x - x_min`` would be infinite.
        """
        batch = announcement_batch(sensors)
        if len(batch):
            (x0, y0), (x1, y1) = batch.xy.min(axis=0).tolist(), batch.xy.max(axis=0).tolist()
            if math.isinf(x1 - x0) or math.isinf(y1 - y0):
                raise ValueError(
                    f"sensor extent overflows a float: x in [{x0}, {x1}], y in [{y0}, {y1}]"
                )
        return cls(batch, batch.xy, batch.gamma, batch.trust)

    def covers(self, sensors: AnnouncementBatch) -> bool:
        """Whether ``sensors`` are the kernel's announcements: its own batch,
        or one with equal ids, coordinates, inaccuracy and trust (prices may
        differ; :meth:`~repro.sensors.AnnouncementBatch.with_costs` shares
        all four arrays, so identity answers without a compare)."""
        own = self.sensors
        return sensors is own or all(
            a is b or np.array_equal(a, b)
            for a, b in (
                (sensors.ids, own.ids),
                (sensors.xy, own.xy),
                (sensors.gamma, own.gamma),
                (sensors.trust, own.trust),
            )
        )

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    def roster(
        self,
        indices: np.ndarray | None = None,
        snapshots: Sequence[SensorSnapshot] | None = None,
    ) -> SensorRoster:
        """A :class:`~repro.queries.SensorRoster` over (a subset of) the
        kernel's columns, sharing its stacked arrays.

        ``indices`` selects candidate columns in order (default: all).
        ``snapshots`` supplies the snapshot objects the roster should carry
        — pass the allocator's announcements whenever they are not the
        kernel's own batch (an equal snapshot list, whose objects the
        result must return, or the sequential baseline's zero-cost
        re-announcement): :meth:`covers` guarantees the identity
        attributes are equal, but announced costs live only on the passed
        batch.

        Column subsets are carried as a lazy
        :class:`~repro.sensors.state.SnapshotColumnView`, so building a
        roster over a candidate subset of the batch never
        materializes a snapshot — only the columns a consumer actually
        indexes (the committed winners) are built.
        """
        source = self.sensors if snapshots is None else snapshots
        if indices is None:
            return SensorRoster(source, self.sensor_xy, self.gamma, self.trust)
        return SensorRoster(
            SnapshotColumnView(source, indices),
            self.sensor_xy[indices],
            self.gamma[indices],
            self.trust[indices],
        )

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

    def candidate_indices(self, query) -> np.ndarray:
        """Superset of the kernel columns ``query`` could find relevant;
        every column when its :meth:`~repro.queries.Query.reach_box` is
        ``None``."""
        box = query.reach_box()
        if box is None:
            return np.arange(self.n_sensors, dtype=np.intp)
        return self._range_candidates(self.index.cell_range(*widen_reach_box(box)))

    def candidate_view(self, query) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(columns, xy, gamma, trust)`` of the query's candidate cells.

        The gathered array blocks are memoized per distinct cell range, so
        a slot with many region queries over the same neighbourhood pays
        each gather once: every query sharing the range evaluates its
        relevance mask — and, downstream, its coverage-mask matrix — on the
        same arrays instead of against the whole fleet.  A query whose
        :meth:`~repro.queries.Query.reach_box` is ``None`` gets the full
        fleet.  The blocks are per-kernel caches: callers must treat them as
        read-only.
        """
        box = query.reach_box()
        if box is None:
            every = np.arange(self.n_sensors, dtype=np.intp)
            return every, self.sensor_xy, self.gamma, self.trust
        rng = self.index.cell_range(*widen_reach_box(box))
        cached = self._gather_cache.get(rng)
        if cached is None:
            idx = self._range_candidates(rng)
            cached = (idx, self.sensor_xy[idx], self.gamma[idx], self.trust[idx])
            self._gather_cache[rng] = cached
        return cached

    def sparse_single_values(self, queries: Sequence) -> list[tuple[np.ndarray, np.ndarray]]:
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
        stops = np.cumsum(counts).tolist()
        return [
            (c, values[stop - len(c) : stop]) for c, stop in zip(cands, stops)
        ]
