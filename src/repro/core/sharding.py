"""Spatial sharding of one slot's announcements — the 10^5-sensor path.

After the batch-gain rollout the dominant slot cost is the dense
``ValuationKernel.single_values`` build: every announced sensor is scored
against every query even though a point query with reach ``dmax`` can only
ever be served by the sensors within ``dmax`` of its location.
Participatory-sensing platforms are urban-scale with *localized* queries,
so that dense pass wastes almost all of its work on pairs whose value is
exactly zero.

:class:`ShardedKernel` keeps the dense kernel's contract — same stacked
arrays, same ``matches``/``ensure`` reuse protocol, same
``single_values``/``value_rows``/``roster`` signatures with bit-identical
outputs — but partitions the announcement columns into uniform grid cells
(:class:`~repro.spatial.index.UniformGridIndex`) and resolves each query
against only its *candidate shards*:

* point-flavoured queries (``PointQuery``, ``MultiSensorPointQuery``,
  ``EventSlotQuery``) touch the shards their ``dmax`` disk can reach;
* region-flavoured queries (``SpatialAggregateQuery``,
  ``TrajectoryQuery``) touch the shards intersecting the queried region
  padded by ``sensing_range``;
* anything else falls back to the full roster (always correct).

Candidate sets are cell supersets of the truly relevant sensors, and every
omitted (query, sensor) pair has value exactly ``0.0`` under the dense
formulas (beyond ``dmax`` / outside the padded region), so sharded value
matrices — and therefore allocations — are bit-identical to dense ones.
The parity suite (``tests/test_sharding_parity.py``) pins this.

Allocators consume the kernel through two capability hooks discovered by
``getattr`` (so the dense kernel and user-supplied kernels keep working
unchanged):

``sparse_single_values(queries)``
    per-query ``(candidate columns, values)`` pairs from one fused
    vectorized pass over the concatenated (query, candidate) pairs —
    the sharded replacement for the dense ``(q, n)`` block;
``candidate_indices(query)``
    the candidate column superset for one query (or ``None`` for unknown
    query types), used to restrict scalar ``Query.relevant`` scans;

``candidate_view(query)``
    :meth:`candidate_indices` plus the gathered ``(xy, gamma, trust)``
    array blocks of those columns, memoized per distinct cell range — the
    sharded entry point of the batch-relevance protocol
    (:meth:`~repro.queries.Query.relevant_mask`).  Region-heavy slots
    evaluate per-query relevance masks and coverage-mask matrices on these
    per-shard blocks, so many large region queries sharing a neighbourhood
    stop rasterizing against the whole fleet and reuse one gather.

The slot's shared :class:`~repro.spatial.WorldRaster` is inherited from
the dense kernel unchanged: a sharded kernel built zero-copy from an
announcement batch resolves ``kernel.raster`` to the *same* instance as
every other consumer of that batch (the raster attaches to the batch and
is keyed by the full-fleet coordinate block), so fused aggregate gain
blocks index one set of world CSR coverage rows whether the slot ran dense
or sharded — rosters carry ``kernel_columns`` to map their candidate
columns back to world columns.  Candidate-view relevance masks stay
per-view on purpose: they evaluate on the gathered candidate blocks, and
routing them through a full-fleet raster pass would undo the sharding win.

Per-cell state lives in :class:`FleetShard`: the sorted member columns,
plus a lazily built shard-local :class:`ValuationKernel` over just those
sensors for direct per-shard consumers (the allocator paths themselves
always gather candidate columns and compute against the parent's stacked
arrays — one fused pass beats per-shard kernel dispatch).  Queries whose
reach stays inside a single shard resolve against that shard's member
array directly; only boundary-straddling queries merge members across
shards (one sorted concatenation, memoized per cell range).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..queries import (
    EventSlotQuery,
    MultiSensorPointQuery,
    PointQuery,
    Query,
    SpatialAggregateQuery,
    TrajectoryQuery,
)
from ..sensors import SensorSnapshot
from ..sensors.state import as_announcement_sequence
from ..spatial.index import UniformGridIndex
from .valuation import ValuationKernel, delta_old_to_new

__all__ = [
    "FleetShard",
    "ShardedKernel",
    "normalize_sharding",
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


def normalize_sharding(setting) -> "float | str | None":
    """Canonicalize a sharding knob value, shared by every declaring layer.

    ``None``/``False`` → ``None`` (dense kernel); ``True``/``"auto"`` →
    ``"auto"`` (density-heuristic cell size); a positive number → the shard
    cell side as ``float``.  Anything else raises ``ValueError`` — the
    engine, :class:`~repro.datasets.ScenarioSpec` and the CLI all validate
    through here so their accepted vocabularies cannot drift apart.
    """
    if setting is None or setting is False:
        return None
    if setting is True or setting == "auto":
        return "auto"
    if isinstance(setting, (int, float)) and not isinstance(setting, bool):
        if setting <= 0:
            raise ValueError("sharding cell size must be positive")
        return float(setting)
    raise ValueError(f"unknown sharding setting {setting!r}")


def resolve_cell_size(xy: np.ndarray, target_occupancy: float = 4.0) -> float:
    """Heuristic shard cell size: ~``target_occupancy`` sensors per cell.

    Derived from the announcement bounding box, so shard granularity tracks
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


@dataclass
class FleetShard:
    """One grid cell's slice of the fleet.

    Attributes:
        cell: the ``(col, row)`` grid cell.
        indices: sorted parent-kernel columns bucketed in this cell.
    """

    cell: tuple[int, int]
    indices: np.ndarray
    _parent: "ShardedKernel" = field(repr=False)
    _kernel: ValuationKernel | None = field(default=None, repr=False)

    @property
    def n_sensors(self) -> int:
        return len(self.indices)

    @property
    def kernel(self) -> ValuationKernel:
        """Shard-local dense kernel over this cell's sensors (lazy).

        A convenience for direct per-shard consumers (stats, per-cell
        experiments) — the sharded allocator paths compute against the
        parent's stacked arrays instead.  Column ``j`` of the shard kernel
        is parent column ``indices[j]``.  Snapshots (and their costs) are
        the parent's build-time batch — the same staleness caveat as the
        parent kernel's ``costs``.
        """
        if self._kernel is None:
            p = self._parent
            idx = self.indices
            self._kernel = ValuationKernel(
                [p.sensors[j] for j in idx],
                p.sensor_xy[idx],
                p.gamma[idx],
                p.trust[idx],
                p.costs[idx],
            )
        return self._kernel


@dataclass
class ShardedKernel(ValuationKernel):
    """Grid-sharded drop-in for :class:`ValuationKernel`.

    Args:
        cell_size: shard cell side; ``None`` defers to
            :func:`resolve_cell_size` at first use.

    The grid index, the per-cell :class:`FleetShard` objects and the merged
    boundary-straddling candidate sets are all built lazily and memoized —
    a slot that never queries a neighbourhood never pays for it.  All
    caches key on geometry only, which the ``matches``/``ensure`` reuse
    protocol guarantees stable (re-announcements may change costs, never
    positions), so a reused kernel keeps its warm shards.
    """

    cell_size: float | None = None
    _index: UniformGridIndex | None = field(
        default=None, repr=False, compare=False
    )
    _shards: dict = field(default_factory=dict, repr=False, compare=False)
    _range_cache: dict = field(default_factory=dict, repr=False, compare=False)
    #: per cell-range gathered (xy, gamma, trust) blocks — the batch-
    #: relevance/coverage-mask working set, reused across queries whose
    #: reach resolves to the same cell range (see :meth:`candidate_view`).
    _gather_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # construction / reuse
    # ------------------------------------------------------------------
    @classmethod
    def from_sensors(
        cls, sensors: Sequence[SensorSnapshot], cell_size: float | None = None
    ) -> "ShardedKernel":
        base = ValuationKernel.from_sensors(sensors)
        kernel = cls(
            base.sensors,
            base.sensor_xy,
            base.gamma,
            base.trust,
            base.costs,
            cell_size=cell_size,
        )
        kernel._stamp = base._stamp  # batch producers keep O(1) reuse checks
        return kernel

    @classmethod
    def from_batch(cls, batch, cell_size: float | None = None) -> "ShardedKernel":
        """Zero-copy sharded kernel over an
        :class:`~repro.sensors.AnnouncementBatch` (see
        :meth:`ValuationKernel.from_batch`)."""
        if getattr(batch, "kernel_arrays", None) is None:
            raise TypeError(
                "from_batch needs an AnnouncementBatch-like producer "
                "(kernel_arrays/token); use from_sensors for snapshot lists"
            )
        return cls.from_sensors(batch, cell_size=cell_size)

    @classmethod
    def ensure(
        cls,
        kernel: "ValuationKernel | None",
        sensors: Sequence[SensorSnapshot],
        cell_size: float | None = None,
    ) -> "ShardedKernel":
        """Reuse a matching *sharded* kernel (warm shards included), else
        build a fresh one; a matching dense kernel is still rebuilt sharded
        — this is the engine's entry point when the sharding knob is on."""
        if isinstance(kernel, ShardedKernel) and kernel.matches(sensors):
            if sensors is not kernel.sensors:
                kernel.sensors = as_announcement_sequence(sensors)
                # Same stamp-preservation rule as ValuationKernel.ensure:
                # a token-less list proved identity-equal, so the existing
                # stamp stays valid for future O(1) batch comparisons.
                stamp = getattr(sensors, "token", None)
                if stamp is not None:
                    kernel._stamp = stamp
            return kernel
        return cls.from_sensors(sensors, cell_size=cell_size)

    @classmethod
    def ensure_delta(
        cls,
        kernel: "ValuationKernel | None",
        batch,
        delta,
        cell_size: float | None = None,
    ) -> "ShardedKernel":
        """Differential :meth:`ensure` (see
        :meth:`ValuationKernel.ensure_delta`): on a chained delta the new
        kernel additionally inherits the old grid index via an incremental
        bucket splice (:meth:`~repro.spatial.index.UniformGridIndex.updated`)
        — shard membership is re-bucketed only for dirty sensors, under the
        old index's frozen geometry (candidate supersets, hence
        allocations, stay bit-identical).  The per-range shard/gather
        caches are dropped and refill lazily against the patched index.
        The delta's ``crossed`` rows are filled as a side effect: the
        moved survivors whose grid bucket actually changed.
        """
        if isinstance(kernel, ShardedKernel) and kernel.matches(batch):
            if batch is not kernel.sensors:
                kernel.sensors = as_announcement_sequence(batch)
                stamp = getattr(batch, "token", None)
                if stamp is not None:
                    kernel._stamp = stamp
            return kernel
        new = cls.from_batch(batch, cell_size=cell_size)
        if (
            isinstance(kernel, ShardedKernel)
            and delta is not None
            and delta.prev_token == kernel._stamp
        ):
            raster = kernel._carry_raster(batch, delta)
            if raster is not None:
                new._raster = raster
            old_index = kernel._index
            if old_index is not None:
                old_to_new = delta_old_to_new(delta, len(kernel.sensor_xy))
                inserted = np.asarray(delta.fresh_cols, dtype=np.intp)
                patched = old_index.updated(batch.xy, old_to_new, inserted)
                if patched is not None:
                    new._index = patched
                    moved_cols = inserted[delta.kept_src[inserted] >= 0]
                    if moved_cols.size:
                        old_keys = old_index.cell_keys_of(
                            kernel.sensor_xy[delta.kept_src[moved_cols]]
                        )
                        new_keys = old_index.cell_keys_of(batch.xy[moved_cols])
                        delta.crossed = np.asarray(batch.ids)[
                            moved_cols[old_keys != new_keys]
                        ]
                    else:
                        delta.crossed = np.zeros(0, dtype=np.int64)
        return new

    # ------------------------------------------------------------------
    # the shard structure
    # ------------------------------------------------------------------
    @property
    def resolved_cell_size(self) -> float:
        """The shard cell side actually in use (heuristic if not given)."""
        return self.index.cell_size

    @property
    def index(self) -> UniformGridIndex:
        if self._index is None:
            cell = (
                self.cell_size
                if self.cell_size is not None
                else resolve_cell_size(self.sensor_xy)
            )
            self._index = UniformGridIndex(self.sensor_xy, cell)
        return self._index

    @property
    def n_shards(self) -> int:
        return self.index.n_shards

    def shard(self, cell: tuple[int, int]) -> FleetShard:
        """The (memoized) shard of one grid cell; empty cells give an
        empty shard."""
        shard = self._shards.get(cell)
        if shard is None:
            shard = FleetShard(cell, self.index.members(cell), self)
            self._shards[cell] = shard
        return shard

    def shards(self) -> Iterator[FleetShard]:
        """Iterate the non-empty shards."""
        for cell, members in self.index.shards():
            shard = self._shards.get(cell)
            if shard is None:
                shard = FleetShard(cell, members, self)
                self._shards[cell] = shard
            yield shard

    def _query_box(
        self, query: Query
    ) -> tuple[float, float, float, float] | None:
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
        """Sorted candidate columns for one cell range (memoized).

        A reach inside one cell is that shard's member array as-is; only
        boundary-straddling reaches pay the sorted merge, once per distinct
        cell range (localized workloads re-hit the same neighbourhoods).
        """
        if rng is None:
            return _EMPTY
        c0, c1, r0, r1 = rng
        if c0 == c1 and r0 == r1:
            return self.shard((c0, r0)).indices
        cached = self._range_cache.get(rng)
        if cached is None:
            cached = self.index.indices_in_cell_range(c0, c1, r0, r1)
            self._range_cache[rng] = cached
        return cached

    def _box_candidates(
        self, x_min: float, x_max: float, y_min: float, y_max: float
    ) -> np.ndarray:
        """Sorted candidate columns for a box reach, memoized per cell range."""
        return self._range_candidates(
            self.index.cell_range(x_min, x_max, y_min, y_max)
        )

    def candidate_indices(self, query: Query) -> np.ndarray | None:
        """Superset of the kernel columns ``query`` could find relevant.

        ``None`` means "unknown query type — scan the full roster" (see
        :meth:`_query_box` for the exact-type contract).
        """
        box = self._query_box(query)
        return None if box is None else self._box_candidates(*box)

    def candidate_view(
        self, query: Query
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """``(columns, xy, gamma, trust)`` of the query's candidate shards.

        The gathered array blocks are memoized per distinct cell range
        (the same key space as the candidate-column cache), so a slot with
        many region queries over the same neighbourhood pays each gather
        once: every query sharing the range evaluates its relevance mask —
        and, downstream, its coverage-mask matrix — on the same arrays
        instead of re-rasterizing against the whole fleet.  ``None``
        follows :meth:`candidate_indices`' unknown-type contract.  The
        blocks are per-kernel caches: callers must treat them as
        read-only.
        """
        box = self._query_box(query)
        if box is None:
            return None
        rng = self.index.cell_range(*box)
        idx = self._range_candidates(rng)
        cached = self._gather_cache.get(rng)
        if cached is None:
            cached = (self.sensor_xy[idx], self.gamma[idx], self.trust[idx])
            self._gather_cache[rng] = cached
        return (idx, *cached)

    # ------------------------------------------------------------------
    # sharded valuation
    # ------------------------------------------------------------------
    def sparse_single_values(
        self, queries: Sequence[PointQuery]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-query ``(candidate columns, eq.-(3) values)``, one fused pass.

        The returned values are bit-identical to the same positions of the
        dense :meth:`single_values` matrix, and every omitted column is
        exactly ``0.0`` there (outside ``dmax`` by construction).  All
        queries' candidate pairs are concatenated and evaluated in a single
        vectorized pass, so the cost is proportional to sensors-near-
        queries, not fleet size.
        """
        q = len(queries)
        if q == 0:
            return []
        cands: list[np.ndarray] = []
        all_cols: np.ndarray | None = None
        for query in queries:
            idx = self.candidate_indices(query)
            if idx is None:
                if all_cols is None:
                    all_cols = np.arange(self.n_sensors, dtype=np.intp)
                idx = all_cols
            cands.append(idx)
        counts = np.fromiter((len(c) for c in cands), np.intp, q)
        total = int(counts.sum())
        if total == 0:
            return [(c, np.zeros(0)) for c in cands]
        idx_cat = np.concatenate(cands)
        rep = np.repeat(np.arange(q), counts)
        qx = np.fromiter((query.location.x for query in queries), float, q)
        qy = np.fromiter((query.location.y for query in queries), float, q)
        budgets = np.fromiter((query.budget for query in queries), float, q)
        theta_mins = np.fromiter((query.theta_min for query in queries), float, q)
        dmaxes = np.fromiter((query.dmax for query in queries), float, q)
        # Exactly the dense single_values operation sequence, per pair.
        dist = np.hypot(
            self.sensor_xy[idx_cat, 0] - qx[rep],
            self.sensor_xy[idx_cat, 1] - qy[rep],
        )
        dmax_rep = dmaxes[rep]
        theta = (1.0 - self.gamma)[idx_cat] * (1.0 - dist / dmax_rep)
        theta *= self.trust[idx_cat]
        theta[dist > dmax_rep] = 0.0
        values = budgets[rep] * theta
        values[theta < theta_mins[rep]] = 0.0
        splits = np.split(values, np.cumsum(counts)[:-1])
        return list(zip(cands, splits))

    def single_values(self, queries: Sequence[PointQuery]) -> np.ndarray:
        """Dense-shaped ``(q, n)`` matrix, computed shard-sparsely.

        Kept for protocol compatibility (parity checks, ad-hoc consumers);
        sharding-aware allocators use :meth:`sparse_single_values` and never
        materialize this.
        """
        out = np.zeros((len(queries), self.n_sensors))
        for i, (idx, vals) in enumerate(self.sparse_single_values(queries)):
            out[i, idx] = vals
        return out

    def value_matrix(
        self,
        query_xy: np.ndarray,
        budgets: np.ndarray,
        theta_mins: np.ndarray,
        dmaxes: np.ndarray,
    ) -> np.ndarray:
        """The matrix path (eq. 9/12 formula), restricted to candidate shards.

        Row arithmetic replicates the dense :meth:`ValuationKernel.value_matrix`
        operation sequence exactly on the candidate columns; all other
        columns are beyond ``dmax`` and therefore exactly ``0.0`` in the
        dense matrix too.
        """
        q = len(query_xy)
        n = self.n_sensors
        out = np.zeros((q, n))
        if q == 0 or n == 0:
            return out
        quality_scale = (1.0 - self.gamma) * self.trust
        for i in range(q):
            x, y, reach = float(query_xy[i, 0]), float(query_xy[i, 1]), float(dmaxes[i])
            idx = self._box_candidates(x - reach, x + reach, y - reach, y + reach)
            if len(idx) == 0:
                continue
            dx = self.sensor_xy[idx, 0] - x
            np.multiply(dx, dx, out=dx)
            dy = self.sensor_xy[idx, 1] - y
            np.multiply(dy, dy, out=dy)
            dist = dx
            dist += dy
            np.sqrt(dist, out=dist)
            quality = dist / dmaxes[i]
            np.subtract(1.0, quality, out=quality)
            np.multiply(quality_scale[idx], quality, out=quality)
            quality[dist > dmaxes[i]] = 0.0
            quality[quality < theta_mins[i]] = 0.0
            np.multiply(budgets[i], quality, out=quality)
            out[i, idx] = quality
        return out
