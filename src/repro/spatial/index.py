"""Uniform-grid spatial index over a stacked point set.

The slot kernel (:class:`repro.core.valuation.ValuationKernel`) partitions
one slot's announcements into uniform grid cells so that a localized query touches
only the sensors in its spatial neighbourhood instead of the whole fleet.
:class:`UniformGridIndex` is the data structure behind that partition: it
buckets a fixed ``(n, 2)`` coordinate array once (vectorized, CSR-style)
and answers *cell-range* queries — "all points in the cells intersecting
this box" — with a handful of array slices.

The index is built in one shot from a stacked array, returns **column
indices** into that array (what the valuation kernels need), and answers
box queries as cell *supersets* — callers' own arithmetic discards the
out-of-radius corners, which is exactly what keeps candidate valuations
bit-identical to a full-fleet pass (values beyond ``dmax`` are zero
either way).

Internals: points are assigned integer cells relative to the point set's
own bounding box, cell keys are sorted once, and each bucket is a slice of
the sorted order.  Buckets of one grid column are key-contiguous, so a box
query gathers at most one slice per intersected column (``searchsorted``
over the distinct keys), independent of how many cells the box spans.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

__all__ = ["UniformGridIndex"]

_EMPTY = np.zeros(0, dtype=np.intp)


class UniformGridIndex:
    """Immutable grid bucketing of ``xy`` with square cells of ``cell_size``.

    Attributes:
        xy: the indexed ``(n, 2)`` coordinates (not copied; treated frozen).
        cell_size: side length of the square cells.
        n_cols / n_rows: grid extent, derived from the points' bounding box.
    """

    def __init__(self, xy: np.ndarray, cell_size: float) -> None:
        xy = np.asarray(xy, dtype=float)
        if xy.ndim != 2 or (len(xy) and xy.shape[1] != 2):
            raise ValueError("xy must be an (n, 2) array")
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.xy = xy
        self.cell_size = float(cell_size)
        n = len(xy)
        if n == 0:
            self._x0 = self._y0 = 0.0
            self.n_cols = self.n_rows = 0
            self._keys = np.zeros(0, dtype=np.int64)
            self._starts = np.zeros(1, dtype=np.intp)
            self._order = _EMPTY
            return
        self._x0 = float(xy[:, 0].min())
        self._y0 = float(xy[:, 1].min())
        cols = np.floor((xy[:, 0] - self._x0) / self.cell_size).astype(np.int64)
        rows = np.floor((xy[:, 1] - self._y0) / self.cell_size).astype(np.int64)
        self.n_cols = int(cols.max()) + 1
        self.n_rows = int(rows.max()) + 1
        keys = cols * self.n_rows + rows
        order = np.argsort(keys, kind="stable")
        unique_keys, starts = np.unique(keys[order], return_index=True)
        self._keys = unique_keys  # sorted distinct cell keys
        self._starts = np.append(starts, n).astype(np.intp)
        self._order = order.astype(np.intp)

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return len(self.xy)

    @property
    def n_shards(self) -> int:
        """Number of non-empty cells."""
        return len(self._keys)

    def cell_keys_of(self, xy: np.ndarray) -> np.ndarray:
        """Linearized (unclamped) cell keys of arbitrary coordinates —
        equal keys mean same bucket under this index's frozen geometry."""
        cols = np.floor((xy[:, 0] - self._x0) / self.cell_size).astype(np.int64)
        rows = np.floor((xy[:, 1] - self._y0) / self.cell_size).astype(np.int64)
        return cols * self.n_rows + rows

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Integer cell ``(col, row)`` of a coordinate (may lie off-grid)."""
        return (
            int(math.floor((x - self._x0) / self.cell_size)),
            int(math.floor((y - self._y0) / self.cell_size)),
        )

    # ------------------------------------------------------------------
    # bucket access
    # ------------------------------------------------------------------
    def members(self, cell: tuple[int, int]) -> np.ndarray:
        """Sorted point indices bucketed in ``cell`` (empty if none).

        A single bucket is ascending by construction: the stable argsort
        over cell keys preserves the original (already ascending) index
        order within equal keys, so no re-sort is needed.
        """
        col, row = cell
        if not (0 <= col < self.n_cols and 0 <= row < self.n_rows):
            return _EMPTY
        key = col * self.n_rows + row
        b = int(np.searchsorted(self._keys, key))
        if b == len(self._keys) or self._keys[b] != key:
            return _EMPTY
        return self._order[self._starts[b] : self._starts[b + 1]].copy()

    def shards(self) -> Iterator[tuple[tuple[int, int], np.ndarray]]:
        """Iterate ``(cell, sorted member indices)`` over non-empty cells."""
        for b, key in enumerate(self._keys):
            cell = (int(key) // self.n_rows, int(key) % self.n_rows)
            yield cell, self._order[self._starts[b] : self._starts[b + 1]].copy()

    # ------------------------------------------------------------------
    # incremental bucket moves
    # ------------------------------------------------------------------
    def updated(
        self,
        xy: np.ndarray,
        old_to_new: np.ndarray,
        inserted: np.ndarray,
    ) -> "UniformGridIndex | None":
        """A new index over ``xy`` spliced from this one's buckets.

        ``old_to_new`` maps every current column to its column in ``xy``
        (``-1`` = dropped); ``inserted`` lists the ``xy`` columns whose
        bucket must be (re)computed — new arrivals plus movers.
        ``inserted`` is authoritative: a column listed there is evicted
        from any carried bucket before being re-bucketed at its new
        coordinates, so movers need no special marking in ``old_to_new``.
        Surviving columns keep their buckets; only ≤ ``2·len(inserted)``
        buckets change, so the cost is proportional to churn, not ``n``.

        The grid geometry (origin, cell size, extent) is **frozen** from
        this index, so candidate sets may differ from a fresh build's —
        both remain supersets whose extra pairs value to exactly 0.0,
        which is all the candidate-valuation parity argument needs.  Returns
        ``None`` when splicing is unsound or unprofitable (an inserted
        point escapes the frozen extent, the churn is a large fraction of
        the fleet, or this index is empty): the caller builds fresh.

        Requirement (guaranteed by the announce delta): ``old_to_new`` is
        strictly increasing on its kept entries — needed to keep carried
        buckets index-sorted without a re-sort.  ``inserted`` may arrive
        in any order; it is sorted here.
        """
        xy = np.asarray(xy, dtype=float)
        n_old = self.n_points
        if n_old == 0 or len(old_to_new) != n_old:
            return None
        inserted = np.sort(np.asarray(inserted, dtype=np.intp))
        if len(inserted) > max(64, len(xy) // 8):
            return None
        if inserted.size:
            pts = xy[inserted]
            cols = np.floor((pts[:, 0] - self._x0) / self.cell_size).astype(np.int64)
            rows = np.floor((pts[:, 1] - self._y0) / self.cell_size).astype(np.int64)
            if (
                cols.min() < 0
                or rows.min() < 0
                or cols.max() >= self.n_cols
                or rows.max() >= self.n_rows
            ):
                return None
            keys_ins = cols * self.n_rows + rows
        else:
            keys_ins = np.zeros(0, dtype=np.int64)

        mapped = old_to_new[self._order]
        keep = mapped >= 0
        if inserted.size:
            # Evict movers from their carried buckets: the inserted list
            # owns their (re)placement at the new coordinates.
            ins_mask = np.zeros(len(xy), dtype=bool)
            ins_mask[inserted] = True
            keep[keep] &= ~ins_mask[mapped[keep]]
        remaining = mapped[keep].astype(np.intp)
        sorted_keys = np.repeat(self._keys, np.diff(self._starts))
        remaining_keys = sorted_keys[keep]

        if inserted.size:
            by_key = np.argsort(keys_ins, kind="stable")
            keys_ins = keys_ins[by_key]
            cols_ins = inserted[by_key]
            lo = np.searchsorted(remaining_keys, keys_ins, side="left")
            hi = np.searchsorted(remaining_keys, keys_ins, side="right")
            pos = lo.copy()
            for i in range(len(keys_ins)):
                if lo[i] < hi[i]:
                    pos[i] = lo[i] + int(
                        np.searchsorted(remaining[lo[i] : hi[i]], cols_ins[i])
                    )
            order = np.insert(remaining, pos, cols_ins)
            new_keys = np.insert(remaining_keys, pos, keys_ins)
        else:
            order = remaining
            new_keys = remaining_keys

        out = object.__new__(UniformGridIndex)
        out.xy = xy
        out.cell_size = self.cell_size
        out._x0, out._y0 = self._x0, self._y0
        out.n_cols, out.n_rows = self.n_cols, self.n_rows
        n = len(order)
        if n == 0:
            out._keys = np.zeros(0, dtype=np.int64)
            out._starts = np.zeros(1, dtype=np.intp)
            out._order = _EMPTY
            return out
        starts = np.concatenate(([0], np.flatnonzero(np.diff(new_keys)) + 1))
        out._keys = new_keys[starts]
        out._starts = np.append(starts, n).astype(np.intp)
        out._order = order.astype(np.intp)
        return out

    # ------------------------------------------------------------------
    # box queries
    # ------------------------------------------------------------------
    def cell_range(
        self, x_min: float, x_max: float, y_min: float, y_max: float
    ) -> tuple[int, int, int, int] | None:
        """Clipped inclusive cell bounds ``(c0, c1, r0, r1)`` covering the
        box, or ``None`` when the box misses the grid entirely.

        The tuple is a stable identity for the candidate set — two boxes
        with equal ranges touch exactly the same cells — which is what the
        kernel keys its candidate caches on.
        """
        if self.n_points == 0:
            return None
        c0 = math.floor((x_min - self._x0) / self.cell_size)
        c1 = math.floor((x_max - self._x0) / self.cell_size)
        r0 = math.floor((y_min - self._y0) / self.cell_size)
        r1 = math.floor((y_max - self._y0) / self.cell_size)
        if c1 < 0 or r1 < 0 or c0 >= self.n_cols or r0 >= self.n_rows:
            return None
        return (
            max(int(c0), 0),
            min(int(c1), self.n_cols - 1),
            max(int(r0), 0),
            min(int(r1), self.n_rows - 1),
        )

    def indices_in_cell_range(self, c0: int, c1: int, r0: int, r1: int) -> np.ndarray:
        """Sorted point indices of every cell in the inclusive range.

        One slice per intersected grid column: a column's buckets are
        key-contiguous, so its ``[r0, r1]`` rows are one ``searchsorted``
        window over the distinct keys.  Ranges are clipped to the grid —
        an off-grid row bound must not let the linearized key window bleed
        into the neighbouring column's key space.
        """
        if self.n_points == 0:
            return _EMPTY
        c0, c1 = max(c0, 0), min(c1, self.n_cols - 1)
        r0, r1 = max(r0, 0), min(r1, self.n_rows - 1)
        if c0 > c1 or r0 > r1:
            return _EMPTY
        chunks = []
        buckets = 0
        for col in range(c0, c1 + 1):
            base = col * self.n_rows
            lo = int(np.searchsorted(self._keys, base + r0, side="left"))
            hi = int(np.searchsorted(self._keys, base + r1, side="right"))
            if lo < hi:
                chunks.append(self._order[self._starts[lo] : self._starts[hi]])
                buckets += hi - lo
        if not chunks:
            return _EMPTY
        if buckets == 1:
            # One bucket is already ascending (stable argsort preserves the
            # original index order within equal keys); multi-bucket slices
            # are ascending only within each bucket and must be re-sorted.
            return chunks[0].copy()
        out = np.concatenate(chunks) if len(chunks) > 1 else chunks[0].copy()
        out.sort()
        return out

    def indices_in_box(
        self, x_min: float, x_max: float, y_min: float, y_max: float
    ) -> np.ndarray:
        """Sorted indices of all points in cells intersecting the box.

        A *superset* of the points inside the box (whole cells are
        returned); a superset of any disk inscribed in the box a fortiori.
        """
        rng = self.cell_range(x_min, x_max, y_min, y_max)
        if rng is None:
            return _EMPTY
        return self.indices_in_cell_range(*rng)

    def indices_in_disk(self, x: float, y: float, radius: float) -> np.ndarray:
        """Sorted indices of all points in cells touching the disk's
        bounding box — a superset of the points within ``radius``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return self.indices_in_box(x - radius, x + radius, y - radius, y + radius)
