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
        keys, starts, order = self._keys, self._starts, self._order
        chunks = []
        buckets = 0
        for base in range(c0 * self.n_rows, (c1 + 1) * self.n_rows, self.n_rows):
            lo = int(keys.searchsorted(base + r0, side="left"))
            hi = int(keys.searchsorted(base + r1, side="right"))
            if lo < hi:
                chunks.append(order[starts[lo] : starts[hi]])
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
