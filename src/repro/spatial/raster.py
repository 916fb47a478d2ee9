"""The shared world coverage raster: one slot's geometry caches.

A slot with many region queries repeats three kinds of geometric work
against the *same* announced coordinates:

* **coverage rasterization** — every aggregate/trajectory query builds an
  ``(n_relevant, n_cells)`` mask matrix (``CoverageFunction.masks_for``)
  even though a sensor's covered cells are a tiny disk of the region;
* **region containment** — monitoring controllers evaluate
  ``Region.contains_many`` per consumer per call, although a (region,
  announcement-set) pair can only ever produce one answer per slot;
* and every consumer re-derives these independently, so nothing is shared
  between the kernel's candidate views, the fused gain blocks and the
  monitoring controllers.

:class:`WorldRaster` is the one slot-level home for all of it.  It is keyed
by the announced ``(n, 2)`` coordinate block (the same array object the
kernel, the announcement batch and the controllers already share) and
caches

* :meth:`coverage_rows` — per-sensor covered-cell rows in CSR form
  (``indptr``/``cells``), from which the fused aggregate gain blocks
  (:class:`repro.queries.aggregate._CoverageBlock`) build their
  uncovered-cell counts and cell → sensor transposes;
* :meth:`contains_mask` — per-region containment passes, shared by the
  ``RegionMonitoringController.region_counts`` calls of one slot.

**Bit-identity contract.**  Every cached quantity is produced by exactly
the arithmetic of the uncached path.  Containment caches call the very
``Region`` method consumers called before.  Coverage rows reproduce the
membership of ``fn.masks_for(xy)`` row-for-row: every cell the builder emits
(or skips) is decided by the same ``sqrt(dx*dx + dy*dy) <= sensing_range``
on the function's own stored cell coordinates, so a cell is covered in the
CSR iff it is covered in the dense mask, down to the last ulp of a
boundary case.

**Per-column runs.**  For exact :class:`~repro.spatial.AreaCoverage`
instances (subclasses are *not* trusted — they may re-rasterize
arbitrarily and fall back to the dense mask builder) the cell layout is the row-major ``Region.grid_cells`` grid,
validated once per function per raster against the stored ``_cells`` as a
whole separable ``columns x rows`` product.  Within one grid column ``dx``
is fixed and the row centres ascend, and rounded subtraction, squaring,
addition and ``sqrt`` are all monotone, so the membership test holds on
one contiguous run of rows — exactly, in floating point — and that run,
when not empty, contains the row nearest the sensor in ``y``.  The builder
therefore works per (sensor, column) pair of a sensor's candidate
columns: one exact test of the nearest row decides whether the column is
empty, the run's ends are estimated from the chord half-height and then
corrected with the exact test until each end is covered and its outer
neighbour is not.  That is ``O(r / cell)`` candidates per sensor instead of
the ``O(r^2 / cell^2)`` cells of its bounding box.

Lifetime: a raster lives exactly as long as its coordinate block — it is
attached to the announcement batch (or kernel) that owns the array, so all
of one slot's consumers (the kernel, its candidate machinery, the
monitoring controllers) resolve to the same instance and every cache entry
is computed at most once per slot.  Every slot's announcements get a
fresh raster; nothing links it to the previous slot's, so a long-running
service holds only the live slot's raster.
"""

from __future__ import annotations

import numpy as np

from .coverage import AreaCoverage, CoverageFunction
from .region import Region

__all__ = ["WorldRaster", "get_raster"]

#: Outward steps of the stacked [lo; hi] run ends.
_OUTWARD = np.array([-1, 1])


def get_raster(holder, xy: np.ndarray) -> "WorldRaster":
    """The :class:`WorldRaster` shared by all consumers of ``xy``.

    ``holder`` is the :class:`~repro.sensors.AnnouncementBatch` that owns
    the coordinate block.  The raster is cached in its ``world_raster``
    attribute, so the kernel, its candidate machinery and the monitoring
    controllers all resolve to one instance.
    """
    raster = holder.world_raster
    if raster is None or raster.xy is not xy:
        raster = holder.world_raster = WorldRaster(xy)
    return raster


def _grid_layout(fn: CoverageFunction):
    """``(x_min, y_min, cell, xs, ys_padded)`` when ``fn`` is a trusted region grid.

    Exact-type gate: only the in-repo rasterized region function is known
    to lay its cells out as the row-major ``Region.grid_cells`` grid (a
    subclass may store any cells).  The whole layout is then
    validated against the stored cells: cell ``ix * ny + iy`` must sit
    exactly at ``(xs[ix], ys[iy])``, where ``xs``/``ys`` are the
    ``x_min + (i + 0.5) * cell`` centres ``grid_cells`` evaluates (so
    equality is exact, and both axes ascend).  Any other layout returns
    ``None`` and takes the dense fallback.  The row centres come back
    padded with ``-inf``/``+inf`` sentinels (padded row ``iy + 1`` is grid
    row ``iy``), so a probe one row off the grid is simply uncovered.
    """
    if type(fn) is not AreaCoverage:
        return None
    region, cell = fn.region, float(fn.cell_size)
    if not cell > 0.0:
        return None
    nx = max(1, int(round(region.width / cell)))
    ny = max(1, int(round(region.height / cell)))
    cells = fn._cells
    if cells.shape != (nx * ny, 2):
        return None
    xs = region.x_min + (np.arange(nx) + 0.5) * cell
    ys = region.y_min + (np.arange(ny) + 0.5) * cell
    if not (
        (cells[:, 0].reshape(nx, ny) == xs[:, None]).all()
        and (cells[:, 1].reshape(nx, ny) == ys).all()
    ):
        return None
    return region.x_min, region.y_min, cell, xs, np.concatenate(([-np.inf], ys, [np.inf]))


class WorldRaster:
    """Per-slot geometry caches over one announced coordinate block.

    Attributes:
        xy: the ``(n, 2)`` world coordinates every cache is keyed under —
            the same array object the kernel/batch stacked, never copied.
    """

    def __init__(self, xy: np.ndarray) -> None:
        self.xy = np.asarray(xy, dtype=float)
        # id(fn) -> (fn, cols, indptr, cells); fn is held strongly both to
        # pin the id against reuse and because the raster's lifetime is one
        # slot's announcement block.
        self._coverage_rows: dict[int, tuple] = {}
        self._contains: dict[Region, np.ndarray] = {}
        # id(fn) -> (fn, _grid_layout(fn)); see :meth:`_layout`.
        self._layouts: dict[int, tuple] = {}
        # Work counters (read by benchmarks and tests, never by the build):
        # rows that went through :meth:`_build_rows`, and the candidate
        # entries it materialized for them — (sensor, column) pairs on the
        # grid path, mask entries on the dense fallback.
        self.rows_built = 0
        self.candidates_built = 0

    # ------------------------------------------------------------------
    # region containment caches
    # ------------------------------------------------------------------
    def contains_mask(self, region: Region) -> np.ndarray:
        """Cached ``region.contains_many`` over the world block (read-only)."""
        out = self._contains.get(region)
        if out is None:
            out = region.contains_many(self.xy)
            out.setflags(write=False)
            self._contains[region] = out
        return out

    # ------------------------------------------------------------------
    # per-sensor covered-cell rows
    # ------------------------------------------------------------------
    def coverage_rows(
        self, fn: CoverageFunction, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR covered-cell rows of ``fn`` for the world columns ``cols``.

        Returns ``(indptr, cells)``: row ``i`` (sensor ``cols[i]``) covers
        the cell indices ``cells[indptr[i]:indptr[i+1]]`` of ``fn``'s own
        cell order — exactly the ``True`` positions of row ``i`` of
        ``fn.masks_for(xy[cols])``, ascending.  Both arrays are shared
        and read-only.
        """
        cols = np.asarray(cols, dtype=np.intp)
        key = id(fn)
        entry = self._coverage_rows.get(key)
        if (
            entry is not None
            and entry[0] is fn
            and (entry[1] is cols or np.array_equal(entry[1], cols))
        ):
            return entry[2], entry[3]
        indptr, cells = self._build_rows(fn, cols)
        indptr.setflags(write=False)
        cells.setflags(write=False)
        self._coverage_rows[key] = (fn, cols, indptr, cells)
        return indptr, cells

    def _layout(self, fn: CoverageFunction):
        """:func:`_grid_layout` of ``fn``, validated once per raster."""
        key = id(fn)
        hit = self._layouts.get(key)
        if hit is None or hit[0] is not fn:
            hit = self._layouts[key] = (fn, _grid_layout(fn))
        return hit[1]

    def _build_rows(
        self, fn: CoverageFunction, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR rows of ``fn`` for ``cols`` from scratch (module docstring:
        per-column runs on a validated grid, dense masks otherwise)."""
        k = len(cols)
        self.rows_built += k
        layout = self._layout(fn)
        if layout is None:
            # Dense fallback: any coverage function, any cell layout.  The
            # mask matrix is transient — only its nonzero structure is kept.
            masks = fn.masks_for(self.xy[cols])
            self.candidates_built += masks.size
            rows, cells = np.nonzero(masks)
            counts = np.bincount(rows, minlength=k)
            indptr = np.zeros(k + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            return indptr, cells.astype(np.int64, copy=False)
        x_min, y_min, cell, xs, yp = layout
        nx, ny = len(xs), len(yp) - 2
        r = float(fn.sensing_range)
        v = r / cell
        pts = self.xy[cols]
        sx = pts[:, 0]
        sy = pts[:, 1]
        # Candidate columns: a covered cell has sqrt(dx*dx) <= r, so its
        # column index lies in [u - v, u + v] up to rounding; the floors
        # and one extra column on the right absorb that (about
        # 2*ceil(v) + 2 columns).  Clamped in float (fmax/fmin also send
        # NaN to an empty range) before the integer cast.
        u = (sx - x_min) / cell - 0.5
        lo = np.fmin(np.fmax(np.floor(u - v), 0.0), nx)
        width = np.fmin(np.fmax(np.floor(u + v), -2.0), nx - 2.0) - lo
        width = np.fmax(width + 2.0, 0.0).astype(np.int64)
        lo = lo.astype(np.int64)
        total = int(np.add.reduce(width))
        self.candidates_built += total
        if total == 0:
            return np.zeros(k + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        # Per sensor, the row nearest in y.  With ``m = searchsorted(yp,
        # sy)``, fl(cy - sy) is <= 0 below padded row m and >= 0 from it on,
        # and monotone in ``cy``, so every column's smallest dy*dy sits at
        # padded row m - 1 or m (a sentinel there has dy*dy = inf and is
        # never picked).
        m = np.minimum(yp.searchsorted(sy), ny + 1)
        below = m - 1
        dy = yp[below] - sy
        dy2_below = dy * dy
        dy = yp[m] - sy
        dy2_above = dy * dy
        seed = below + (dy2_above < dy2_below)
        seed_dy2 = np.minimum(dy2_below, dy2_above)
        # One entry per (sensor, candidate column) pair, grouped by sensor
        # and ascending in ix.
        owner = np.arange(k).repeat(width)
        ix = np.arange(total) + (lo + width - np.add.accumulate(width))[owner]
        dx = xs[ix] - sx[owner]
        dx2 = dx * dx
        # Along one column the exact test sqrt(dx2 + dy*dy) <= r holds on
        # one contiguous iy run (every rounded step is monotone in |dy|);
        # the run, when not empty, holds the nearest row.
        nonempty = (np.sqrt(dx2 + seed_dy2[owner]) <= r).nonzero()[0]
        p = len(nonempty)
        if p == 0:
            return np.zeros(k + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        owner = owner[nonempty]
        ix = ix[nonempty]
        dx2 = dx2[nonempty]
        # Estimate both run ends from the chord half-height, clamped to
        # their side of the seed row.  Ends are stacked [lo ends; hi ends]
        # with outward steps [-1; +1]; an end is exact when its row is
        # covered and the next row outward is not.
        pseed = seed[owner]
        pw = ((sy - y_min) / cell + 0.5)[owner]
        half = np.sqrt(np.fmax(r * r - dx2, 0.0)) / cell
        ends = np.concatenate((
            np.fmin(np.fmax(np.ceil(pw - half), 1.0), pseed),
            np.fmax(np.fmin(np.floor(pw + half), ny), pseed),
        )).astype(np.int64)
        step = _OUTWARD.repeat(p)
        psy = sy[owner]
        esy = np.concatenate((psy, psy, psy, psy))
        edx2 = np.concatenate((dx2, dx2, dx2, dx2))

        def covered(rows, at):
            dy = yp[rows] - esy[at]
            return np.sqrt(edx2[at] + dy * dy) <= r

        probe = covered(np.concatenate((ends, ends + step)), slice(None))
        # Rare: walk a wrong estimate back toward the (covered) seed row,
        # or on outward while the next row is covered.  An uncovered end
        # lies outside the run, so its outward neighbour is uncovered too.
        at = (~probe[: 2 * p]).nonzero()[0]
        while at.size:
            ends[at] -= step[at]
            at = at[~covered(ends[at], at)]
        at = probe[2 * p :].nonzero()[0]
        while at.size:
            ends[at] += step[at]
            at = at[covered(ends[at] + step[at], at)]
        # Emit each run ix*ny + [lo..hi] (padded rows are one ahead).
        run_lo = ends[:p]
        lens = ends[p:] - run_lo + 1
        run_start = np.zeros(p + 1, dtype=np.int64)
        np.add.accumulate(lens, out=run_start[1:])
        cells = (ix * ny + run_lo - 1 - run_start[:-1]).repeat(lens) + np.arange(
            run_start[-1]
        )
        indptr = np.zeros(k + 1, dtype=np.int64)
        indptr[1:] = run_start[np.add.accumulate(np.bincount(owner, minlength=k))]
        return indptr, cells
