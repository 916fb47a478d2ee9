"""Covered-cell rows of coverage functions over one coordinate block.

Every aggregate/trajectory query values sensor sets through its
``CoverageFunction``, whose dense form is an ``(n_relevant, n_cells)``
mask matrix (``CoverageFunction.masks_for``) even though a sensor's
covered cells are a tiny disk of the region.  :class:`WorldRaster` builds
the same memberships as per-sensor CSR rows (``indptr``/``cells``) instead:
:meth:`WorldRaster.coverage_rows`, from which the fused aggregate gain
blocks (:class:`repro.queries.aggregate._CoverageBlock`) build their
uncovered-cell counts and cell → sensor transposes.  It keeps no cache:
each coverage function is rasterized once per slot, by the block that
owns it, and the raster lives as long as that block.

**Bit-identity contract.**  Coverage rows reproduce the membership of
``fn.masks_for(xy)`` row-for-row: every cell the builder emits (or skips)
is decided by the same ``sqrt(dx*dx + dy*dy) <= sensing_range`` on the
function's own stored cell coordinates, so a cell is covered in the CSR
iff it is covered in the dense mask, down to the last ulp of a boundary
case.

**Per-column runs.**  For exact :class:`~repro.spatial.AreaCoverage`
instances (subclasses are *not* trusted — they may re-rasterize
arbitrarily and fall back to the dense mask builder) the cell layout is
the row-major ``Region.grid_cells`` grid, validated per call against the
stored ``_cells`` as a whole separable ``columns x rows`` product.  Within
one grid column ``dx`` is fixed and the row centres ascend, and rounded
subtraction, squaring, addition and ``sqrt`` are all monotone, so the
membership test holds on one contiguous run of rows — exactly, in floating
point — and that run, when not empty, contains the row nearest the sensor
in ``y``.  The builder therefore works per (sensor, column) pair of a
sensor's candidate columns: one exact test of the nearest row decides
whether the column is empty, the run's ends are estimated from the chord
half-height and then corrected with the exact test until each end is
covered and its outer neighbour is not.  That is ``O(r / cell)``
candidates per sensor instead of the ``O(r^2 / cell^2)`` cells of its
bounding box.
"""

from __future__ import annotations

import numpy as np

from .coverage import AreaCoverage, CoverageFunction

__all__ = ["WorldRaster"]

#: Outward steps of the stacked [lo; hi] run ends.
_OUTWARD = np.array([-1, 1])


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
    """The covered-cell row builder over one ``(n, 2)`` coordinate block.

    Attributes:
        xy: the coordinates, indexed by the columns callers pass (not
            copied).
        rows_built / candidates_built: work counters, read by benchmarks
            and tests, never by the build — the rows built, and the
            candidate entries materialized for them: (sensor, column)
            pairs on the grid path, mask entries on the dense fallback.
    """

    def __init__(self, xy: np.ndarray) -> None:
        self.xy = np.asarray(xy, dtype=float)
        self.rows_built = 0
        self.candidates_built = 0

    def coverage_rows(
        self, fn: CoverageFunction, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR covered-cell rows of ``fn`` for the columns ``cols``.

        Returns ``(indptr, cells)``: row ``i`` (sensor ``cols[i]``) covers
        the cell indices ``cells[indptr[i]:indptr[i+1]]`` of ``fn``'s own
        cell order — exactly the ``True`` positions of row ``i`` of
        ``fn.masks_for(xy[cols])``, ascending.  Built with per-column runs
        on a validated grid, dense masks otherwise (module docstring).
        """
        cols = np.asarray(cols, dtype=np.intp)
        k = len(cols)
        self.rows_built += k
        layout = _grid_layout(fn)
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
