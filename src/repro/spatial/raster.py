"""The shared world coverage raster: one slot's geometry caches.

A slot with many region queries repeats three kinds of geometric work
against the *same* announced coordinates:

* **coverage rasterization** — every aggregate/trajectory query builds an
  ``(n_relevant, n_cells)`` mask matrix (``CoverageFunction.masks_for``)
  even though a sensor's covered cells are a tiny disk of the region;
* **region containment** — monitoring controllers and relevance prefilters
  evaluate ``Region.contains_many`` / ``Region.exterior_distance_sq`` per
  consumer per call, although a (region, announcement-set) pair can only
  ever produce one answer per slot;
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
* :meth:`exterior_distance_sq` / :meth:`contains_mask` — per-region
  containment passes, shared by aggregate ``relevant_mask`` screening and
  ``RegionMonitoringController.region_counts``.

**Bit-identity contract.**  Every cached quantity is produced by exactly
the arithmetic of the uncached path.  Containment caches call the very
``Region`` methods consumers called before.  Coverage rows reproduce the
membership of ``masks_for_xy`` row-for-row: the grid-accelerated builder
only *pre-selects candidate cells* with a conservative index box — the
final membership test is the same ``sqrt(dx*dx + dy*dy) <= sensing_range``
on the function's own stored cell coordinates, so a cell is covered in the
CSR iff it is covered in the dense mask, down to the last ulp of a
boundary case.

**The grid fast path.**  For exact :class:`~repro.spatial.AreaCoverage` /
:class:`~repro.spatial.WeightedCoverage` instances (subclasses are *not*
trusted — they may re-rasterize arbitrarily and fall back to the dense
mask builder) the cell layout is the row-major ``Region.grid_cells`` grid,
so each sensor's candidate cells form a small index box around it: the
builder enumerates ``O(r^2 / cell^2)`` candidates per sensor instead of
testing all ``n_cells``, which is what turns a 48x48-region slot's
per-sensor work from ~2300 cells into ~120.  The layout is validated
against the function's stored ``_cells`` (count and exact first/last
centres) before it is trusted.

Lifetime: a raster lives exactly as long as its coordinate block — it is
attached to the announcement batch (or kernel) that owns the array, so all
of one slot's consumers (the kernel, its candidate machinery, the
monitoring controllers) resolve to the same instance and every cache entry
is computed at most once per slot.  A :meth:`~WorldRaster.patched` raster
keeps its predecessor (the only raster a splice ever reads) and drops it
the moment its own successor is made, so a long-running patching
service holds at most two rasters — the live slot's and the one it splices
from — however many ticks it has run.  A cache miss on a raster whose
predecessor link is gone takes the full build, which is bit-identical.
"""

from __future__ import annotations

import numpy as np

from .coverage import AreaCoverage, CoverageFunction, WeightedCoverage, masks_for_xy
from .region import Region

__all__ = ["WorldRaster", "get_raster"]

_ATTR = "_world_raster"


def get_raster(holder, xy: np.ndarray) -> "WorldRaster":
    """The :class:`WorldRaster` shared by all consumers of ``xy``.

    ``holder`` is the object that owns the coordinate block — an
    :class:`~repro.sensors.AnnouncementBatch`, usually.  The raster is
    cached as an attribute on it so the kernel, its candidate machinery
    and the monitoring controllers all resolve to one instance;
    holders that refuse attributes (plain lists) simply get a fresh raster
    per call, which is correct and merely uncached.
    """
    raster = getattr(holder, _ATTR, None)
    if raster is not None and raster.xy is xy:
        return raster
    raster = WorldRaster(xy)
    try:
        setattr(holder, _ATTR, raster)
    except (AttributeError, TypeError):
        pass
    return raster


def _grid_layout(fn: CoverageFunction):
    """``(x_min, y_min, cell, nx, ny)`` when ``fn`` is a trusted region grid.

    Exact-type gate (mirroring ``ValuationKernel._query_box``): only the
    in-repo rasterized region functions are known to lay their cells out as
    the row-major ``Region.grid_cells`` grid.  The reconstruction is then
    validated against the stored cells — count plus exact first/last centre
    coordinates (the same ``x_min + (i + 0.5) * cell`` expression
    ``grid_cells`` evaluates, so equality is exact, not approximate).
    """
    if type(fn) not in (AreaCoverage, WeightedCoverage):
        return None
    region, cell = fn.region, float(fn.cell_size)
    if not cell > 0.0:
        return None
    nx = max(1, int(round(region.width / cell)))
    ny = max(1, int(round(region.height / cell)))
    cells = fn._cells
    if len(cells) != nx * ny:
        return None
    first_x = region.x_min + (0 + 0.5) * cell
    first_y = region.y_min + (0 + 0.5) * cell
    last_x = region.x_min + (nx - 1 + 0.5) * cell
    last_y = region.y_min + (ny - 1 + 0.5) * cell
    if (
        cells[0, 0] != first_x
        or cells[0, 1] != first_y
        or cells[-1, 0] != last_x
        or cells[-1, 1] != last_y
    ):
        return None
    return region.x_min, region.y_min, cell, nx, ny


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
        self._exterior: dict[Region, np.ndarray] = {}
        self._contains: dict[Region, np.ndarray] = {}
        # Set by :meth:`patched`: (prev_raster, fresh_idx, carry_old,
        # carry_new, identity, aligned, new_to_old) — the splice plan that
        # lets this raster's caches fill from the previous slot's instead
        # of from scratch.  ``None`` for from-scratch rasters.
        self._patch: tuple | None = None

    # ------------------------------------------------------------------
    # differential construction
    # ------------------------------------------------------------------
    def patched(
        self, xy: np.ndarray, old_to_new: np.ndarray, fresh_cols: np.ndarray
    ) -> "WorldRaster":
        """A raster over the next slot's block, seeded from this one.

        ``old_to_new`` maps this raster's columns to columns of ``xy``
        (``-1`` = no longer announced); ``fresh_cols`` are the ``xy``
        columns whose geometry cannot be carried (new announcers plus
        movers).  Every cache fill on the returned raster first tries to
        *splice* from this raster's entries — carrying rows whose sensor
        did not move and recomputing only the fresh subset, which is
        bit-identical to a from-scratch fill because every cached quantity
        is computed row-independently (elementwise containment arithmetic;
        per-sensor candidate boxes + exact distance tests for coverage
        rows).

        Splicing reads exactly one slot back, so this raster's own link to
        *its* predecessor is dropped here: the returned raster keeps this
        one alive until its own successor exists, and no chain of past
        slots (with their coverage rows and the coverage functions they
        pin) stays reachable.  Later cache misses on this raster take the
        full build.
        """
        self._patch = None
        out = WorldRaster(xy)
        m = len(out.xy)
        fresh_mask = np.zeros(m, dtype=bool)
        fresh_mask[fresh_cols] = True
        old_cols = np.flatnonzero(old_to_new >= 0)
        new_cols = old_to_new[old_cols]
        carried = ~fresh_mask[new_cols]
        carry_old = old_cols[carried]
        carry_new = new_cols[carried]
        identity = (
            not len(fresh_cols)
            and len(carry_new) == m
            and len(self.xy) == m
            and bool((carry_new == np.arange(m)).all())
        )
        # Aligned: every carried column keeps its position (stable
        # membership, only movers/new announcers differ) — carrying a
        # cached array is then one memcpy + a fresh-subset overwrite
        # instead of a gather/scatter pair.
        aligned = len(self.xy) == m and bool(np.array_equal(carry_new, carry_old))
        new_to_old = np.full(m, -1, dtype=np.int64)
        new_to_old[carry_new] = carry_old
        fresh_idx = np.flatnonzero(fresh_mask)
        out._patch = (
            self, fresh_idx, carry_old, carry_new, identity, aligned, new_to_old
        )
        return out

    def _spliced_region_array(self, cache_name: str, region: Region, compute):
        """Carry + subset-recompute one per-region containment array."""
        patch = self._patch
        if patch is None:
            return None
        prev_raster, fresh_idx, carry_old, carry_new, identity, aligned, _ = patch
        prev = getattr(prev_raster, cache_name).get(region)
        if prev is None:
            return None
        if identity:
            return prev
        if aligned:
            out = prev.copy()
        else:
            out = np.empty(len(self.xy), dtype=prev.dtype)
            out[carry_new] = prev[carry_old]
        if fresh_idx.size:
            out[fresh_idx] = compute(self.xy[fresh_idx])
        out.setflags(write=False)
        return out

    # ------------------------------------------------------------------
    # region containment caches
    # ------------------------------------------------------------------
    def exterior_distance_sq(self, region: Region) -> np.ndarray:
        """Cached ``region.exterior_distance_sq`` over the world block.

        The returned array is shared and read-only; thresholding it (e.g.
        ``<= sensing_range**2`` for the aggregate relevance prefilter)
        allocates a fresh mask, so consumers compose freely.
        """
        out = self._exterior.get(region)
        if out is None:
            out = self._spliced_region_array(
                "_exterior", region, region.exterior_distance_sq
            )
            if out is None:
                out = region.exterior_distance_sq(self.xy)
                out.setflags(write=False)
            self._exterior[region] = out
        return out

    def contains_mask(self, region: Region) -> np.ndarray:
        """Cached ``region.contains_many`` over the world block (read-only)."""
        out = self._contains.get(region)
        if out is None:
            out = self._spliced_region_array("_contains", region, region.contains_many)
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
        ``masks_for_xy(fn, xy[cols])``, ascending.  Both arrays are shared
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
        spliced = self._spliced_rows(fn, cols) if self._patch is not None else None
        if spliced is not None:
            indptr, cells = spliced
        else:
            indptr, cells = self._build_rows(fn, cols)
        indptr.setflags(write=False)
        cells.setflags(write=False)
        self._coverage_rows[key] = (fn, cols, indptr, cells)
        return indptr, cells

    def _spliced_rows(
        self, fn: CoverageFunction, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Assemble ``fn``'s CSR rows from the previous slot's entry.

        Carried rows (sensor announced both slots, did not move) are copied
        span-wise from the old CSR; the rest are rebuilt with the normal
        row builder on just that subset.  Row-for-row bit-identical to a
        full :meth:`_build_rows` because the builder's membership test is
        per-sensor independent.  Returns ``None`` (full rebuild) when the
        previous slot never rasterized ``fn`` or more than
        :data:`~repro.sensors.state.REBUILD_FRACTION` of the rows (and
        over 64) would be recomputed.
        """
        from ..sensors.state import REBUILD_FRACTION

        prev_raster, _, _, _, _, _, new_to_old = self._patch
        entry = prev_raster._coverage_rows.get(id(fn))
        if entry is None or entry[0] is not fn:
            return None
        _, pcols, pindptr, pcells = entry
        # Row lookup by bisection over the old column list (ascending by
        # construction — flatnonzero output); guards against exotic
        # callers that cached an unsorted column order.
        if not len(pcols) or not bool((pcols[1:] > pcols[:-1]).all()):
            return None
        k = len(cols)
        old_of = new_to_old[cols]  # -1 where dropped or moved
        oc = np.maximum(old_of, 0)
        j = np.minimum(np.searchsorted(pcols, oc), len(pcols) - 1)
        ok = (old_of >= 0) & (pcols[j] == oc)
        j = np.where(ok, j, -1)
        comp = np.flatnonzero(~ok)
        if comp.size > REBUILD_FRACTION * k and comp.size > 64:
            return None
        if comp.size:
            sub_indptr, sub_cells = self._build_rows(fn, cols[comp])
        else:
            sub_indptr = np.zeros(1, dtype=np.int64)
            sub_cells = np.zeros(0, dtype=np.int64)
        lens = np.empty(k, dtype=np.int64)
        okidx = np.flatnonzero(ok)
        jk = j[okidx]
        lens[okidx] = pindptr[jk + 1] - pindptr[jk]
        lens[comp] = np.diff(sub_indptr)
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        cells = np.empty(int(indptr[-1]), dtype=np.int64)
        # Copy in maximal runs: consecutive carried rows that are also
        # consecutive in the old CSR collapse into one memcpy; computed
        # rows are contiguous in the sub-CSR by construction.
        if k:
            brk = np.ones(k, dtype=bool)
            brk[1:] = (ok[1:] != ok[:-1]) | (ok[1:] & ok[:-1] & (j[1:] != j[:-1] + 1))
            run_starts = np.flatnonzero(brk)
            run_ends = np.append(run_starts[1:], k)
            sub_cursor = 0
            for a, b in zip(run_starts, run_ends):
                dst0, dst1 = int(indptr[a]), int(indptr[b])
                if ok[a]:
                    src0 = int(pindptr[j[a]])
                    cells[dst0:dst1] = pcells[src0 : src0 + (dst1 - dst0)]
                else:
                    src0 = int(sub_indptr[sub_cursor])
                    cells[dst0:dst1] = sub_cells[src0 : src0 + (dst1 - dst0)]
                    sub_cursor += b - a
        return indptr, cells

    def _build_rows(
        self, fn: CoverageFunction, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        layout = _grid_layout(fn)
        if layout is None:
            # Dense fallback: any coverage function, any cell layout.  The
            # mask matrix is transient — only its nonzero structure is kept.
            masks = masks_for_xy(fn, self.xy[cols])
            rows, cells = np.nonzero(masks)
            counts = np.bincount(rows, minlength=len(cols))
            indptr = np.zeros(len(cols) + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            return indptr, cells.astype(np.int64, copy=False)
        x_min, y_min, cell, nx, ny = layout
        r = float(fn.sensing_range)
        pts = self.xy[cols]
        sx = pts[:, 0]
        sy = pts[:, 1]
        # Conservative candidate index boxes (padded by one cell so float
        # rounding of the division can never exclude a boundary cell —
        # including the <= 1-ulp drift of factoring the shared ``u``
        # subexpression out of both bounds); the exact distance test below
        # decides true membership.  Both coordinate axes ride through each
        # vector op at once: at splice-time this path runs on handfuls of
        # fresh rows per query, where the op count is the cost.
        u = (pts - (x_min, y_min)) / cell - 0.5
        v = r / cell
        lo = np.floor(u - v).astype(np.int64) - 1
        hi = np.ceil(u + v).astype(np.int64) + 1
        bound = np.array([nx - 1, ny - 1], dtype=np.int64)
        np.minimum(lo, bound, out=lo)
        np.maximum(lo, 0, out=lo)
        np.minimum(hi, bound, out=hi)
        np.maximum(hi, 0, out=hi)
        ix_lo, iy_lo = lo[:, 0], lo[:, 1]
        box = hi - lo + 1
        box_nx, box_ny = box[:, 0], box[:, 1]
        counts = np.multiply(box_nx, box_ny)
        total = int(counts.sum())
        if total == 0:
            return np.zeros(len(cols) + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        owner = np.repeat(np.arange(len(cols), dtype=np.int64), counts)
        prev = np.zeros(len(cols), dtype=np.int64)
        np.cumsum(counts[:-1], out=prev[1:])
        rank = np.arange(total, dtype=np.int64) - prev[owner]
        ix = ix_lo[owner] + rank // box_ny[owner]
        iy = iy_lo[owner] + rank % box_ny[owner]
        cell_idx = ix * ny + iy
        # Membership on the function's stored cell coordinates, with the
        # dense builder's exact arithmetic (cell - sensor, sqrt, <= r).
        cxy = fn._cells[cell_idx]
        dx = cxy[:, 0] - sx[owner]
        dy = cxy[:, 1] - sy[owner]
        keep = np.sqrt(dx * dx + dy * dy) <= r
        owner = owner[keep]
        cells = cell_idx[keep]
        counts = np.bincount(owner, minlength=len(cols))
        indptr = np.zeros(len(cols) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, cells
