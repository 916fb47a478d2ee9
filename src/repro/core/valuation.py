"""Vectorized point-query valuation — the slot's shared hot path.

Every point-query consumer — the BILP/local-search value matrix (eq. 9/12),
the greedy/baseline relevance prefilter (the paper's ``Q_{l_s}``), and the
monitoring controllers' derived queries — ultimately evaluates eq. (3)/(4)
for query×sensor pairs.  The seed implementation rebuilt those values with a
per-location Python loop inside every allocator call; at paper scale
(hundreds of queries × hundreds of sensors, every slot, every algorithm in
a sweep) that loop dominates the profile.

:class:`ValuationKernel` stacks one slot's announcements once (coordinates,
inaccuracy ``gamma``, trust ``tau``) and computes the full query×sensor
value matrix in a single broadcasted pass.  The engine builds one kernel
per slot and hands it to whatever allocator runs, so the stacked arrays are
shared across :class:`~repro.core.point_problem.PointProblem`, the query-mix
pipeline and the monitoring controllers instead of being reassembled per
call.

Two numerical paths coexist in the codebase and the kernel reproduces each
bit-for-bit so that refactored callers keep their exact seed behavior:

* the *matrix* path (``value_rows``) mirrors the dense-matrix construction
  historically inlined in ``PointProblem.build``: distances via
  ``sqrt(dx^2 + dy^2)`` and quality ``((1-gamma)*tau) * (1 - d/dmax)``;
* the *scalar* path (``single_values`` / ``relevance``) mirrors
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

from ..queries import PointQuery, SensorRoster
from ..sensors import SensorSnapshot
from ..sensors.state import SnapshotColumnView, as_announcement_sequence
from ..spatial.raster import WorldRaster, get_raster

__all__ = ["ValuationKernel", "announcement_token", "delta_old_to_new"]


def delta_old_to_new(delta, n_old: int) -> np.ndarray:
    """Previous-batch-column → new-batch-column map of a
    :class:`~repro.sensors.SlotDelta` (``-1`` = no longer announced)."""
    old_to_new = np.full(n_old, -1, dtype=np.int64)
    valid = delta.kept_src >= 0
    old_to_new[delta.kept_src[valid]] = np.flatnonzero(valid)
    return old_to_new


def announcement_token(sensors: Sequence[SensorSnapshot]) -> tuple:
    """Identity token of an announcement batch.

    Two batches with equal tokens are interchangeable for every value
    matrix the kernel produces: same sensor ids, positions, inaccuracies
    and trusts in the same column order.  Announced *costs* are excluded
    on purpose — value matrices never depend on them (see
    :class:`ValuationKernel`), which is what lets a kernel survive
    re-announcements that change prices only.

    :class:`~repro.sensors.AnnouncementBatch` producers carry the same
    identity as an O(1) version stamp (``batch.token``); kernels compare
    stamps first and fall back to this per-sensor tuple only for
    non-batch announcement lists.
    """
    return tuple(
        (s.sensor_id, s.location.x, s.location.y, s.inaccuracy, s.trust)
        for s in sensors
    )




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
        sensors: the announcements, defining the column order of every
            matrix the kernel produces — a plain snapshot list, or an
            :class:`~repro.sensors.AnnouncementBatch` (lazy snapshot
            sequence) when the kernel was built zero-copy from a batch.
        sensor_xy: ``(n, 2)`` sensor coordinates.
        gamma: per-sensor inaccuracy ``gamma_s``.
        trust: per-sensor trust ``tau_s``.
        costs: announced costs ``c_s`` (snapshot convenience only — value
            matrices never depend on cost, which is what lets a kernel be
            reused across re-announcements that change prices only, e.g.
            the sequential baseline's zero-cost buffering stage).
    """

    sensors: Sequence[SensorSnapshot]
    sensor_xy: np.ndarray
    gamma: np.ndarray
    trust: np.ndarray
    costs: np.ndarray
    #: precomputed :func:`announcement_token` of ``sensors`` (lazy).
    _token: tuple | None = field(default=None, repr=False, compare=False)
    #: the producing batch's O(1) version stamp, when built from one.
    _stamp: tuple | None = field(default=None, repr=False, compare=False)
    #: the slot's shared world raster over ``sensor_xy`` (lazy).
    _raster: WorldRaster | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sensors(cls, sensors: Sequence[SensorSnapshot]) -> "ValuationKernel":
        # Keep the caller's list object when possible: allocators that
        # receive the same announcement list the kernel was built from get
        # an O(1) identity fast path in :meth:`matches`.  The kernel treats
        # the list as frozen — replacing its *elements* after construction
        # is a caller bug the fast path cannot detect (snapshots themselves
        # are frozen dataclasses, so the only mutable surface is the list
        # slots), exactly as mutating the stacked arrays would be.  Every
        # in-repo producer builds a fresh list per slot.
        #
        # An AnnouncementBatch producer takes the zero-copy path: its
        # stacked arrays are adopted as-is (same values the per-snapshot
        # loop would stack — each snapshot is materialized *from* them)
        # and its version stamp replaces the O(n) token build.
        arrays = getattr(sensors, "kernel_arrays", None)
        if arrays is not None:
            xy, gamma, trust, costs = arrays()
            kernel = cls(sensors, xy, gamma, trust, costs)
            kernel._stamp = sensors.token
            return kernel
        sensors = sensors if type(sensors) is list else list(sensors)
        n = len(sensors)
        xy = np.empty((n, 2), dtype=float)
        gamma = np.empty(n, dtype=float)
        trust = np.empty(n, dtype=float)
        costs = np.empty(n, dtype=float)
        # reprolint: disable=hot-loop(object-path fallback for plain snapshot lists; batches take kernel_arrays above)
        for j, snapshot in enumerate(sensors):
            xy[j, 0] = snapshot.location.x
            xy[j, 1] = snapshot.location.y
            gamma[j] = snapshot.inaccuracy
            trust[j] = snapshot.trust
            costs[j] = snapshot.cost
        return cls(sensors, xy, gamma, trust, costs)

    @classmethod
    def from_batch(cls, batch) -> "ValuationKernel":
        """Zero-copy kernel over an :class:`~repro.sensors.AnnouncementBatch`.

        The batch's stacked arrays become the kernel's arrays (array
        slices, no per-sensor loop) and its O(1) token becomes the reuse
        stamp.  Equivalent to ``from_sensors(batch)`` — this spelling
        exists for callers that want to require the batch protocol.
        """
        if getattr(batch, "kernel_arrays", None) is None:
            raise TypeError(
                "from_batch needs an AnnouncementBatch-like producer "
                "(kernel_arrays/token); use from_sensors for snapshot lists"
            )
        return cls.from_sensors(batch)

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
        truth.
        """
        if kernel is not None and kernel.matches(sensors):
            # Rebind to the current announcements: identity attributes are
            # equal by the match, and rebinding restores the O(1) ``is``
            # fast path for every later check this slot (the kernel
            # otherwise stays pinned to the *previous* slot's batch after a
            # cross-slot reuse and pays a stamp/token compare per consumer).
            if sensors is not kernel.sensors:
                kernel.sensors = as_announcement_sequence(sensors)
                # A token-less newcomer (plain snapshot list) proved equal
                # identity via matches(), so any existing stamp still
                # describes this kernel — keep it rather than degrading
                # future batch comparisons to the O(n) token walk.
                stamp = getattr(sensors, "token", None)
                if stamp is not None:
                    kernel._stamp = stamp
            return kernel
        return cls.from_sensors(sensors)

    @classmethod
    def ensure_delta(
        cls,
        kernel: "ValuationKernel | None",
        batch,
        delta,
    ) -> "ValuationKernel":
        """Differential :meth:`ensure`: patch forward instead of rebuilding.

        ``batch``/``delta`` come from
        :meth:`~repro.sensors.FleetState.announce_update`.  Equal stamps
        reuse ``kernel`` outright (as :meth:`ensure`).  Otherwise a new
        kernel adopts the new batch's arrays zero-copy — they were already
        spliced churn-proportionally by the announce layer — and, when the
        delta chains from exactly the batch ``kernel`` was built over, the
        old kernel's world raster is carried forward as a patched raster
        (containment and coverage-CSR caches refill by splicing, see
        :meth:`~repro.spatial.WorldRaster.patched`).  Allocations computed
        through the result are bit-identical to the full-rebuild path's.
        """
        if kernel is not None and kernel.matches(batch):
            if batch is not kernel.sensors:
                kernel.sensors = as_announcement_sequence(batch)
                stamp = getattr(batch, "token", None)
                if stamp is not None:
                    kernel._stamp = stamp
            return kernel
        new = cls.from_batch(batch)
        if kernel is not None and delta is not None and delta.prev_token == kernel._stamp:
            raster = kernel._carry_raster(batch, delta)
            if raster is not None:
                new._raster = raster
        return new

    def _carry_raster(self, batch, delta) -> WorldRaster | None:
        """Patch this kernel's raster onto the next batch's coordinates."""
        raster = self._raster
        if raster is None or raster.xy is not self.sensor_xy:
            raster = getattr(self.sensors, "_world_raster", None)
            if raster is None or raster.xy is not self.sensor_xy:
                return None
        patched = raster.patched(
            batch.xy, delta_old_to_new(delta, len(self.sensor_xy)), delta.fresh_cols
        )
        try:
            setattr(batch, "_world_raster", patched)
        except (AttributeError, TypeError):
            pass
        return patched

    @property
    def token(self) -> tuple:
        """Cached :func:`announcement_token` of this kernel's batch."""
        if self._token is None:
            self._token = announcement_token(self.sensors)
        return self._token

    def matches(self, sensors: Sequence[SensorSnapshot]) -> bool:
        """O(1) reuse check for the common cases, token compare otherwise.

        Allocators call this on every ``allocate``; when they are handed
        the very batch/list the slot kernel was built from (the engine's
        normal path) the identity check answers immediately.  When both
        sides carry batch version stamps the stamps decide in O(1): equal
        stamps guarantee identical announcement identity, and unequal
        stamps mean the producing fleet state actually changed (stamps are
        bumped only on real position/exhaustion changes) or the producers
        are different fleets — either way a rebuild is the correct, cheap
        answer.  Only mixed list/batch comparisons fall back to the
        per-sensor token walk, which exits on the first mismatch.
        """
        if sensors is self.sensors:
            return True
        stamp = getattr(sensors, "token", None)
        if stamp is not None and self._stamp is not None:
            return stamp == self._stamp
        if len(sensors) != len(self.sensors):
            return False
        for cached, snapshot in zip(self.token, sensors):
            if (
                cached[0] != snapshot.sensor_id
                or cached[1] != snapshot.location.x
                or cached[2] != snapshot.location.y
                or cached[3] != snapshot.inaccuracy
                or cached[4] != snapshot.trust
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    @property
    def raster(self) -> WorldRaster:
        """The slot's shared :class:`~repro.spatial.WorldRaster`.

        Attached to the announcement batch when possible (see
        :func:`~repro.spatial.raster.get_raster`), so a kernel built
        zero-copy from a batch shares one raster — and its cached
        containment/coverage geometry — with every other consumer of that
        batch this slot (monitoring controllers, sharded kernels).
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
        — pass the slot's *current* announcement list whenever the kernel
        may be a reused one (cross-slot reuse, the sequential baseline's
        zero-cost re-announcements): the identity attributes are guaranteed
        equal by :meth:`matches`, but announced costs live only on the
        current snapshots.

        Column subsets are carried as a lazy
        :class:`~repro.sensors.state.SnapshotColumnView`, so building a
        roster over a candidate subset of an ``AnnouncementBatch`` never
        materializes a snapshot — only the columns a consumer actually
        indexes (the committed winners) are built.
        """
        source = self.sensors if snapshots is None else as_announcement_sequence(snapshots)
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
    # the scalar-compatible path (eq. 3 consumers: greedy/baseline prefilter)
    # ------------------------------------------------------------------
    def single_values(self, queries: Sequence[PointQuery]) -> np.ndarray:
        """``V[i, j] = PointQuery.value_single`` for every pair, vectorized.

        Bit-compatible with :func:`repro.queries.point.reading_quality`:
        distance via ``hypot`` and multiplication order
        ``((1-gamma) * (1 - d/dmax)) * tau``, then the ``theta >= theta_min``
        cutoff and the budget scaling of eq. (3).
        """
        xy, budgets, theta_mins, dmaxes = _stack_queries(queries)
        q, n = len(xy), self.n_sensors
        if q == 0 or n == 0:
            return np.zeros((q, n))
        dist = np.hypot(
            self.sensor_xy[None, :, 0] - xy[:, None, 0],
            self.sensor_xy[None, :, 1] - xy[:, None, 1],
        )
        theta = (1.0 - self.gamma)[None, :] * (1.0 - dist / dmaxes[:, None])
        theta *= self.trust[None, :]
        theta[dist > dmaxes[:, None]] = 0.0
        values = budgets[:, None] * theta
        values[theta < theta_mins[:, None]] = 0.0
        return values

    def relevance(self, queries: Sequence[PointQuery]) -> np.ndarray:
        """Boolean ``(q, n)`` matrix of ``PointQuery.relevant`` (value > 0)."""
        return self.single_values(queries) > 0.0
