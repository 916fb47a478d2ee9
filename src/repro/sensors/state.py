"""Array-backed fleet state and the batch announcement API.

Historically every slot walked a list of :class:`~repro.sensors.sensor.Sensor`
objects: ``SensorFleet.announcements()`` tested region membership and
exhaustion per sensor, built one frozen
:class:`~repro.sensors.sensor.SensorSnapshot` per usable sensor, and
``ValuationKernel.from_sensors`` re-stacked those snapshots one at a time.
After the kernel/allocator vectorizations (PR 2/3) that per-sensor Python
loop was the last hot-path loop left — the *cold* slot at 2×10^4 sensors was
bottlenecked before any allocator ran, and 10^5-sensor fleets (the scale
city deployments operate at) were out of reach.

This module replaces the object walk with structure-of-arrays state:

:class:`FleetState`
    One stacked array per sensor attribute — positions, inaccuracy
    ``gamma``, trust ``tau``, lifetime/readings counters, the eq.-8 price
    parameters (base price ``C_s``, linear-energy ``beta``, privacy
    sensitivity and window) and a circular report-history buffer for the
    eq.-14 privacy loss.  All slot accounting (``record``, exhaustion,
    announcement masks, costs) is vectorized numpy; results are
    **bit-identical** to the scalar :class:`~repro.sensors.sensor.Sensor`
    arithmetic (same operation order per element, and every privacy-loss
    accumulation is exact small-integer float arithmetic, so summation
    order cannot matter).

:class:`AnnouncementBatch`
    One slot's announcements as array slices (ids, coordinates, eq.-8
    costs, ``gamma``, ``tau``).  It is the one announcement type:
    allocators, the valuation kernel, rosters and controllers read its
    arrays, and :func:`announcement_batch` converts any other announcement
    input (a plain list of :class:`SensorSnapshot`) once at the entry
    point.  The batch is also a lazy ``Sequence[SensorSnapshot]`` —
    consumers that index or iterate get per-row snapshot objects
    materialized (and cached) on demand, so only the sensors an allocation
    actually selects ever become objects.

A batch describes one slot only.  The fleet re-announces every sensor at
the start of every slot (Section 2.1), and every slot-level structure
built from a batch (kernel, grid index, coverage rows) lives for that slot.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator

import numpy as np

from ..spatial import Location, Region
from .costs import PrivacySensitivity
from .sensor import SensorSnapshot

__all__ = [
    "FleetState",
    "AnnouncementBatch",
    "SnapshotColumnView",
    "announcement_batch",
]

def announcement_batch(sensors) -> "AnnouncementBatch":
    """The one announcement type every consumer reads.

    An :class:`AnnouncementBatch` passes through unchanged; anything else
    (a list of :class:`SensorSnapshot`, any iterable of them) is converted
    once through :meth:`AnnouncementBatch.from_snapshots`.  Allocators,
    the valuation kernel, rosters and controllers call this at their entry
    and read the batch's arrays from then on.
    """
    if isinstance(sensors, AnnouncementBatch):
        return sensors
    return AnnouncementBatch.from_snapshots(sensors)


class SnapshotColumnView(Sequence):
    """A lazy column gather over an announcement sequence.

    ``view[j] is source[columns[j]]`` — nothing is materialized until a
    consumer actually indexes, so a roster built over a candidate subset of
    an :class:`AnnouncementBatch` stays snapshot-free end to end (the
    allocator's pick loop touches only the winning columns).  The view is
    frozen: it holds the source and the column index array by reference
    and never copies either.
    """

    __slots__ = ("_source", "_columns")

    def __init__(self, source, columns: np.ndarray) -> None:
        self._source = source
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self._source[int(j)] for j in self._columns[item]]
        return self._source[int(self._columns[item])]

    def __iter__(self) -> Iterator[SensorSnapshot]:
        for j in self._columns:
            yield self._source[int(j)]


class FleetState:
    """Structure-of-arrays state of a sensor population.

    Args:
        gamma: per-sensor inaccuracy ``gamma_s`` in [0, 1].
        trust: per-sensor trust ``tau_s`` in [0, 1].
        base_price: per-sensor base price ``C_s`` (both eq.-8 components
            scale with it, as in :class:`~repro.sensors.fleet.FleetConfig`).
        energy_beta: per-sensor linear-energy increment factor ``beta``
            (ignored unless ``linear_energy``).
        linear_energy: use the linear energy model
            ``c_e = C_s (1 + beta (1 - E))``; otherwise the fixed model
            ``c_e = C_s``.
        sensitivity: per-sensor privacy sensitivity level values (the
            :class:`~repro.sensors.costs.PrivacySensitivity` enum values).
        privacy_window: the eq.-14 window ``w`` (uniform for the fleet).
        lifetime: per-sensor maximum readings (Section 4.1's rule).

    Mutable state is ``readings_taken``, the windowed report-history
    buffer, and the current positions (:meth:`set_positions`).  All reads
    needed by the slot protocol are exposed as vectorized batch operations;
    :meth:`history_of` reconstructs one sensor's report history for the
    object-view compatibility layer.
    """

    def __init__(
        self,
        gamma: np.ndarray,
        trust: np.ndarray,
        base_price: np.ndarray,
        energy_beta: np.ndarray,
        linear_energy: bool,
        sensitivity: np.ndarray,
        privacy_window: int,
        lifetime: np.ndarray,
    ) -> None:
        self.gamma = np.ascontiguousarray(gamma, dtype=float)
        n = len(self.gamma)
        self.trust = np.ascontiguousarray(trust, dtype=float)
        self.base_price = np.ascontiguousarray(base_price, dtype=float)
        self.energy_beta = np.ascontiguousarray(energy_beta, dtype=float)
        self.linear_energy = bool(linear_energy)
        self.sensitivity = np.ascontiguousarray(sensitivity, dtype=float)
        self.lifetime = np.ascontiguousarray(lifetime, dtype=np.int64)
        for name in ("trust", "base_price", "energy_beta", "sensitivity", "lifetime"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have one entry per sensor")
        # Written as "not (inside)" so that NaN, which fails every
        # comparison, is rejected too.
        if not np.all((self.gamma >= 0.0) & (self.gamma <= 1.0)):
            raise ValueError("inaccuracy must be in [0, 1]")
        if not np.all((self.trust >= 0.0) & (self.trust <= 1.0)):
            raise ValueError("trust must be in [0, 1]")
        if not np.all(np.isfinite(self.base_price) & (self.base_price >= 0.0)):
            raise ValueError("base_price must be finite and non-negative")
        if not np.all(np.isfinite(self.energy_beta) & (self.energy_beta >= 0.0)):
            raise ValueError("beta must be finite and non-negative")
        if np.any(self.lifetime < 1):
            raise ValueError("lifetime must be >= 1")
        if privacy_window < 1:
            raise ValueError("privacy window must be >= 1")
        self.privacy_window = int(privacy_window)
        self.readings_taken = np.zeros(n, dtype=np.int64)
        # Circular report-history buffer: column ``t % (w + 1)`` holds
        # whether a report was provided at slot ``t``; :meth:`clear_slot`
        # retires the column a new slot is about to reuse (its old content
        # is ``w + 1`` slots stale — outside the eq.-14 window).  Float
        # dtype so the privacy pass is a single matvec.
        self._report_flags = np.zeros((n, self.privacy_window + 1))
        self._any_privacy = bool(np.any(self.sensitivity > 0.0))
        self.xy: np.ndarray | None = None

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def n_sensors(self) -> int:
        return len(self.gamma)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def set_positions(self, xy: np.ndarray) -> None:
        """Refresh the per-sensor positions (copied; ``(n, 2)``, finite).

        A NaN or infinite row is refused: it would never announce (every
        region comparison is false).
        """
        xy = np.array(xy, dtype=float, copy=True)
        if xy.shape != (self.n_sensors, 2):
            raise ValueError(
                f"positions must have shape ({self.n_sensors}, 2), got {xy.shape}"
            )
        finite = np.isfinite(xy).all(axis=1)
        if not finite.all():
            row = int(finite.argmin())
            x, y = xy[row].tolist()
            raise ValueError(f"positions must be finite, got row {row} ({x}, {y})")
        self.xy = xy

    def clear_slot(self, now: int) -> None:
        """Retire the report-buffer column slot ``now`` is about to reuse."""
        self._report_flags[:, now % (self.privacy_window + 1)] = 0.0

    def record(self, ids: np.ndarray, now: int) -> None:
        """Book one reading per sensor in ``ids`` (validated, unique) at
        slot ``now``: lifetime counter plus privacy report history."""
        self.readings_taken[ids] += 1
        self._report_flags[ids, now % (self.privacy_window + 1)] = 1.0

    # ------------------------------------------------------------------
    # vectorized eq. 8 pricing
    # ------------------------------------------------------------------
    def remaining_energy(self, idx: np.ndarray) -> np.ndarray:
        """``E_s = max(0, 1 - readings/lifetime)`` for the given rows."""
        return np.maximum(0.0, 1.0 - self.readings_taken[idx] / self.lifetime[idx])

    def announce_costs(self, idx: np.ndarray, now: int) -> np.ndarray:
        """Eq.-8 announced prices for the given rows at slot ``now``.

        Bit-identical to :meth:`repro.sensors.sensor.Sensor.announce_cost`:
        each element goes through the same operation sequence as the scalar
        models, and the privacy-loss accumulation is exact (small-integer
        floats), so the windowed sum cannot depend on summation order.
        """
        energy = self.remaining_energy(idx)
        if self.linear_energy:
            costs = self.base_price[idx] * (1.0 + self.energy_beta[idx] * (1.0 - energy))
        else:
            costs = self.base_price[idx].copy()
        if self._any_privacy:
            w = self.privacy_window
            # weight (w - age) per buffer column, exactly privacy_loss():
            # reports older than w columns have weight exactly 0, and the
            # age-0 weight w covers a same-slot report (announce after
            # record) the same way the scalar history walk does — in the
            # normal protocol that column is simply still cleared.
            ages = (now - np.arange(w + 1)) % (w + 1)
            weights = (w - ages).astype(float)
            extra = self._report_flags[idx] @ weights
            loss = (float(w) + extra) / (w * (w + 1) / 2.0)
            costs = costs + self.sensitivity[idx] * loss * self.base_price[idx]
        return costs

    # ------------------------------------------------------------------
    # the announcement batch
    # ------------------------------------------------------------------
    def _announcing_rows(self, working_region: Region) -> np.ndarray:
        """Ascending rows that announce: inside ``working_region`` and not
        exhausted (readings taken below the lifetime)."""
        x, y = self.xy[:, 0], self.xy[:, 1]
        usable = (
            (x >= working_region.x_min)
            & (x <= working_region.x_max)
            & (y >= working_region.y_min)
            & (y <= working_region.y_max)
            & (self.readings_taken < self.lifetime)
        )
        return np.flatnonzero(usable)

    def announce(self, now: int, working_region: Region) -> "AnnouncementBatch":
        """The slot's announcements: in-region, non-exhausted, priced.

        One vectorized pass; no snapshot objects are built (the returned
        batch materializes them lazily for the rows a consumer indexes).
        """
        if self.xy is None:
            raise RuntimeError("positions were never set; call set_positions first")
        idx = self._announcing_rows(working_region)
        return AnnouncementBatch(
            ids=idx,
            xy=self.xy[idx],
            costs=self.announce_costs(idx, now),
            gamma=self.gamma[idx],
            trust=self.trust[idx],
            clock=now,
        )

    # ------------------------------------------------------------------
    # object-view compatibility
    # ------------------------------------------------------------------
    def history_of(self, index: int, now: int) -> list[int]:
        """Reconstruct one sensor's windowed report history (ascending).

        Equivalent to the scalar :class:`Sensor`'s pruned ``report_history``
        for every cost computation: entries older than the window never
        contribute to eq. 14 and have been retired from the buffer.
        """
        w = self.privacy_window
        flags = self._report_flags[index]
        slots = [
            now - int((now - c) % (w + 1))
            for c in range(w + 1)
            if flags[c] != 0.0
        ]
        return sorted(t for t in slots if t >= 0)

    def sensitivity_level(self, index: int) -> PrivacySensitivity:
        """The enum level behind ``sensitivity[index]``."""
        return PrivacySensitivity.from_value(float(self.sensitivity[index]))


class AnnouncementBatch(Sequence):
    """One slot's announcements as stacked arrays + a lazy snapshot view.

    The array attributes (``ids``, ``xy``, ``costs``, ``gamma``, ``trust``)
    share one column order and are read directly by the kernel, the
    allocators and the controllers without any per-sensor work.  The batch
    is simultaneously an immutable ``Sequence[SensorSnapshot]``: indexing
    or iterating materializes (and caches) frozen per-row
    :class:`SensorSnapshot` objects, so settlement and the scalar query
    fallbacks get objects for exactly the rows they touch.

    Attributes:
        ids: announced sensor ids, unique (fleet row indices, ascending,
            for a fleet's batch).
        xy: ``(m, 2)`` announced coordinates.
        costs: eq.-8 announced prices.
        gamma: per-announcement inaccuracy.
        trust: per-announcement trust.
        clock: the slot the batch was announced for (``None`` when
            converted from snapshots).
    """

    def __init__(
        self,
        ids: np.ndarray,
        xy: np.ndarray,
        costs: np.ndarray,
        gamma: np.ndarray,
        trust: np.ndarray,
        clock: int | None,
    ) -> None:
        self.ids = ids
        self.xy = xy
        self.costs = costs
        self.gamma = gamma
        self.trust = trust
        self.clock = clock
        self._snapshots: list[SensorSnapshot | None] = [None] * len(ids)

    @classmethod
    def from_snapshots(cls, snapshots) -> "AnnouncementBatch":
        """Stack a snapshot list into a batch, keeping the caller's objects.

        The snapshot cache is pre-filled with the given snapshots, so
        indexing the batch (and therefore ``result.selected``) returns them
        unchanged.  Duplicate sensor ids are refused with
        :class:`~repro.core.errors.AllocationError`.
        """
        from ..core.errors import AllocationError

        snapshots = list(snapshots)
        n = len(snapshots)
        ids = np.fromiter((s.sensor_id for s in snapshots), np.int64, n)
        if len(np.unique(ids)) != n:
            raise AllocationError("duplicate sensor ids in allocation input")
        xy = np.empty((n, 2), dtype=float)
        xy[:, 0] = np.fromiter((s.location.x for s in snapshots), float, n)
        xy[:, 1] = np.fromiter((s.location.y for s in snapshots), float, n)
        costs = np.fromiter((s.cost for s in snapshots), float, n)
        gamma = np.fromiter((s.inaccuracy for s in snapshots), float, n)
        trust = np.fromiter((s.trust for s in snapshots), float, n)
        batch = cls(ids, xy, costs, gamma, trust, clock=None)
        batch._snapshots = snapshots
        return batch

    def with_costs(self, costs: np.ndarray) -> "AnnouncementBatch":
        """The same announcements at different prices.

        Shares every identity array (``ids``, ``xy``, ``gamma``,
        ``trust``), so the slot kernel built from this batch serves the
        repriced one too; only the cost column — and therefore the lazily
        materialized snapshots — differs.  This is how the sequential
        buffering baseline re-announces stage-1 sensors at zero cost
        without walking the batch.
        """
        costs = np.asarray(costs, dtype=float)
        if costs.shape != self.costs.shape:
            raise ValueError("costs must have one entry per announcement")
        return AnnouncementBatch(
            ids=self.ids,
            xy=self.xy,
            costs=costs,
            gamma=self.gamma,
            trust=self.trust,
            clock=self.clock,
        )

    # ------------------------------------------------------------------
    # Sequence[SensorSnapshot] protocol (lazy)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    def snapshot(self, j: int) -> SensorSnapshot:
        """The (cached) frozen snapshot of row ``j``."""
        snap = self._snapshots[j]
        if snap is None:
            snap = SensorSnapshot(
                sensor_id=int(self.ids[j]),
                location=Location(float(self.xy[j, 0]), float(self.xy[j, 1])),
                cost=float(self.costs[j]),
                inaccuracy=float(self.gamma[j]),
                trust=float(self.trust[j]),
            )
            self._snapshots[j] = snap
        return snap

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self.snapshot(j) for j in range(*item.indices(len(self)))]
        j = item.__index__()
        if j < 0:
            j += len(self)
        if not (0 <= j < len(self)):
            raise IndexError("announcement index out of range")
        return self.snapshot(j)

    def __iter__(self) -> Iterator[SensorSnapshot]:
        for j in range(len(self)):
            yield self.snapshot(j)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AnnouncementBatch slot={self.clock} n={len(self)}>"
