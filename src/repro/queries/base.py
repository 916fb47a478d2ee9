"""Query abstractions shared by every allocator.

The aggregator treats valuation functions as black boxes (Section 2: "the
aggregator relies on the end users to provide a valuation function
``v_q(.)`` with each query").  Concretely, every query exposes

* :meth:`Query.value` — the set valuation ``v_q(S)`` over sensor snapshots;
* :meth:`Query.relevant` — a cheap spatial prefilter (the paper's ``Q_ls``
  in Algorithm 1: only queries a sensor can contribute to are examined);
* :meth:`Query.new_state` — an incremental-valuation state so greedy
  algorithms can evaluate marginal gains without recomputing ``v_q`` from
  scratch (the default state does exactly that recomputation; performance-
  critical query types override it).

On top of the scalar interface sits the **batch-gain protocol**: an
allocator stacks one slot's candidate announcements into a
:class:`SensorRoster` and asks each live :class:`ValuationState` for a
:class:`BatchGainState` (:meth:`ValuationState.batch`).  The batch state
evaluates the query's marginal gain against *many* candidate sensors in a
single vectorized pass (:meth:`BatchGainState.gain_many`), while the
underlying scalar state remains the source of truth for commits
(:meth:`ValuationState.add`) — batch states read the live scalar state on
every call, so no synchronization hooks are needed.  The default batch
state simply loops over :meth:`ValuationState.gain`, which keeps arbitrary
user-provided valuation functions correct; the built-in query types
override it with closed-form vectorizations.

One level above the per-query batch states sits the **block-gain
protocol**: an allocator groups same-type batch states into a
:class:`GainBlock` (:meth:`BatchGainState.block`) and evaluates *all* dirty
(query, sensor) pairs of the group in one fused
:meth:`GainBlock.gain_many_block` call per greedy round, instead of one
``gain_many`` call per dirty query row.  The built-in query types override
``block`` with stacked closed forms (quality-row matrices for the
point-flavoured types, flattened covered-cell CSR deltas for the coverage
types); the base :class:`GainBlock` falls back to a per-member
``gain_many`` loop, which keeps arbitrary subclasses correct.

Both layers are guarded by the MRO staleness test of
:func:`repro.dispatch.batch_hook_trusted`, forming the **fallback
lattice**: a subclass overriding only the scalar ``gain`` is routed out of
its base's closed-form batch state by :func:`resolve_batch_state` (it gets
the generic scalar-looping :class:`BatchGainState`); a subclass overriding
only ``gain_many`` is routed out of its base's fused block by
:func:`gain_block_trusted` (it gets the generic row-looping
:class:`GainBlock`).  Either way the override stays authoritative and the
fused path degrades one level at a time, never past correctness.

Alongside the gains sits the **batch-relevance protocol**
(:meth:`Query.relevant_mask`): one vectorized pass mapping a slot's stacked
announcement arrays — ``(n, 2)`` coordinates plus the matching inaccuracy
and trust columns — to the boolean ``Q_{l_s}`` prefilter row the scalar
:meth:`Query.relevant` answers per sensor.  Allocators screen every
announced sensor through the mask, so region-heavy slots never materialize
candidate snapshots just to ask whether a sensor could serve a query.

**Scalar fallback contract:** the base :meth:`Query.relevant_mask` returns
``None``, meaning "no vectorized geometry is available — fall back to the
per-snapshot :meth:`Query.relevant` scan".  A custom query type therefore
only ever needs the scalar predicate to be correct — including a subclass
of a built-in type that overrides *only* ``relevant``: allocators resolve
masks through :func:`resolve_relevant_mask`, which refuses an inherited
mask whenever the scalar predicate was redefined below it in the MRO.
Every built-in type overrides the mask alongside the scalar predicate,
and the purely geometric types (aggregate, trajectory)
route their *scalar* predicate through the mask with ``n = 1`` so the two
forms cannot disagree even in the final ulp.  The quality-gated types
(point, multi-point, event) keep their historical ``math.hypot`` scalar
path; their masks use ``np.hypot``, which can differ in the last ulp on
engineered boundary instances (the same caveat every batch-gain state
documents).
"""

from __future__ import annotations

import abc
import enum
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from ..dispatch import batch_hook_trusted
from ..sensors import SensorSnapshot
from ..sensors.state import announcement_batch

__all__ = [
    "QueryType",
    "Query",
    "ValuationState",
    "SensorRoster",
    "BatchGainState",
    "GainBlock",
    "member_runs",
    "new_query_id",
    "resolve_relevant_mask",
    "resolve_batch_state",
    "gain_block_trusted",
]


#: Methods whose override invalidates an inherited ``relevant_mask``: the
#: scalar predicate itself plus the hooks the built-in predicates delegate
#: to (``PointQuery.relevant`` → ``value_single`` → ``quality``;
#: multi-point/event ``relevant`` → ``quality``).
_RELEVANCE_HOOKS = ("relevant", "value_single", "quality")


def resolve_relevant_mask(
    query: "Query",
    xy: np.ndarray,
    gamma: np.ndarray | None = None,
    trust: np.ndarray | None = None,
) -> np.ndarray | None:
    """``query.relevant_mask(...)``, honouring scalar-only overrides.

    The consistency guard of the batch-relevance protocol
    (:func:`repro.dispatch.batch_hook_trusted`): a subclass that overrides
    the scalar :meth:`Query.relevant` — or one of the quality hooks the
    built-in predicates delegate to (:data:`_RELEVANCE_HOOKS`) — *without*
    overriding :meth:`Query.relevant_mask` would otherwise be screened
    through the inherited (now stale) mask of its base class.  When the
    mask cannot be trusted this returns ``None`` and the caller takes the
    per-snapshot scalar scan, exactly as for query types with no
    vectorized geometry at all.
    """
    if not batch_hook_trusted(type(query), "relevant_mask", _RELEVANCE_HOOKS):
        return None
    return query.relevant_mask(xy, gamma, trust)

_query_counter = itertools.count()


def new_query_id(prefix: str = "q") -> str:
    """Process-unique query identifier (stable ordering, human readable)."""
    return f"{prefix}{next(_query_counter)}"


class QueryType(enum.Enum):
    """The query taxonomy of Figure 1 (plus the event-detection extension)."""

    POINT = "point"
    MULTI_POINT = "multi_point"
    AGGREGATE = "aggregate"
    TRAJECTORY = "trajectory"
    LOCATION_MONITORING = "location_monitoring"
    REGION_MONITORING = "region_monitoring"
    EVENT = "event"

    @property
    def is_continuous(self) -> bool:
        return self in (
            QueryType.LOCATION_MONITORING,
            QueryType.REGION_MONITORING,
            QueryType.EVENT,
        )


class SensorRoster:
    """One allocator call's candidate sensors, stacked for batch gains.

    The roster fixes a *column order* — every array a batch state produces
    is indexed by position in ``snapshots`` — and shares the stacked
    coordinate/inaccuracy/trust arrays across all the call's batch states,
    so each query type vectorizes against the same memory.

    Built from announcements alone, the roster converts them once through
    :func:`~repro.sensors.state.announcement_batch` and shares the batch's
    arrays; :meth:`~repro.core.valuation.ValuationKernel.roster` passes a
    lazy column view of its batch together with the matching array slices.

    Attributes:
        snapshots: the candidates, defining the column order (an
            :class:`~repro.sensors.AnnouncementBatch` or a column view of
            one).
        xy: ``(n, 2)`` candidate coordinates.
        gamma: per-candidate inaccuracy ``gamma_s``.
        trust: per-candidate trust ``tau_s``.
        value_rows: optional precomputed single-sensor value rows keyed by
            query id (allocators with a slot
            :class:`~repro.core.valuation.ValuationKernel` fill this from
            one ``sparse_single_values`` pass over all plain point queries
            instead of re-deriving each row).
        relevance_rows: optional precomputed boolean relevance rows keyed
            by query id — allocators that already screened ``Q_{l_s}``
            park the rows here so batch states don't re-run the scalar
            ``Query.relevant`` per candidate.
        raster: optional :class:`~repro.spatial.WorldRaster` of the slot
            the roster was cut from — kernels attach it so batch/block
            states share the slot's cached coverage rows and containment
            passes instead of re-rasterizing per query.
        kernel_columns: when the roster is a column subset of a kernel,
            the kernel (world) column index of each roster column —
            ``None`` means the identity mapping.  Raster caches are keyed
            in world columns, so block states translate through this.
    """

    def __init__(
        self,
        snapshots: Sequence[SensorSnapshot],
        xy: np.ndarray | None = None,
        gamma: np.ndarray | None = None,
        trust: np.ndarray | None = None,
    ) -> None:
        if xy is None:
            snapshots = announcement_batch(snapshots)
            xy, gamma, trust = snapshots.xy, snapshots.gamma, snapshots.trust
        self.snapshots = snapshots
        self.xy = xy
        self.gamma = gamma
        self.trust = trust
        self.value_rows: dict[str, np.ndarray] = {}
        self.relevance_rows: dict[str, np.ndarray] = {}
        self.raster = None
        self.kernel_columns: np.ndarray | None = None

    def relevance_row(self, query: "Query") -> np.ndarray:
        """This query's boolean relevance over the roster (cached).

        Prefers the query's vectorized :meth:`Query.relevant_mask` over the
        roster's shared arrays; falls back to the scalar per-snapshot scan
        when the query declares no vectorized geometry.
        """
        row = self.relevance_rows.get(query.query_id)
        if row is None:
            row = resolve_relevant_mask(query, self.xy, self.gamma, self.trust)
            if row is None:
                row = np.fromiter(
                    (query.relevant(s) for s in self.snapshots), bool, self.n_sensors
                )
            self.relevance_rows[query.query_id] = row
        return row

    @property
    def n_sensors(self) -> int:
        return len(self.snapshots)

    @property
    def all_indices(self) -> np.ndarray:
        return np.arange(self.n_sensors, dtype=np.intp)


class BatchGainState:
    """Vectorized marginal-gain view of one query over a fixed roster.

    The base implementation falls back to the scalar
    :meth:`ValuationState.gain` per candidate — always correct, never
    fast.  Built-in query types return closed-form subclasses from
    :meth:`ValuationState.batch`.

    Batch states hold a reference to the *live* scalar state and re-read
    it on every :meth:`gain_many` call, so commits through
    :meth:`ValuationState.add` are picked up automatically.
    """

    def __init__(self, state: "ValuationState", roster: SensorRoster) -> None:
        self.state = state
        self.roster = roster

    def gain_many(self, indices: np.ndarray) -> np.ndarray:
        """Marginal gains of ``roster.snapshots[j]`` for each ``j`` in order."""
        gain = self.state.gain
        snapshots = self.roster.snapshots
        return np.asarray([gain(snapshots[j]) for j in indices], dtype=float)

    @classmethod
    def block(cls, members: Sequence["BatchGainState"]) -> "GainBlock":
        """A fused evaluator over same-class batch states (see the module
        docstring's block-gain protocol).

        The base implementation returns the generic row-looping
        :class:`GainBlock` — always correct, never fused.  Built-in batch
        states override this classmethod with stacked closed forms whose
        per-pair results are bit-identical to their own ``gain_many``.
        """
        return GainBlock(members)


class GainBlock:
    """Fused marginal-gain evaluation over a group of same-class batch states.

    One block owns the batch states (``members``) of every query of one
    type in an allocator call; :meth:`gain_many_block` evaluates an entire
    round's dirty (member, sensor) pairs in one pass.  Like batch states,
    blocks re-read each member's *live* scalar state on every call, so no
    synchronization hooks are needed after commits.  A block may cache
    derived state between calls (the aggregate block keeps uncovered-cell
    counts), but only state it can bring up to date from the live members
    at the start of each call.

    The base implementation loops ``gain_many`` over the per-member runs of
    the pair list — always correct for arbitrary subclasses, merely not
    fused.  Built-in query types subclass with stacked closed forms.
    """

    def __init__(self, members: Sequence[BatchGainState]) -> None:
        self.members = list(members)

    def gain_many_block(
        self, member_idx: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """Gains of pair ``(members[member_idx[p]], indices[p])`` for each p.

        ``member_idx`` must be *grouped*: equal members occupy contiguous
        runs (allocators produce the pairs row-major, so this holds by
        construction).  Results are positionally aligned with the input
        pairs and bit-identical to calling each member's ``gain_many`` on
        its run.
        """
        out = np.empty(len(member_idx), dtype=float)
        bounds = member_runs(member_idx)
        for a, b in zip(bounds[:-1], bounds[1:]):
            out[a:b] = self.members[member_idx[a]].gain_many(indices[a:b])
        return out


def member_runs(member_idx: np.ndarray) -> np.ndarray:
    """Run bounds ``[0, ..., len(member_idx)]`` of a member-grouped pair list.

    Run ``r`` is ``member_idx[bounds[r]:bounds[r + 1]]``, all one member —
    which the grouping contract of :meth:`GainBlock.gain_many_block` makes
    the set of touched members, found without hashing the pairs.
    """
    n = len(member_idx)
    if n == 0:
        return np.zeros(1, dtype=np.intp)
    inner = np.flatnonzero(member_idx[1:] != member_idx[:-1]) + 1
    return np.concatenate(([0], inner, [n]))


#: Scalar hooks whose override invalidates an inherited closed-form
#: ``batch`` state: the scalar gain itself (``add`` shares its arithmetic
#: through the same state class, so ``gain`` is the one source of truth).
_GAIN_HOOKS = ("gain",)


def resolve_batch_state(state: "ValuationState", roster: SensorRoster) -> BatchGainState:
    """``state.batch(roster)``, honouring scalar-only ``gain`` overrides.

    First level of the fallback lattice (module docstring): a subclass
    that overrides the scalar :meth:`ValuationState.gain` *without*
    overriding :meth:`ValuationState.batch` must not be routed through its
    base's closed-form batch state, whose stacked arithmetic no longer
    reflects the scalar semantics.  Such states get the generic
    :class:`BatchGainState`, which loops their own ``gain``.
    """
    if batch_hook_trusted(type(state), "batch", _GAIN_HOOKS):
        return state.batch(roster)
    return BatchGainState(state, roster)


def gain_block_trusted(batch_cls: type) -> bool:
    """Whether ``batch_cls``'s ``block`` hook still speaks for ``gain_many``.

    Second level of the fallback lattice: a batch-state subclass that
    overrides ``gain_many`` without overriding the ``block`` classmethod
    must not be fused through its base's stacked block.  Callers build the
    generic row-looping :class:`GainBlock` instead, which honours the
    ``gain_many`` override.
    """
    return batch_hook_trusted(batch_cls, "block", ("gain_many",))


class ValuationState:
    """Incremental evaluation of ``v_q`` while a greedy algorithm grows a set.

    The generic implementation recomputes the full set valuation on every
    :meth:`gain` call, which is always correct; query types with structure
    (max for point queries, coverage masks for aggregates, GP Cholesky
    updates for region monitoring) override for speed.
    """

    def __init__(self, query: "Query") -> None:
        self.query = query
        self.selected: list[SensorSnapshot] = []
        self.value = 0.0

    def gain(self, snapshot: SensorSnapshot) -> float:
        """Marginal gain ``v_q(S + s) - v_q(S)`` without mutating the state."""
        return self.query.value(self.selected + [snapshot]) - self.value

    def add(self, snapshot: SensorSnapshot) -> float:
        """Commit ``snapshot`` to the set; returns the realized gain."""
        gain = self.gain(snapshot)
        self.selected.append(snapshot)
        self.value += gain
        return gain

    def batch(self, roster: SensorRoster) -> BatchGainState:
        """A vectorized gain evaluator over ``roster`` (scalar fallback)."""
        return BatchGainState(self, roster)


class Query(abc.ABC):
    """Base class: identity, budget, lifetime, and the valuation interface."""

    def __init__(self, budget: float, query_id: str | None = None, issued_at: int = 0) -> None:
        if not (math.isfinite(budget) and budget >= 0):
            raise ValueError(f"budget must be finite and non-negative, got {budget}")
        self.budget = budget
        self.query_id = query_id if query_id is not None else new_query_id()
        self.issued_at = issued_at

    # ------------------------------------------------------------------
    # the valuation interface
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def query_type(self) -> QueryType: ...

    @abc.abstractmethod
    def value(self, snapshots: Sequence[SensorSnapshot]) -> float:
        """Set valuation ``v_q(S)`` in currency units."""

    @abc.abstractmethod
    def relevant(self, snapshot: SensorSnapshot) -> bool:
        """Whether the sensor could contribute any value to this query."""

    def relevant_mask(
        self,
        xy: np.ndarray,
        gamma: np.ndarray | None = None,
        trust: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Vectorized ``Q_{l_s}`` prefilter over stacked announcements.

        Args:
            xy: ``(n, 2)`` announced coordinates (column ``j`` is sensor
                ``j`` of the caller's roster/kernel).
            gamma: matching per-sensor inaccuracy column.  Purely geometric
                query types ignore it; quality-gated types require it.
            trust: matching per-sensor trust column (same contract).

        Returns:
            A boolean ``(n,)`` array where entry ``j`` answers
            :meth:`relevant` for sensor ``j``, or ``None`` — the **scalar
            fallback contract**: this query declares no vectorized
            geometry and the caller must fall back to the per-snapshot
            :meth:`relevant` scan.  The base class always returns ``None``
            so user-defined query types stay correct unmodified.
        """
        return None

    def new_state(self) -> ValuationState:
        """Fresh incremental-valuation state (see :class:`ValuationState`)."""
        return ValuationState(self)

    @property
    def max_value(self) -> float:
        """Upper reference value used for quality-of-results reporting.

        For the paper's valuation functions (eqs. 3, 5, 16) this is the
        budget ``B_q``; region monitoring (eq. 7) may exceed it because
        ``F`` is unbounded — the paper's Figure 9(b) shows exactly that.
        """
        return self.budget

    def filter_relevant(self, snapshots: Iterable[SensorSnapshot]) -> list[SensorSnapshot]:
        return [s for s in snapshots if self.relevant(s)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.query_id} budget={self.budget:g}>"
