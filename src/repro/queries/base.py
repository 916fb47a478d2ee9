"""Query abstractions shared by every allocator.

The aggregator treats valuation functions as black boxes (Section 2: "the
aggregator relies on the end users to provide a valuation function
``v_q(.)`` with each query").  Concretely, every query exposes

* :meth:`Query.value` — the set valuation ``v_q(S)`` over sensor snapshots;
* :meth:`Query.relevant` — a cheap spatial prefilter (the paper's ``Q_ls``
  in Algorithm 1: only queries a sensor can contribute to are examined);
* :meth:`Query.gain_block` — the incremental valuation Algorithm 1 keeps
  while it grows the sensor sets (Section 3.2).

The greedy state lives in **gain blocks**.  An allocator stacks one slot's
candidate announcements into a :class:`SensorRoster`, groups the queries by
the :meth:`Query.gain_block` they resolve to and builds one
:class:`GainBlock` per group, passing each member's relevant roster columns
as an argument.  The block owns its members' state: it evaluates the
marginal gains of *many* (query, sensor) pairs in one
:meth:`GainBlock.gain_many_block` pass, and a member's set grows only
through :meth:`GainBlock.commit`, so the gains a block reports always read
the state its own commits left.  The base :class:`GainBlock` is the
generic one: it keeps each member's committed snapshots and value and
evaluates ``v_q(S + s) - v_q(S)`` through :meth:`Query.value`, which keeps
arbitrary user-provided valuation functions correct.  The built-in query
types return stacked closed forms (eq. (4) evaluated on exactly the
requested pairs for the point-flavoured types, covered-cell counts over
the slot raster's CSR rows for the coverage types).  Both allocators
(Greedy and the sequential baseline) reach gains and commits through
these blocks only.

Alongside the gains sits the **batch-relevance protocol**
(:meth:`Query.relevant_mask`): one vectorized pass mapping a slot's stacked
announcement arrays — ``(n, 2)`` coordinates plus the matching inaccuracy
and trust columns — to the boolean ``Q_{l_s}`` prefilter row the scalar
:meth:`Query.relevant` answers per sensor.  Allocators screen every
announced sensor through the mask, so region-heavy slots never materialize
candidate snapshots just to ask whether a sensor could serve a query.

Each :class:`Query` subclass is checked once, when it is defined.
``relevant_mask`` is abstract, so a query type without it cannot be
instantiated, and a class body that defines a scalar hook — ``relevant``,
``value_single`` or ``quality`` — must define ``relevant_mask`` in the same
body, so an inherited batch form never goes stale behind a changed scalar
one.  Likewise a class body that redefines the valuation (``value``,
``value_single`` or ``quality``) without ``gain_block`` gets the generic
block, and one that redefines ``relevant_mask`` without ``reach_box``
reaches the full fleet.  The purely geometric types (aggregate,
trajectory) route their *scalar* predicate through the mask with ``n = 1``
so the two forms cannot disagree even in the final ulp.  The
quality-gated types (point, multi-point, event) keep their historical
``math.hypot`` scalar path; their masks use ``np.hypot``, which can differ
in the last ulp on engineered boundary instances (the same caveat every
built-in gain block documents).
"""

from __future__ import annotations

import abc
import enum
import itertools
import math
from typing import Sequence

import numpy as np

from ..sensors import SensorSnapshot
from ..sensors.state import announcement_batch

__all__ = [
    "QueryType",
    "Query",
    "SensorRoster",
    "GainBlock",
    "member_runs",
    "new_query_id",
    "require_budget",
]


_query_counter = itertools.count()


def new_query_id(prefix: str = "q") -> str:
    """Process-unique query identifier (stable ordering, human readable)."""
    return f"{prefix}{next(_query_counter)}"


def require_budget(budget: float) -> None:
    """Refuse a NaN, infinite or negative query budget."""
    if not (math.isfinite(budget) and budget >= 0):
        raise ValueError(f"budget must be finite and non-negative, got {budget}")


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
    """One allocator call's candidate sensors, stacked for block gains.

    The roster fixes a *column order* — every array a gain block produces
    is indexed by position in ``snapshots`` — and shares the stacked
    coordinate/inaccuracy/trust arrays across all the call's gain blocks,
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
        raster: optional :class:`~repro.spatial.WorldRaster` of the slot
            the roster was cut from — kernels attach it so gain blocks
            share the slot's cached coverage rows and containment passes
            instead of re-rasterizing per query.
        kernel_columns: when the roster is a column subset of a kernel,
            the kernel (world) column index of each roster column —
            ``None`` means the identity mapping.  Raster caches are keyed
            in world columns, so gain blocks translate through this.
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
        self.raster = None
        self.kernel_columns: np.ndarray | None = None

    @property
    def n_sensors(self) -> int:
        return len(self.snapshots)

    @property
    def all_indices(self) -> np.ndarray:
        return np.arange(self.n_sensors, dtype=np.intp)


class GainBlock:
    """One allocator call's greedy state for the queries of one gain type.

    Built by :meth:`Query.gain_block` from its members (``queries``) over
    one shared :class:`SensorRoster`.  The block owns what Algorithm 1
    keeps per query while it grows the sensor sets: each member's value
    ``v_q(S_q)`` (``values``) and whatever its gain arithmetic needs.
    :meth:`gain_many_block` evaluates a whole batch of (member, sensor)
    pairs in one pass, and :meth:`commit` is the only way a member's set
    grows.

    The base implementation is the generic block: it keeps each member's
    committed snapshots (``selected``) and evaluates
    ``query.value(selected + [s]) - value`` per pair — always correct for
    user-defined query types, merely not fused.  Built-in query types
    subclass with stacked closed forms; all but the top-k block keep their
    own state in place of ``selected``.
    """

    def __init__(self, queries: Sequence["Query"], roster: SensorRoster) -> None:
        self.queries = list(queries)
        self.roster = roster
        self.values = np.zeros(len(self.queries), dtype=float)
        self.selected: list[list[SensorSnapshot]] = [[] for _ in self.queries]

    def gain_many_block(
        self, member_idx: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """Gains of pair ``(queries[member_idx[p]], roster column indices[p])``.

        ``member_idx`` must be *grouped*: equal members occupy contiguous
        runs (allocators produce the pairs row-major, so this holds by
        construction).  Results are positionally aligned with the input
        pairs.
        """
        out = np.empty(len(member_idx), dtype=float)
        snapshots = self.roster.snapshots
        bounds = member_runs(member_idx)
        for a, b in zip(bounds[:-1], bounds[1:]):
            u = member_idx[a]
            value, selected, base = self.queries[u].value, self.selected[u], self.values[u]
            out[a:b] = [value(selected + [snapshots[j]]) - base for j in indices[a:b]]
        return out

    def commit(self, member: int, column: int) -> float:
        """Add roster column ``column`` to member ``member``'s set; returns
        the realized gain ``v_q(S + s) - v_q(S)``.

        Allocators commit only pairs relevant to the member's query, as
        they evaluate only those.
        """
        snapshot = self.roster.snapshots[column]
        selected = self.selected[member]
        gain = self.queries[member].value(selected + [snapshot]) - self.values[member]
        selected.append(snapshot)
        self.values[member] += gain
        return float(gain)


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


class Query(abc.ABC):
    """Base class: identity, budget, lifetime, and the valuation interface.

    A subclass that defines ``relevant``, ``value_single`` or ``quality``
    must define :meth:`relevant_mask` too; one that defines
    ``relevant_mask`` without :meth:`reach_box` reaches the full fleet, and
    one that defines ``value``, ``value_single`` or ``quality`` without
    :meth:`gain_block` gets the generic block.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        body = vars(cls)
        for hook in ("relevant", "value_single", "quality"):
            if hook in body and "relevant_mask" not in body:
                raise TypeError(
                    f"{cls.__name__} defines {hook}() but not relevant_mask(); "
                    f"define both in the same class"
                )
        if "relevant_mask" in body and "reach_box" not in body:
            # New relevance voids the inherited reach: the full fleet.
            cls.reach_box = Query.reach_box
        valuation = ("value", "value_single", "quality")
        if "gain_block" not in body and any(hook in body for hook in valuation):
            # A new valuation voids the inherited closed form: the generic block.
            cls.gain_block = vars(Query)["gain_block"]

    def __init__(self, budget: float, query_id: str | None = None, issued_at: int = 0) -> None:
        require_budget(budget)
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

    @abc.abstractmethod
    def relevant_mask(
        self,
        xy: np.ndarray,
        gamma: np.ndarray | None = None,
        trust: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized ``Q_{l_s}`` prefilter over stacked announcements.

        Args:
            xy: ``(n, 2)`` announced coordinates (column ``j`` is sensor
                ``j`` of the caller's roster/kernel).
            gamma: matching per-sensor inaccuracy column.  Purely geometric
                query types ignore it; quality-gated types require it.
            trust: matching per-sensor trust column (same contract).

        Returns:
            A boolean ``(n,)`` array where entry ``j`` answers
            :meth:`relevant` for sensor ``j``.
        """

    def reach_box(self) -> tuple[float, float, float, float] | None:
        """``(x_min, x_max, y_min, y_max)`` holding every sensor position
        :meth:`relevant_mask` can accept, or ``None`` for the full fleet.

        The kernel's candidate views gather only the grid cells this box
        touches, so a box that cuts off a relevant sensor changes
        allocations.  Only rounding may carry relevance past the box, by a
        few ulps: the kernel widens it by
        :data:`~repro.core.valuation.REACH_SLACK` first.  The default is ``None``, and a subclass whose body
        redefines ``relevant_mask`` without ``reach_box`` is reset to it
        when it is defined; one that keeps its base's relevance keeps its
        base's box.
        """
        return None

    @classmethod
    def gain_block(
        cls,
        queries: Sequence["Query"],
        roster: SensorRoster,
        columns: Sequence[np.ndarray],
    ) -> GainBlock:
        """The greedy state of ``queries`` over ``roster``: one gain block.

        Allocators group a call's queries by the ``gain_block`` they resolve
        to and call it once per group, members in query order.
        ``columns[p]`` holds the roster columns relevant to ``queries[p]``
        (the allocator's ``Q_{l_s}`` screen), ascending; blocks that
        precompute per relevant pair read it, the others ignore it.  The
        default is the generic :class:`GainBlock` over :meth:`value`; the
        built-in query types return stacked closed forms.
        """
        return GainBlock(queries, roster)

    @property
    def max_value(self) -> float:
        """Upper reference value used for quality-of-results reporting.

        For the paper's valuation functions (eqs. 3, 5, 16) this is the
        budget ``B_q``; region monitoring (eq. 7) may exceed it because
        ``F`` is unbounded — the paper's Figure 9(b) shows exactly that.
        """
        return self.budget

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.query_id} budget={self.budget:g}>"
