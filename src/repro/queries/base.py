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

On top of the scalar interface sits the **block-gain protocol**: an
allocator stacks one slot's candidate announcements into a
:class:`SensorRoster`, groups the live :class:`ValuationState` objects by
class and asks each group for one :class:`GainBlock`
(:meth:`ValuationState.block`), passing each member's relevant roster
columns as an argument.  The block evaluates the marginal gains of
*many* (query, sensor) pairs of its type in one vectorized
:meth:`GainBlock.gain_many_block` pass, while the scalar states remain the
source of truth for commits (:meth:`ValuationState.add`) — blocks read the
live states on every call, so no synchronization hooks are needed.  The
base :class:`GainBlock` loops the scalar :meth:`ValuationState.gain`,
which keeps arbitrary user-provided valuation functions correct; the
built-in query types override ``block`` with stacked closed forms (eq.
(4) evaluated on exactly the requested pairs for the point-flavoured
types, covered-cell counts over the slot raster's CSR rows for the
coverage types).  Both allocators (Greedy and the sequential baseline)
reach their gains through these blocks only.

Alongside the gains sits the **batch-relevance protocol**
(:meth:`Query.relevant_mask`): one vectorized pass mapping a slot's stacked
announcement arrays — ``(n, 2)`` coordinates plus the matching inaccuracy
and trust columns — to the boolean ``Q_{l_s}`` prefilter row the scalar
:meth:`Query.relevant` answers per sensor.  Allocators screen every
announced sensor through the mask, so region-heavy slots never materialize
candidate snapshots just to ask whether a sensor could serve a query.

The batch hooks *are* the protocol.  ``relevant_mask`` is abstract, so a
query type without it cannot be instantiated, and each subclass of
:class:`Query` or :class:`ValuationState` is checked once, when it is
defined (:func:`_require_batch_sibling`): a class body that defines a
scalar hook — ``relevant``, ``value_single`` or ``quality`` on a query,
``gain`` on a state — must define the batch sibling (``relevant_mask`` /
``block``) in the same body, so an inherited batch form never goes stale
behind a changed scalar one.  The scalar hooks stay the per-pair
definitions that commits (:meth:`ValuationState.add`) and the test
oracles use.  The purely geometric types (aggregate, trajectory) route
their *scalar* predicate through the mask with ``n = 1`` so the two
forms cannot disagree even in the final ulp.  The quality-gated types
(point, multi-point, event) keep their historical ``math.hypot`` scalar
path; their masks use ``np.hypot``, which can differ in the last ulp on
engineered boundary instances (the same caveat every built-in gain block
documents).
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
    "ValuationState",
    "SensorRoster",
    "GainBlock",
    "member_runs",
    "new_query_id",
    "require_budget",
    "touched_members",
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
    """Fused marginal-gain evaluation over the states of one query type.

    One block owns the valuation states (``states``) of every query of one
    type in an allocator call, over one shared :class:`SensorRoster`;
    :meth:`gain_many_block` evaluates a whole batch of (member, sensor)
    pairs in one pass.  Blocks re-read the *live* member states on every
    call, so commits through :meth:`ValuationState.add` need no
    synchronization hooks.  A block may cache derived state between calls
    (the aggregate block keeps uncovered-cell counts), but only state it
    can bring up to date from the live members at the start of each call.

    The base implementation loops each member's scalar
    :meth:`ValuationState.gain` — always correct for user-defined query
    types, merely not fused.  Built-in query types subclass with stacked
    closed forms.
    """

    def __init__(self, states: Sequence["ValuationState"], roster: SensorRoster) -> None:
        self.states = list(states)
        self.roster = roster

    def gain_many_block(
        self, member_idx: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """Gains of pair ``(states[member_idx[p]], roster column indices[p])``.

        ``member_idx`` must be *grouped*: equal members occupy contiguous
        runs (allocators produce the pairs row-major, so this holds by
        construction).  Results are positionally aligned with the input
        pairs.
        """
        out = np.empty(len(member_idx), dtype=float)
        snapshots = self.roster.snapshots
        bounds = member_runs(member_idx)
        for a, b in zip(bounds[:-1], bounds[1:]):
            gain = self.states[member_idx[a]].gain
            out[a:b] = [gain(snapshots[j]) for j in indices[a:b]]
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


def touched_members(member_idx: np.ndarray) -> np.ndarray:
    """The distinct members of a member-grouped pair list, in run order."""
    if len(member_idx) and member_idx[0] == member_idx[-1]:
        # Grouped, so equal ends mean one run: a single-member call.
        return member_idx[:1]
    return member_idx[member_runs(member_idx)[:-1]]


def _require_batch_sibling(cls: type, scalar_hooks: tuple[str, ...], batch_hook: str) -> None:
    """Refuse a class body that defines a scalar hook without its batch sibling.

    Called once per subclass, when it is defined.  A scalar hook changed
    below an inherited batch hook would leave that batch form answering
    for semantics it no longer has; allocators use only the batch form.
    """
    body = vars(cls)
    for hook in scalar_hooks:
        if hook in body and batch_hook not in body:
            raise TypeError(
                f"{cls.__name__} defines {hook}() but not {batch_hook}(); "
                f"define both in the same class"
            )


class ValuationState:
    """Incremental evaluation of ``v_q`` while a greedy algorithm grows a set.

    The generic implementation recomputes the full set valuation on every
    :meth:`gain` call, which is always correct; query types with structure
    (max for point queries, coverage masks for aggregates, GP Cholesky
    updates for region monitoring) override for speed.  A subclass that
    defines ``gain`` must define :meth:`block` too.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _require_batch_sibling(cls, ("gain",), "block")

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

    @classmethod
    def block(
        cls,
        states: Sequence["ValuationState"],
        roster: SensorRoster,
        columns: Sequence[np.ndarray],
    ) -> GainBlock:
        """A fused gain evaluator over same-class ``states`` and ``roster``.

        ``columns[p]`` holds the roster columns relevant to ``states[p]``'s
        query, ascending (the allocator's ``Q_{l_s}`` screen); blocks that
        precompute per relevant pair read it, the others ignore it.  The
        base implementation returns the generic scalar-looping
        :class:`GainBlock`, which is also the right answer for a subclass
        whose ``gain`` has no closed form; built-in states override it
        with stacked closed forms.
        """
        return GainBlock(states, roster)


class Query(abc.ABC):
    """Base class: identity, budget, lifetime, and the valuation interface.

    A subclass that defines ``relevant``, ``value_single`` or ``quality``
    must define :meth:`relevant_mask` too, and one that defines
    ``relevant_mask`` without :meth:`reach_box` reaches the full fleet.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _require_batch_sibling(cls, ("relevant", "value_single", "quality"), "relevant_mask")
        body = vars(cls)
        if "relevant_mask" in body and "reach_box" not in body:
            # New relevance voids the inherited reach: the full fleet.
            cls.reach_box = Query.reach_box

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.query_id} budget={self.budget:g}>"
