"""Point queries (Section 2.2.1): eqs. (3) and (4).

A *single-sensor* point query wants one reading of the phenomenon at a
location ``l_q`` and values a sensor ``s`` by eq. (3)::

    v_q(s) = B_q * theta_{q,s}   if theta_min <= theta_{q,s} <= 1, else 0

where the reading quality (eq. 4) discounts distance, inherent inaccuracy
and trust::

    theta_q(s, l_q) = (1 - gamma_s) * (1 - |l_s - l_q| / dmax) * tau_s
                      if |l_s - l_q| <= dmax, else 0

A *multiple-sensor* point query asks for k redundant readings (e.g. to
assess trustworthiness, Section 2.2.1) and values a set by the average of
its k best qualities scaled by the fill ratio.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sensors import SensorSnapshot
from ..spatial import Location, as_xy
from ..spatial.geometry import require_finite_location, require_positive
from .base import (
    GainBlock,
    Query,
    QueryType,
    SensorRoster,
    ValuationState,
    member_runs,
    touched_members,
)

__all__ = ["pair_quality", "reading_quality", "PointQuery", "MultiSensorPointQuery"]


def reading_quality(snapshot: SensorSnapshot, location: Location, dmax: float) -> float:
    """Eq. (4): quality of a reading from ``snapshot`` for ``location``."""
    require_positive("dmax", dmax)
    distance = snapshot.location.distance_to(location)
    if distance > dmax:
        return 0.0
    return (1.0 - snapshot.inaccuracy) * (1.0 - distance / dmax) * snapshot.trust


def pair_quality(
    xy: np.ndarray,
    gamma: np.ndarray,
    trust: np.ndarray,
    qx: float | np.ndarray,
    qy: float | np.ndarray,
    dmax: float | np.ndarray,
    theta_min: float | np.ndarray,
) -> np.ndarray:
    """Eq. (4) over aligned (sensor, query) pairs, zeroed below ``theta_min``.

    Pair ``k`` is the sensor ``(xy[k], gamma[k], trust[k])`` against the
    query at ``(qx, qy)`` with reach ``dmax`` and cutoff ``theta_min``
    (each either one scalar for every pair or one value per pair).  The
    operation sequence is the scalar :func:`reading_quality`'s,
    ``(1-gamma) * (1-d/dmax)`` then ``* tau``, zeroed beyond ``dmax``; every
    step is elementwise, so a pair has the same bits evaluated alone or in
    a full row.  Distances go through ``np.hypot`` where the scalar path
    uses ``math.hypot``, which may differ in the final ulp (see
    :mod:`repro.core.valuation`).  This is the one vector form of eq. (4):
    the relevance masks, the kernel's sparse eq.-(3) values
    (``budget * pair_quality``) and the point-type gain blocks share it.
    """
    dist = np.hypot(xy[:, 0] - qx, xy[:, 1] - qy)
    theta = (1.0 - gamma) * (1.0 - dist / dmax)
    theta *= trust
    theta[dist > dmax] = 0.0
    theta[theta < theta_min] = 0.0
    return theta


def _query_quality(
    query,
    xy: np.ndarray,
    gamma: np.ndarray | None,
    trust: np.ndarray | None,
) -> np.ndarray:
    """:func:`pair_quality` of ``query`` (``location``, ``dmax``,
    ``theta_min``) against stacked announcements: the relevance masks of
    the quality-gated types (point, multi-point, event slot, location
    monitoring) are this quality, positive."""
    if gamma is None or trust is None:
        raise ValueError(
            f"{type(query).__name__}.relevant_mask needs the gamma and trust "
            "columns: its relevance is quality-gated, not purely geometric"
        )
    location = query.location
    return pair_quality(
        as_xy(xy), gamma, trust, location.x, location.y, query.dmax, query.theta_min
    )


def _dmax_box(query) -> tuple[float, float, float, float]:
    """``location ± dmax``: eq. (4) is zero beyond ``dmax``, so the
    quality-gated types (point, multi-point, event slot) reach no further."""
    location, reach = query.location, query.dmax
    return (
        location.x - reach,
        location.x + reach,
        location.y - reach,
        location.y + reach,
    )


class _PointPairBlock(GainBlock):
    """Gain block over point-flavoured members, evaluated per pair.

    Stacks only the members' parameters (location, reach, cutoff, budget);
    each call evaluates :func:`pair_quality` on exactly the pairs it is
    asked about, so no array is as wide as the roster.
    """

    def __init__(self, states, roster: SensorRoster) -> None:
        super().__init__(states, roster)
        queries = [state.query for state in self.states]
        m = len(queries)
        self._qx = np.fromiter((q.location.x for q in queries), float, m)
        self._qy = np.fromiter((q.location.y for q in queries), float, m)
        self._dmax = np.fromiter((q.dmax for q in queries), float, m)
        self._theta_min = np.fromiter((q.theta_min for q in queries), float, m)
        self._budgets = np.fromiter((q.budget for q in queries), float, m)

    def _pair_quality(self, member_idx: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Gated eq.-(4) quality of each ``(member, roster column)`` pair."""
        roster = self.roster
        return pair_quality(
            roster.xy[indices],
            roster.gamma[indices],
            roster.trust[indices],
            self._qx[member_idx],
            self._qy[member_idx],
            self._dmax[member_idx],
            self._theta_min[member_idx],
        )


class _BestSensorBlock(_PointPairBlock):
    """Fused point-query gains: each pair's eq.-(3) value clipped per member.

    Per pair this is ``max(budget * theta - state.value, 0)``, the scalar
    :meth:`_BestSensorState.gain`; member values are gathered live per
    call, for the touched members only.  Only the value itself can differ
    from the scalar path in the final ulp (``np.hypot`` vs ``math.hypot``).
    """

    def __init__(self, states, roster: SensorRoster) -> None:
        super().__init__(states, roster)
        self._values = np.zeros(len(self.states), dtype=float)

    def gain_many_block(
        self, member_idx: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        values = self._values
        for u in touched_members(member_idx):
            values[u] = self.states[u].value
        value_new = self._budgets[member_idx] * self._pair_quality(member_idx, indices)
        return np.maximum(value_new - values[member_idx], 0.0)


class _BestSensorState(ValuationState):
    """O(1) incremental state for max-semantics point queries."""

    def gain(self, snapshot: SensorSnapshot) -> float:
        return max(0.0, self.query.value_single(snapshot) - self.value)

    def add(self, snapshot: SensorSnapshot) -> float:
        gain = self.gain(snapshot)
        self.selected.append(snapshot)
        self.value += gain
        return gain

    @classmethod
    def block(cls, states, roster: SensorRoster, columns) -> GainBlock:
        return _BestSensorBlock(states, roster)


class _TopKBlock(_PointPairBlock):
    """Fused multi-sensor point-query gains over padded quality rows.

    Each call evaluates the pairs' candidate qualities, then re-sorts
    every touched member's (small) selected-quality list against them,
    padding each pair's row to the widest touched member's selected count
    with ``-1`` sentinels (real qualities are ``>= 0``, so after the
    descending sort the padding sits strictly below every real entry),
    then a row ``cumsum`` — sequential addition, the scalar
    ``sum(sorted(...)[:k])`` order — is sampled at each pair's own
    ``k - 1``.  Only the candidate quality itself can differ from the
    scalar path in the final ulp (``np.hypot`` vs ``math.hypot``).
    """

    def __init__(self, states, roster: SensorRoster) -> None:
        super().__init__(states, roster)
        self._n_readings = np.fromiter(
            (state.query.n_readings for state in self.states), float, len(self.states)
        )

    def gain_many_block(
        self, member_idx: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        states = self.states
        # Pairs arrive member-grouped: one contiguous run per touched member.
        bounds = member_runs(member_idx)
        runs = [
            (int(member_idx[a]), slice(a, b)) for a, b in zip(bounds[:-1], bounds[1:])
        ]
        selected = {}
        for u, _ in runs:
            state = states[u]
            query = state.query
            selected[u] = [query.quality(s) for s in state.selected]
        width = max((len(selected[u]) for u, _ in runs), default=0) + 1
        stacked = np.full((len(member_idx), width), -1.0)
        candidates = self._pair_quality(member_idx, indices)
        k_of = np.empty(len(states), dtype=np.intp)
        values = np.zeros(len(states), dtype=float)
        for u, rows in runs:
            qualities = selected[u]
            if qualities:
                stacked[rows, : len(qualities)] = qualities
            stacked[rows, len(qualities)] = candidates[rows]
            state = states[u]
            k_of[u] = min(state.query.n_readings, len(qualities) + 1)
            values[u] = state.value
        stacked = np.sort(stacked, axis=1)[:, ::-1]
        csum = np.cumsum(stacked, axis=1)
        total = csum[np.arange(len(member_idx)), k_of[member_idx] - 1]
        value_new = self._budgets[member_idx] * total / self._n_readings[member_idx]
        return value_new - values[member_idx]


class _TopKState(ValuationState):
    """Generic scalar state for multi-sensor point queries, plus block gains."""

    @classmethod
    def block(cls, states, roster: SensorRoster, columns) -> GainBlock:
        return _TopKBlock(states, roster)


class PointQuery(Query):
    """Single-sensor point query with the eq. (3) valuation.

    Attributes:
        location: the queried location ``l_q``.
        theta_min: minimum acceptable quality (paper experiments: 0.2).
        dmax: maximum distance at which sensors can provide data (paper:
            5 on RWM, 10 on RNC).
        parent_id: set when the query was generated on behalf of a
            continuous query by Algorithm 2/3 — lets the controllers route
            execution results back.
    """

    def __init__(
        self,
        location: Location,
        budget: float,
        theta_min: float = 0.2,
        dmax: float = 5.0,
        query_id: str | None = None,
        issued_at: int = 0,
        parent_id: str | None = None,
    ) -> None:
        super().__init__(budget, query_id, issued_at)
        if not (0.0 <= theta_min <= 1.0):
            raise ValueError("theta_min must be in [0, 1]")
        require_positive("dmax", dmax)
        require_finite_location("location", location)
        self.location = location
        self.theta_min = theta_min
        self.dmax = dmax
        self.parent_id = parent_id

    @property
    def query_type(self) -> QueryType:
        return QueryType.POINT

    # ------------------------------------------------------------------
    # valuation
    # ------------------------------------------------------------------
    def quality(self, snapshot: SensorSnapshot) -> float:
        """Eq. (4) quality of ``snapshot`` for this query's location."""
        return reading_quality(snapshot, self.location, self.dmax)

    def value_single(self, snapshot: SensorSnapshot) -> float:
        """Eq. (3): the value of one reading."""
        theta = self.quality(snapshot)
        if theta < self.theta_min:
            return 0.0
        return self.budget * theta

    def value(self, snapshots: Sequence[SensorSnapshot]) -> float:
        """A single-sensor query uses the best available reading."""
        if not snapshots:
            return 0.0
        return max(self.value_single(s) for s in snapshots)

    def best_sensor(self, snapshots: Sequence[SensorSnapshot]) -> SensorSnapshot | None:
        """The snapshot achieving :meth:`value`, or None if all worthless."""
        best, best_value = None, 0.0
        for snapshot in snapshots:
            v = self.value_single(snapshot)
            if v > best_value:
                best, best_value = snapshot, v
        return best

    def relevant(self, snapshot: SensorSnapshot) -> bool:
        return self.value_single(snapshot) > 0.0

    def relevant_mask(
        self,
        xy: np.ndarray,
        gamma: np.ndarray | None = None,
        trust: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized :meth:`relevant`: the eq. (3) value row ``> 0``.

        Matches :meth:`~repro.core.valuation.ValuationKernel.sparse_single_values`
        positively/zero-wise (``np.hypot`` path; see the module note on the
        last-ulp caveat versus the scalar ``math.hypot``).
        """
        return self.budget * _query_quality(self, xy, gamma, trust) > 0.0

    reach_box = _dmax_box

    def new_state(self) -> ValuationState:
        return _BestSensorState(self)


class MultiSensorPointQuery(Query):
    """Point query asking for ``k`` redundant readings (Section 2.2.1).

    Values a set ``S`` as ``B_q * (sum of the k best qualities) / k``: the
    budget is attained only with k high-quality readings, extra sensors
    beyond k add nothing, and fewer sensors earn the pro-rated fraction.
    This is a weighted rank-truncated sum — monotone submodular, which the
    property tests verify.
    """

    def __init__(
        self,
        location: Location,
        budget: float,
        n_readings: int,
        theta_min: float = 0.2,
        dmax: float = 5.0,
        query_id: str | None = None,
        issued_at: int = 0,
    ) -> None:
        super().__init__(budget, query_id, issued_at)
        if n_readings < 1:
            raise ValueError("n_readings must be >= 1")
        if not (0.0 <= theta_min <= 1.0):
            raise ValueError("theta_min must be in [0, 1]")
        require_positive("dmax", dmax)
        require_finite_location("location", location)
        self.location = location
        self.n_readings = n_readings
        self.theta_min = theta_min
        self.dmax = dmax

    @property
    def query_type(self) -> QueryType:
        return QueryType.MULTI_POINT

    def quality(self, snapshot: SensorSnapshot) -> float:
        theta = reading_quality(snapshot, self.location, self.dmax)
        return theta if theta >= self.theta_min else 0.0

    def value(self, snapshots: Sequence[SensorSnapshot]) -> float:
        qualities = sorted((self.quality(s) for s in snapshots), reverse=True)
        top = qualities[: self.n_readings]
        return self.budget * sum(top) / self.n_readings

    def relevant(self, snapshot: SensorSnapshot) -> bool:
        return self.quality(snapshot) > 0.0

    def relevant_mask(
        self,
        xy: np.ndarray,
        gamma: np.ndarray | None = None,
        trust: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized :meth:`relevant`: thresholded quality row ``> 0``."""
        return _query_quality(self, xy, gamma, trust) > 0.0

    reach_box = _dmax_box

    def new_state(self) -> ValuationState:
        return _TopKState(self)
