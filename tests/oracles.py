"""Reference implementations the parity suites check production code against.

:class:`~repro.core.GreedyAllocator` runs one code path: the batch-gain
protocol with same-type gain blocks over a paired-CSR relevance.  The
three implementations it grew out of live here as executable oracles,
next to :mod:`legacy_engines`:

* :class:`ScalarGreedyAllocator` — the historical per-pair
  ``ValuationState.gain`` loop over the ``Q_{l_s}`` prefilter
  (:func:`relevant_queries_by_sensor`), on the scalar valuation states
  below;
* :class:`DenseGreedyAllocator` — the dense ``(n_queries, n_sensors)``
  gain-matrix loop with full-height ``cumsum`` net re-sums that the
  paired-CSR core replaced, over the dense relevance rebuilt from the
  setup's CSR (:func:`dense_relevance`);
* :class:`PerRowGreedyAllocator` — that dense loop with every refresh
  going through one per-row ``gain_many`` call per dirty query instead of
  the fused per-type ``gain_many_block`` passes.  The per-row closed
  forms it calls (:func:`row_gains`: :class:`BestSensorRows`,
  :class:`TopKRows`, :class:`CoverageRows`, :class:`EventRows`) are the
  per-query batch states the production gain blocks were fused from, kept
  verbatim.

All three are drop-in allocators (engines, mixes and the baselines' stage
slots accept them), so whole-engine parity runs can swap them in.

The production gain blocks own the greedy state and take commits.  The
scalar states they replaced live here as the commit oracles
(:func:`new_state`): :class:`ValuationState` recomputes ``v_q`` on every
``gain`` (the generic block's arithmetic), and :class:`BestSensorState`,
:class:`TopKState`, :class:`CoverageState` and :class:`EventState` are the
built-in closed forms, keyed by the ``gain_block`` a query resolves to.

:class:`~repro.core.ValuationKernel` resolves relevance through grid
candidate views.  :class:`DenseKernel` is the full-fleet pass it replaced:
every query's view covers every column and point values come from one
broadcast ``(q, n)`` eq.-(3) block.  :func:`compile_kernel_as` makes
spec-built engines run on it.

Algorithm 5 runs in production as a :class:`~repro.core.SlotEngine` slot
built by ``mix_engine`` from a :class:`~repro.core.MixAllocator` or
:class:`~repro.core.BaselineMixAllocator` configuration.  The hand-rolled
per-slot pipelines it replaced live here as :class:`OracleMixAllocator`
and :class:`OracleBaselineMixAllocator` (``allocate_slot`` returning a
:class:`MixOutcome`); :mod:`legacy_engines` drives them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from helpers import relevance_row
from repro.core.allocation import AllocationResult, check_distinct
from repro.core.greedy import GainSetup, GreedyAllocator, gain_setup
from repro.core.mix import BaselineMixAllocator, MixAllocator
from repro.core.monitoring import RegionSlotOutcome
from repro.core.payments import proportionate_shares
from repro.core.valuation import ValuationKernel
from repro.queries import (
    EventSlotQuery,
    LocationMonitoringQuery,
    MultiSensorPointQuery,
    PointQuery,
    Query,
    RegionMonitoringQuery,
    SensorRoster,
    SpatialAggregateQuery,
)
from repro.queries.aggregate import sensor_quality
from repro.sensors import SensorSnapshot

__all__ = [
    "BestSensorRows",
    "BestSensorState",
    "CoverageRows",
    "CoverageState",
    "DenseGreedyAllocator",
    "DenseKernel",
    "EventRows",
    "EventState",
    "MixOutcome",
    "OracleBaselineMixAllocator",
    "OracleMixAllocator",
    "PerRowGreedyAllocator",
    "RowGains",
    "ScalarGreedyAllocator",
    "TopKRows",
    "TopKState",
    "ValuationState",
    "compile_greedy_as",
    "compile_kernel_as",
    "dense_relevance",
    "dense_single_values",
    "new_state",
    "quality_row",
    "relevance",
    "relevant_queries_by_sensor",
    "row_gains",
    "single_value_row",
    "single_values",
]


def single_values(kernel: ValuationKernel, queries: Sequence[PointQuery]) -> np.ndarray:
    """``V[i, j] = PointQuery.value_single`` for every pair, one broadcast pass.

    The full-fleet form of :meth:`ValuationKernel.sparse_single_values`:
    distance via ``hypot`` and multiplication order
    ``((1-gamma) * (1 - d/dmax)) * tau``, then the ``theta >= theta_min``
    cutoff and the budget scaling of eq. (3).
    """
    q, n = len(queries), kernel.n_sensors
    if q == 0 or n == 0:
        return np.zeros((q, n))
    xy = np.array(
        [(query.location.x, query.location.y) for query in queries], dtype=float
    )
    budgets = np.array([query.budget for query in queries], dtype=float)
    theta_mins = np.array([query.theta_min for query in queries], dtype=float)
    dmaxes = np.array([query.dmax for query in queries], dtype=float)
    dist = np.hypot(
        kernel.sensor_xy[None, :, 0] - xy[:, None, 0],
        kernel.sensor_xy[None, :, 1] - xy[:, None, 1],
    )
    theta = (1.0 - kernel.gamma)[None, :] * (1.0 - dist / dmaxes[:, None])
    theta *= kernel.trust[None, :]
    theta[dist > dmaxes[:, None]] = 0.0
    values = budgets[:, None] * theta
    values[theta < theta_mins[:, None]] = 0.0
    return values


def relevance(kernel: ValuationKernel, queries: Sequence[PointQuery]) -> np.ndarray:
    """Boolean ``(q, n)`` matrix of ``PointQuery.relevant`` (value > 0)."""
    return single_values(kernel, queries) > 0.0


def dense_single_values(
    kernel: ValuationKernel, queries: Sequence[PointQuery]
) -> np.ndarray:
    """``kernel.sparse_single_values`` scattered into a ``(q, n)`` matrix."""
    out = np.zeros((len(queries), kernel.n_sensors))
    for i, (idx, vals) in enumerate(kernel.sparse_single_values(queries)):
        out[i, idx] = vals
    return out


class DenseKernel(ValuationKernel):
    """The full-fleet kernel: every candidate view is the whole fleet.

    Point values come from :func:`single_values`' broadcast block, so
    allocators run on it exactly as they ran on the historical dense
    kernel.
    """

    def candidate_indices(self, query: Query) -> np.ndarray:
        return np.arange(self.n_sensors, dtype=np.intp)

    def candidate_view(self, query: Query):
        return (self.candidate_indices(query), self.sensor_xy, self.gamma, self.trust)

    def sparse_single_values(self, queries):
        every = np.arange(self.n_sensors, dtype=np.intp)
        return [(every, row) for row in single_values(self, queries)]


def relevant_queries_by_sensor(
    queries: Sequence[Query],
    sensors: Sequence[SensorSnapshot],
    kernel: ValuationKernel | None = None,
) -> dict[int, list[str]]:
    """The paper's ``Q_{l_s}`` prefilter: per sensor, its relevant query ids.

    With a slot kernel the single-sensor point queries are screened in one
    vectorized pass; other query types fall back to their scalar
    ``relevant``.  Query order within each sensor's list matches the input
    order exactly, as the greedy settlement depends on it.
    """
    relevant: dict[int, list[str]] = {}
    plain_points = (
        [(i, q) for i, q in enumerate(queries) if type(q) is PointQuery]
        if kernel is not None and kernel.matches(sensors)
        else []
    )
    if plain_points:
        rel = relevance(kernel, [q for _, q in plain_points])
        point_pos = np.asarray([i for i, _ in plain_points], dtype=np.intp)
        others = [(i, q) for i, q in enumerate(queries) if type(q) is not PointQuery]
        for j, snapshot in enumerate(sensors):
            indices = list(point_pos[rel[:, j]])
            indices.extend(i for i, q in others if q.relevant(snapshot))
            indices.sort()
            if indices:
                relevant[snapshot.sensor_id] = [queries[i].query_id for i in indices]
    else:
        for snapshot in sensors:
            qids = [q.query_id for q in queries if q.relevant(snapshot)]
            if qids:
                relevant[snapshot.sensor_id] = qids
    return relevant


# ----------------------------------------------------------------------
# scalar valuation states: the commit oracles of the gain blocks
# ----------------------------------------------------------------------
class ValuationState:
    """Incremental evaluation of ``v_q`` while a greedy algorithm grows a set.

    The generic implementation recomputes the full set valuation on every
    :meth:`gain` call, which is always correct; the built-in query types'
    subclasses below carry the closed forms their gain blocks were fused
    from.
    """

    def __init__(self, query: Query) -> None:
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


class BestSensorState(ValuationState):
    """O(1) incremental state for max-semantics point queries."""

    def gain(self, snapshot: SensorSnapshot) -> float:
        return max(0.0, self.query.value_single(snapshot) - self.value)


class TopKState(ValuationState):
    """Generic scalar state for multi-sensor point queries."""


class CoverageState(ValuationState):
    """Incremental eq.-(5) evaluation via accumulated coverage masks.

    Keeps the bit-mask of covered cells, the quality sum and the member
    count; a marginal gain is then one ``mask_for`` call plus O(#cells)
    boolean arithmetic instead of a full re-rasterization of the set.
    """

    def __init__(self, query: SpatialAggregateQuery) -> None:
        super().__init__(query)
        self._mask = np.zeros(query.coverage.cell_count, dtype=bool)
        self._quality_sum = 0.0

    def _value_with(self, extra_mask: np.ndarray | None, extra_quality: float | None) -> float:
        covered = self._mask if extra_mask is None else (self._mask | extra_mask)
        count = len(self.selected) + (0 if extra_quality is None else 1)
        if count == 0:
            return 0.0
        quality_sum = self._quality_sum + (extra_quality or 0.0)
        n_cells = self.query.coverage.cell_count
        coverage = covered.sum() / n_cells if n_cells else 0.0
        return self.query.budget * coverage * (quality_sum / count)

    def gain(self, snapshot: SensorSnapshot) -> float:
        if self.query.relevant(snapshot):
            mask = self.query.coverage.mask_for(snapshot.location)
            quality = sensor_quality(snapshot)
        else:
            mask, quality = None, 0.0
        return self._value_with(mask, quality) - self.value

    def add(self, snapshot: SensorSnapshot) -> float:
        before = self.value
        if self.query.relevant(snapshot):
            self._mask |= self.query.coverage.mask_for(snapshot.location)
            self._quality_sum += sensor_quality(snapshot)
        self.selected.append(snapshot)
        self.value = self._value_with(None, None)
        return self.value - before


class EventState(ValuationState):
    """Incremental event-slot valuation: one running failure product.

    Tracks ``prod(1 - theta_i)`` over the committed witnesses with
    positive quality — the same multiplication sequence the scalar
    :meth:`EventSlotQuery.value` performs from scratch.
    """

    def __init__(self, query: EventSlotQuery) -> None:
        super().__init__(query)
        self._failure_prod = 1.0

    def _value_at(self, failure_prod: float) -> float:
        confidence = 1.0 - failure_prod
        return self.query.budget * min(
            1.0, confidence / self.query.required_confidence
        )

    def _prod_with(self, snapshot: SensorSnapshot) -> float:
        theta = self.query.quality(snapshot)
        if theta > 0:
            return self._failure_prod * (1.0 - theta)
        return self._failure_prod

    def gain(self, snapshot: SensorSnapshot) -> float:
        return self._value_at(self._prod_with(snapshot)) - self.value

    def add(self, snapshot: SensorSnapshot) -> float:
        prod = self._prod_with(snapshot)
        gain = self._value_at(prod) - self.value
        self._failure_prod = prod
        self.selected.append(snapshot)
        self.value += gain
        return gain


#: the gain block a built-in query type resolves to -> its scalar state
_STATES = {
    PointQuery.gain_block.__func__: BestSensorState,
    MultiSensorPointQuery.gain_block.__func__: TopKState,
    SpatialAggregateQuery.gain_block.__func__: CoverageState,
    EventSlotQuery.gain_block.__func__: EventState,
}


def new_state(query: Query) -> ValuationState:
    """``query``'s scalar oracle state: the closed form of the built-in
    gain block its type resolves to, else the generic recomputation."""
    return _STATES.get(type(query).gain_block.__func__, ValuationState)(query)


class ScalarGreedyAllocator(GreedyAllocator):
    """Algorithm 1 as a per-pair loop: the batch path's reference.

    Caches each sensor's (net utility, per-query positive gains) and, after
    a commit, re-evaluates only sensors sharing a query that just grew.
    Gains are summed with Python ``sum`` in relevant-query order — the
    addition order the batch path's per-column re-sum reproduces.
    """

    name = "Greedy (scalar oracle)"

    def allocate(
        self,
        queries: Sequence[Query],
        sensors: Sequence[SensorSnapshot],
        kernel: ValuationKernel | None = None,
    ) -> AllocationResult:
        check_distinct(queries, sensors)
        result = AllocationResult()
        if queries and len(sensors):
            self._allocate_scalar(queries, sensors, kernel, result)
        result.verify()
        return result

    def _allocate_scalar(
        self,
        queries: Sequence[Query],
        sensors: Sequence[SensorSnapshot],
        kernel: ValuationKernel | None,
        result: AllocationResult,
    ) -> None:
        states: dict[str, ValuationState] = {q.query_id: new_state(q) for q in queries}
        queries_by_id = {q.query_id: q for q in queries}

        # The paper's Q_{l_s}: only queries a sensor could possibly serve.
        relevant = relevant_queries_by_sensor(queries, sensors, kernel)
        remaining: dict[int, SensorSnapshot] = {
            s.sensor_id: s for s in sensors if s.sensor_id in relevant
        }

        # Cached (net utility, per-query positive gains); recomputed lazily.
        cache: dict[int, tuple[float, dict[str, float]]] = {}
        dirty = set(remaining)

        while remaining:
            for sid in dirty:
                if sid not in remaining:
                    continue
                snapshot = remaining[sid]
                gains: dict[str, float] = {}
                for qid in relevant[sid]:
                    gain = states[qid].gain(snapshot)
                    if gain > self.min_gain:
                        gains[qid] = gain
                cache[sid] = (sum(gains.values()) - snapshot.cost, gains)
            dirty.clear()

            best_sid = max(remaining, key=lambda sid: cache[sid][0])
            best_net, best_gains = cache[best_sid]
            if best_net <= 0.0 or not best_gains:
                break

            snapshot = remaining.pop(best_sid)
            cache.pop(best_sid, None)
            shares = proportionate_shares(best_gains, snapshot.cost)
            for qid, gain in best_gains.items():
                realized = states[qid].add(snapshot)
                if abs(realized - gain) > 1e-6 * max(1.0, abs(gain)):
                    raise RuntimeError(
                        f"query {qid} marginal gain drifted: cached {gain}, "
                        f"realized {realized}"
                    )
                result.record(queries_by_id[qid], snapshot, gain, shares[qid])

            # Invalidate sensors sharing any query that just grew.
            touched = set(best_gains)
            for sid in remaining:
                if touched.intersection(relevant[sid]):
                    dirty.add(sid)


# ----------------------------------------------------------------------
# per-row closed forms: one query's gains against many roster columns
# ----------------------------------------------------------------------
def quality_row(query, roster: SensorRoster) -> np.ndarray:
    """Eq. (4) of ``query`` against every roster column, as one dense row.

    The roster-wide formula the point-type gain blocks were built on, kept
    here independently of the production per-pair evaluation.
    """
    xy = roster.xy
    dist = np.hypot(xy[:, 0] - query.location.x, xy[:, 1] - query.location.y)
    theta = (1.0 - roster.gamma) * (1.0 - dist / query.dmax)
    theta *= roster.trust
    theta[dist > query.dmax] = 0.0
    return theta


def single_value_row(query, roster: SensorRoster) -> np.ndarray:
    """Eq. (3) value of a point query against every roster column."""
    theta = quality_row(query, roster)
    values = query.budget * theta
    values[theta < query.theta_min] = 0.0
    return values


class RowGains:
    """Vectorized marginal-gain view of one query over a fixed roster.

    The base implementation falls back to the scalar
    :meth:`ValuationState.gain` per candidate — always correct, never
    fast.  :func:`row_gains` returns the closed-form subclasses for the
    built-in oracle states.

    Row views hold a reference to the *live* scalar state and re-read it
    on every :meth:`gain_many` call, so commits through
    :meth:`ValuationState.add` are picked up automatically.
    """

    def __init__(self, state: ValuationState, roster: SensorRoster) -> None:
        self.state = state
        self.roster = roster

    def gain_many(self, indices: np.ndarray) -> np.ndarray:
        """Marginal gains of ``roster.snapshots[j]`` for each ``j`` in order."""
        gain = self.state.gain
        snapshots = self.roster.snapshots
        return np.asarray([gain(snapshots[j]) for j in indices], dtype=float)


class BestSensorRows(RowGains):
    """Point-query batch gains: one value row clipped at the current best."""

    def __init__(self, state, roster: SensorRoster) -> None:
        super().__init__(state, roster)
        self._row = single_value_row(state.query, roster)

    def gain_many(self, indices: np.ndarray) -> np.ndarray:
        return np.maximum(self._row[indices] - self.state.value, 0.0)


class TopKRows(RowGains):
    """Multi-sensor point-query batch gains: vectorized top-k average.

    Re-sorts the (small) selected-quality list against every candidate
    quality at once and sums the k best columns *sequentially*, which
    replicates the scalar ``sum(sorted(...)[:k])`` addition order exactly;
    only the candidate quality itself can differ from the scalar path in
    the final ulp (``np.hypot`` vs ``math.hypot``).
    """

    def __init__(self, state, roster: SensorRoster) -> None:
        super().__init__(state, roster)
        query = state.query
        theta = quality_row(query, roster)
        theta[theta < query.theta_min] = 0.0
        self._qualities = theta

    def gain_many(self, indices: np.ndarray) -> np.ndarray:
        state = self.state
        query = state.query
        selected = [query.quality(s) for s in state.selected]
        m = len(selected)
        stacked = np.empty((len(indices), m + 1), dtype=float)
        stacked[:, :m] = selected
        stacked[:, m] = self._qualities[indices]
        stacked = np.sort(stacked, axis=1)[:, ::-1]
        k = min(query.n_readings, m + 1)
        total = stacked[:, 0].copy()
        for j in range(1, k):
            total += stacked[:, j]
        value_new = query.budget * total / query.n_readings
        return value_new - state.value


class CoverageRows(RowGains):
    """Aggregate-query batch gains via a stacked coverage-mask matrix.

    Built once per allocator call: an ``(n_relevant, n_cells)`` boolean
    matrix of per-candidate coverage masks plus the ``(1-gamma)*tau``
    quality column.  A :meth:`gain_many` round is then pure boolean/array
    arithmetic against the live state's accumulated mask — integer cell
    counts and the exact eq.-(5) operation order keep every gain
    bit-identical to the scalar :meth:`CoverageState.gain`.
    """

    def __init__(self, state, roster: SensorRoster) -> None:
        super().__init__(state, roster)
        relevant = relevance_row(state.query, roster)
        self._relevant = relevant
        self._rel_idx = np.flatnonzero(relevant)
        # Row index into the mask matrix per roster column (-1: irrelevant).
        self._mask_row = np.full(roster.n_sensors, -1, dtype=np.intp)
        self._mask_row[self._rel_idx] = np.arange(len(self._rel_idx))
        self._masks: np.ndarray | None = None
        self._quality = (1.0 - roster.gamma) * roster.trust

    @property
    def masks(self) -> np.ndarray:
        """``(n_relevant, n_cells)`` per-candidate coverage masks (lazy)."""
        if self._masks is None:
            self._masks = self.state.query.coverage.masks_for(
                self.roster.xy[self._rel_idx]
            )
        return self._masks

    def gain_many(self, indices: np.ndarray) -> np.ndarray:
        state = self.state
        query = state.query
        n_cells = query.coverage.cell_count
        count = len(state.selected) + 1
        base_covered = int(state._mask.sum())
        counts = np.full(len(indices), base_covered, dtype=np.int64)
        quality_sums = np.full(len(indices), state._quality_sum, dtype=float)
        rel_pos = np.flatnonzero(self._relevant[indices])
        if rel_pos.size:
            rel_cols = indices[rel_pos]
            rows = self.masks[self._mask_row[rel_cols]]
            counts[rel_pos] += (rows & ~state._mask).sum(axis=1)
            quality_sums[rel_pos] = state._quality_sum + self._quality[rel_cols]
        coverage = counts / n_cells if n_cells else np.zeros(len(indices))
        value_new = (query.budget * coverage) * (quality_sums / count)
        return value_new - state.value


class EventRows(RowGains):
    """Event-slot batch gains via the running ``prod(1 - theta)`` update.

    The live state already carries the witness-failure product over the
    committed witnesses, so a candidate's new confidence is one multiply:
    ``1 - prod * (1 - theta_cand)``.
    """

    def __init__(self, state, roster: SensorRoster) -> None:
        super().__init__(state, roster)
        query = state.query
        theta = quality_row(query, roster)
        theta[theta < query.theta_min] = 0.0
        self._qualities = theta

    def gain_many(self, indices: np.ndarray) -> np.ndarray:
        state = self.state
        query = state.query
        theta = self._qualities[indices]
        confidence = 1.0 - state._failure_prod * (1.0 - theta)
        value_new = query.budget * np.minimum(
            1.0, confidence / query.required_confidence
        )
        return value_new - state.value


#: built-in oracle state -> its per-row closed form
_ROW_FORMS = {
    BestSensorState: BestSensorRows,
    TopKState: TopKRows,
    CoverageState: CoverageRows,
    EventState: EventRows,
}


def row_gains(state: ValuationState, roster: SensorRoster) -> RowGains:
    """``state``'s per-row gain view over ``roster``: a built-in oracle
    state's closed form, the scalar loop for the generic state."""
    return _ROW_FORMS.get(type(state), RowGains)(state, roster)


class DenseGreedyAllocator(GreedyAllocator):
    """The dense gain-matrix loop the paired-CSR core replaced.

    Keeps a full ``(n_queries, n_sensors)`` gain matrix over the dense
    relevance rebuilt from the setup's CSR, refreshes every relevant live
    pair of the dirty rows through ``relevance[np.ix_(rows, live)]``, and
    re-accumulates dirty columns' nets with a full-height ``cumsum``.  The
    sparse core must match it bit-for-bit.

    Each commit goes through the setup's gain block and through the
    query's scalar oracle state (``setup.states``, which the per-row
    oracle reads), and fails loudly when the two realized gains drift
    apart.
    """

    name = "Greedy (dense oracle)"

    def _allocate_batch(
        self,
        queries: list[Query],
        sensors,
        kernel: ValuationKernel | None,
        result: AllocationResult,
    ) -> None:
        setup = gain_setup(queries, sensors, kernel)
        if setup is None:
            return
        setup.relevance = dense_relevance(setup)
        setup.states = [new_state(q) for q in queries]
        roster, relevance, costs = setup.roster, setup.relevance, setup.costs
        n = roster.n_sensors
        gain_matrix = np.zeros((len(queries), n), dtype=float)
        alive = np.ones(n, dtype=bool)
        all_indices = roster.all_indices
        # Initial fill.  Point-query pairs take the setup's per-entry kernel
        # values (empty state: the marginal gain IS the single value),
        # scattered into the matrix in one pass; other query types fill
        # via their gain blocks, one fused pass per type.
        entries = setup.point_entries
        values = setup.point_values
        gain_matrix[setup.entry_rows[entries], setup.entry_cols[entries]] = np.where(
            values > self.min_gain, values, 0.0
        )
        nonpoint_rows = [
            i
            for i, query in enumerate(queries)
            if type(query) is not PointQuery and relevance[i].any()
        ]
        self._refresh_rows(gain_matrix, setup, nonpoint_rows, all_indices)
        net = np.empty(n, dtype=float)
        self._recompute_net(gain_matrix, costs, all_indices, net)

        while alive.any():
            candidate_net = np.where(alive, net, -np.inf)
            j = int(np.argmax(candidate_net))
            column = gain_matrix[:, j]
            benefiting = np.flatnonzero(column)
            if net[j] <= 0.0 or benefiting.size == 0:
                break

            snapshot = roster.snapshots[j]
            gains = {queries[i].query_id: float(column[i]) for i in benefiting}
            shares = proportionate_shares(gains, snapshot.cost)
            for i in benefiting:
                qid = queries[i].query_id
                committed = setup.commit(i, j)
                realized = setup.states[i].add(snapshot)
                if abs(realized - committed) > 1e-6 * max(1.0, abs(committed)):
                    raise RuntimeError(
                        f"query {qid} marginal gain drifted: block {committed}, "
                        f"oracle state {realized}"
                    )
                result.record(queries[i], snapshot, gains[qid], shares[qid])
            alive[j] = False

            # Masked recomputation: only the rows that just grew, only the
            # still-live columns; then re-accumulate the nets of sensors
            # sharing any touched query.
            live = np.flatnonzero(alive)
            if live.size == 0:
                break
            self._refresh_rows(gain_matrix, setup, benefiting, live)
            dirty = relevance[benefiting].any(axis=0)
            dirty &= alive
            dirty_cols = np.flatnonzero(dirty)
            if dirty_cols.size:
                self._recompute_net(gain_matrix, costs, dirty_cols, net)

    def _refresh_rows(
        self,
        gain_matrix: np.ndarray,
        setup: GainSetup,
        rows: Sequence[int] | np.ndarray,
        columns: np.ndarray,
    ) -> None:
        """Re-evaluate ``rows``' gains against ``columns``.

        All dirty relevant (query, sensor) pairs are gathered at once and
        dispatched as one ``gain_many_block`` call per touched block;
        ``np.nonzero`` emits pairs in row-major order and block members
        follow query order, so each block's pairs arrive member-grouped.
        """
        row_block, member_pos, blocks = setup.row_block, setup.member_pos, setup.blocks
        row_idx = np.asarray(rows, dtype=np.intp)
        r_pos, c_pos = np.nonzero(setup.relevance[np.ix_(row_idx, columns)])
        if r_pos.size == 0:
            return
        pair_rows = row_idx[r_pos]
        pair_cols = columns[c_pos]
        pair_block = row_block[pair_rows]
        for b in np.unique(row_block[row_idx]):
            in_block = pair_block == b
            if not in_block.any():
                continue
            pr = pair_rows[in_block]
            pc = pair_cols[in_block]
            gains = blocks[b].gain_many_block(member_pos[pr], pc)
            gain_matrix[pr, pc] = np.where(gains > self.min_gain, gains, 0.0)

    @staticmethod
    def _recompute_net(
        gain_matrix: np.ndarray,
        costs: np.ndarray,
        columns: np.ndarray,
        net: np.ndarray,
    ) -> None:
        """Net utility of ``columns``, re-accumulated in query order by one
        full-height ``cumsum`` down the query axis."""
        sub = gain_matrix[:, columns]
        np.cumsum(sub, axis=0, out=sub)
        net[columns] = sub[-1] - costs[columns]


def dense_relevance(setup: GainSetup) -> np.ndarray:
    """The setup's CSR relevance as a dense ``(n_queries, n)`` bool matrix."""
    relevance = np.zeros((len(setup.row_ptr) - 1, setup.roster.n_sensors), dtype=bool)
    relevance[setup.entry_rows, setup.entry_cols] = True
    return relevance


class PerRowGreedyAllocator(DenseGreedyAllocator):
    """The dense loop with per-row ``gain_many`` refreshes: no gain blocks.

    Every dirty query re-evaluates its relevant live columns with its own
    :func:`row_gains` view; the fused block evaluators must match it
    bit-for-bit.
    """

    name = "Greedy (per-row oracle)"

    def _refresh_rows(self, gain_matrix, setup, rows, columns):
        # One row view per query, built on the setup's first refresh.
        if getattr(self, "_setup", None) is not setup:
            self._setup = setup
            self._rows = [row_gains(state, setup.roster) for state in setup.states]
        for row in rows:
            # Only the query's *relevant* columns are evaluated — irrelevant
            # entries are zero-initialized and never change.
            targets = columns[setup.relevance[row, columns]]
            if targets.size == 0:
                continue
            gains = self._rows[row].gain_many(targets)
            gain_matrix[row, targets] = np.where(gains > self.min_gain, gains, 0.0)


def compile_greedy_as(monkeypatch, allocator_cls) -> None:
    """Make scenario specs compile their ``"greedy"`` allocator as
    ``allocator_cls`` for the rest of the test (or ``monkeypatch`` scope).

    :meth:`~repro.datasets.ScenarioSpec.build` imports the allocator class
    at call time, so every engine built while the patch is active — the
    service's and the offline replay's — runs the oracle.
    """
    monkeypatch.setattr("repro.core.greedy.GreedyAllocator", allocator_cls)


def compile_kernel_as(monkeypatch, kernel_cls) -> None:
    """Make engines and allocators build their slot kernels as
    ``kernel_cls`` for the rest of the test (or ``monkeypatch`` scope).

    Patches the module-level ``ValuationKernel`` name every kernel builder
    resolves at call time; a kernel handed down from the engine is reused
    by the allocators as-is.
    """
    for module in ("engine", "greedy", "baselines", "point_problem"):
        monkeypatch.setattr(f"repro.core.{module}.ValuationKernel", kernel_cls)


# ----------------------------------------------------------------------
# Algorithm 5 as a hand-rolled per-slot pipeline
# ----------------------------------------------------------------------
@dataclass
class MixOutcome:
    """Everything the accounting layer needs from one mixed slot."""

    result: AllocationResult
    lm_children: list[PointQuery] = field(default_factory=list)
    rm_children: list[PointQuery] = field(default_factory=list)
    lm_samples: int = 0
    lm_value_delta: float = 0.0
    rm_outcomes: list[RegionSlotOutcome] = field(default_factory=list)

    @property
    def child_ids(self) -> set[str]:
        ids = {c.query_id for c in self.lm_children}
        ids.update(c.query_id for c in self.rm_children)
        return ids

    @property
    def total_utility(self) -> float:
        """Slot social welfare: one-shot + monitoring values minus costs.

        Monitoring children's allocated values are replaced by the realized
        quantities: the parents' eq. 16 value deltas for location
        monitoring, and the achieved slot values (which include the shared
        ``A_{r,t}`` sensors) for region monitoring.
        """
        child_ids = self.child_ids
        one_shot = sum(
            v for qid, v in self.result.values.items() if qid not in child_ids
        )
        rm_value = sum(o.achieved_value for o in self.rm_outcomes)
        return one_shot + self.lm_value_delta + rm_value - self.result.total_cost


class OracleMixAllocator(MixAllocator):
    """Algorithm 5's four stages as one hand-rolled slot call."""

    def allocate_slot(
        self,
        t: int,
        point_queries: Sequence[PointQuery],
        aggregate_queries: Sequence[Query],
        lm_queries: Sequence[LocationMonitoringQuery],
        rm_queries: Sequence[RegionMonitoringQuery],
        sensors: Sequence[SensorSnapshot],
        kernel: ValuationKernel | None = None,
    ) -> MixOutcome:
        # Stage 1: point-query creation for continuous queries.
        lm_children = self.lm_controller.create_point_queries(lm_queries, t)
        rm_children, plans = self.rm_controller.create_point_queries(
            rm_queries, sensors, t
        )
        # Stage 2: joint sensor selection over every query at once.
        all_queries: list[Query] = []
        all_queries.extend(aggregate_queries)
        all_queries.extend(point_queries)
        all_queries.extend(lm_children)
        all_queries.extend(rm_children)
        result = self.joint.allocate(all_queries, sensors, kernel=kernel)
        # Stage 3: apply the outcomes to the continuous queries.
        lm_samples, lm_value_delta = self.lm_controller.apply_results(
            lm_queries, lm_children, result, t
        )
        rm_outcomes = self.rm_controller.apply_results(
            rm_queries, rm_children, plans, result, t
        )
        # Stage 4: payment adjustment for the shared-sensor contributions.
        self.rm_controller.adjust_payments(result, rm_outcomes)
        result.verify()
        return MixOutcome(
            result=result,
            lm_children=lm_children,
            rm_children=rm_children,
            lm_samples=lm_samples,
            lm_value_delta=lm_value_delta,
            rm_outcomes=rm_outcomes,
        )


class OracleBaselineMixAllocator(BaselineMixAllocator):
    """The Section 4.7 sequential baseline as one hand-rolled slot call."""

    def allocate_slot(
        self,
        t: int,
        point_queries: Sequence[PointQuery],
        aggregate_queries: Sequence[Query],
        lm_queries: Sequence[LocationMonitoringQuery],
        rm_queries: Sequence[RegionMonitoringQuery],
        sensors: Sequence[SensorSnapshot],
        kernel: ValuationKernel | None = None,
    ) -> MixOutcome:
        result = AllocationResult()
        stage1 = self.aggregate_stage.allocate(
            list(aggregate_queries), sensors, kernel=kernel
        )
        result.merge(stage1)

        # Stage-1 sensors are buffered: re-announce them at zero cost.
        zeroed = {
            sid: SensorSnapshot(
                sensor_id=snap.sensor_id,
                location=snap.location,
                cost=0.0,
                inaccuracy=snap.inaccuracy,
                trust=snap.trust,
            )
            for sid, snap in stage1.selected.items()
        }
        stage2_sensors = [zeroed.get(s.sensor_id, s) for s in sensors]

        lm_children = self.lm_controller.create_point_queries(lm_queries, t)
        rm_children, plans = self.rm_controller.create_point_queries(
            rm_queries, stage2_sensors, t
        )
        stage2_queries: list[Query] = list(point_queries) + lm_children + rm_children
        stage2 = self.point_stage.allocate(stage2_queries, stage2_sensors, kernel=kernel)

        lm_samples, lm_value_delta = self.lm_controller.apply_results(
            lm_queries, lm_children, stage2, t
        )
        rm_outcomes = self.rm_controller.apply_results(
            rm_queries, rm_children, plans, stage2, t
        )

        # Merge stage 2, restoring original cost snapshots so the combined
        # ledger still shows each sensor recovering its true cost (paid
        # once, in stage 1).
        restored = AllocationResult(
            selected={
                sid: (stage1.selected[sid] if sid in stage1.selected else snap)
                for sid, snap in stage2.selected.items()
            },
            assignments=stage2.assignments,
            values=stage2.values,
            payments=stage2.payments,
        )
        result.merge(restored)
        result.verify()
        return MixOutcome(
            result=result,
            lm_children=lm_children,
            rm_children=rm_children,
            lm_samples=lm_samples,
            lm_value_delta=lm_value_delta,
            rm_outcomes=rm_outcomes,
        )
