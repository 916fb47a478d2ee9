"""Greedy multi-query sensor selection — Algorithm 1 (Section 3.2).

At every step the algorithm picks the sensor maximizing the *partial
overall utility*: the sum over queries of its positive marginal valuations,
minus its cost.  The selected sensor's cost is split among the benefiting
queries in proportion to their marginal gains (line 10), which yields
Theorem 1's guarantees:

1. telescoping — each query's recorded value equals ``v_q(S_q)``;
2. positive total utility whenever anything was selected;
3. non-negative individual query utility;
4. ``O(|Q| |S|^2)`` valuation calls.

The allocator drives the queries' block-gain protocol
(:meth:`~repro.queries.ValuationState.block`) over one shared setup
(:func:`gain_setup`: relevance, roster, value/relevance rows, states and
per-type :class:`~repro.queries.GainBlock` stacks), which the sequential
baseline builds the same way.  A dense ``(n_queries, n_sensors)`` gain
matrix is filled once and only the *dirty* rows — queries that received a
sensor in the previous round — are re-evaluated after each commit, with
one ``gain_many_block`` call per query *type*.  Per-sensor net utilities
are re-accumulated for the affected columns with a sequential
(``cumsum``) pass in query order, which reproduces the pseudo-code's
per-sensor ``sum`` addition order bit-for-bit, so the parity suites can
require identical sensors and cost shares against a per-pair
``ValuationState.gain`` reference loop.

One exact optimization over the pseudo-code: a sensor's cached marginal
sum only changes when one of *its* relevant queries received a new sensor,
so after committing sensor ``a`` only the pairs whose relevant-query sets
intersect ``Q_a`` are re-evaluated (this is the paper's ``Q_{l_s}``
pre-filtering taken to its logical end; it changes nothing about which
sensor wins each round).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..queries import PointQuery, Query, ValuationState
from ..queries.base import (
    GainBlock,
    SensorRoster,
    build_gain_block,
    resolve_relevant_mask,
)
from ..sensors import AnnouncementBatch, SensorSnapshot
from .allocation import AllocationResult, check_distinct
from .payments import proportionate_shares
from .valuation import ValuationKernel

__all__ = ["GainSetup", "GreedyAllocator", "gain_setup"]


class GainSetup:
    """One allocator call's gain machinery, shared by Greedy and Baseline.

    Attributes:
        roster: the candidate sensors — every announced column relevant to
            at least one query (the paper's ``Q_{l_s}`` taken per sensor),
            ascending.  Every array below is indexed by roster position.
        relevance: ``(n_queries, n)`` boolean relevance rows, query order.
        costs: the announced cost of each roster column.
        states: the live :class:`~repro.queries.ValuationState` of each
            query, query order.
        plain_idx: the rows of the plain :class:`~repro.queries.PointQuery`
            queries, whose eq.-(3) values are ``point_values`` (one row
            each, also parked on the roster as its value rows).
        row_block, member_pos, blocks: query row ``i`` is member
            ``member_pos[i]`` of gain block ``blocks[row_block[i]]``.
    """

    def __init__(
        self,
        roster: SensorRoster,
        relevance: np.ndarray,
        costs: np.ndarray,
        states: list[ValuationState],
        plain_idx: list[int],
        point_values: np.ndarray,
    ) -> None:
        self.roster = roster
        self.relevance = relevance
        self.costs = costs
        self.states = states
        self.plain_idx = plain_idx
        self.point_values = point_values
        self.row_block, self.member_pos, self.blocks = _build_blocks(states, roster)

    def row_gains(self, row: int, columns: np.ndarray) -> np.ndarray:
        """Query ``row``'s marginal gains against the roster ``columns``
        (relevant columns only), through its gain block."""
        member = np.full(len(columns), self.member_pos[row], dtype=np.intp)
        return self.blocks[self.row_block[row]].gain_many_block(member, columns)


def gain_setup(
    queries: list[Query],
    sensors: AnnouncementBatch,
    kernel: ValuationKernel | None,
) -> GainSetup | None:
    """Relevance, roster, value/relevance rows, states and gain blocks of
    one allocator call; ``None`` when no sensor is relevant to any query.

    Relevance goes through the kernel's candidate views (the paper's
    ``Q_{l_s}`` pre-filter): one fused eq.-(3) pass over the plain point
    queries' (query, candidate) pairs — whose values double as their gain
    rows — and one vectorized ``relevant_mask`` pass per other query over
    its memoized candidate block.  The scalar per-snapshot ``relevant``
    scan survives only as the fallback for query types that declare no
    vectorized geometry.  Every omitted pair is exactly zero/irrelevant,
    so the result equals a full-fleet pass bit for bit.
    """
    kernel = ValuationKernel.ensure(kernel, sensors)
    n_queries, n_all = len(queries), len(sensors)
    plain_idx = [i for i, q in enumerate(queries) if type(q) is PointQuery]
    sparse_entries = kernel.sparse_single_values([queries[i] for i in plain_idx])
    relevance_all = np.zeros((n_queries, n_all), dtype=bool)
    for i, (idx, vals) in zip(plain_idx, sparse_entries):
        relevance_all[i, idx] = vals > 0.0
    for i, query in enumerate(queries):
        if type(query) is PointQuery:
            continue
        cand, cand_xy, cand_gamma, cand_trust = kernel.candidate_view(query)
        mask = resolve_relevant_mask(query, cand_xy, cand_gamma, cand_trust)
        if mask is not None:
            relevance_all[i, cand] = mask
        else:
            row = relevance_all[i]
            for j in cand:
                if query.relevant(sensors[j]):
                    row[j] = True

    cols = np.flatnonzero(relevance_all.any(axis=0))
    if cols.size == 0:
        return None
    # Snapshots and costs come from the *passed* announcements — the
    # kernel may be a reused one whose own snapshots carry stale prices.
    roster = kernel.roster(cols, sensors)
    relevance = relevance_all[:, cols]
    # Scatter the sparse point rows into the roster's column space.
    # Candidate columns relevant to no query are absent from ``cols`` but
    # carry value 0.0 by construction, so dropping them is exact.
    point_values = np.zeros((len(plain_idx), cols.size))
    col_pos = np.full(n_all, -1, dtype=np.intp)
    col_pos[cols] = np.arange(cols.size, dtype=np.intp)
    for p, (idx, vals) in enumerate(sparse_entries):
        pos = col_pos[idx]
        keep = pos >= 0
        point_values[p, pos[keep]] = vals[keep]
    for p, i in enumerate(plain_idx):
        roster.value_rows[queries[i].query_id] = point_values[p]
    for i, query in enumerate(queries):
        if type(query) is not PointQuery:
            roster.relevance_rows[query.query_id] = relevance[i]
    states = [q.new_state() for q in queries]
    return GainSetup(
        roster, relevance, sensors.costs[cols], states, plain_idx, point_values
    )


def _build_blocks(
    states: list[ValuationState], roster: SensorRoster
) -> tuple[np.ndarray, np.ndarray, list[GainBlock]]:
    """Group the states by exact class into per-type gain blocks.

    Returns ``(row_block, member_pos, blocks)``: for query row ``i``,
    ``blocks[row_block[i]]`` is its block and ``member_pos[i]`` its member
    index within it.  Member order follows query order, so pairs sorted by
    query row arrive member-grouped as the block protocol requires.
    """
    groups: dict[type, list[int]] = {}
    for i, state in enumerate(states):
        groups.setdefault(type(state), []).append(i)
    row_block = np.empty(len(states), dtype=np.intp)
    member_pos = np.empty(len(states), dtype=np.intp)
    blocks: list[GainBlock] = []
    for rows in groups.values():
        for p, i in enumerate(rows):
            row_block[i] = len(blocks)
            member_pos[i] = p
        blocks.append(build_gain_block([states[i] for i in rows], roster))
    return row_block, member_pos, blocks


class GreedyAllocator:
    """Algorithm 1: greedy joint sensor selection for arbitrary query mixes.

    Args:
        min_gain: numerical floor below which a marginal gain is treated as
            zero (guards against float noise keeping the loop alive).
        verify: run the Theorem-1 invariant checks on the result (cheap;
            disable only in tight benchmarking loops).
    """

    name = "Greedy"

    def __init__(self, min_gain: float = 1e-9, verify: bool = True) -> None:
        if min_gain < 0:
            raise ValueError("min_gain must be non-negative")
        self.min_gain = min_gain
        self.verify = verify

    def allocate(
        self,
        queries: Sequence[Query],
        sensors: Sequence[SensorSnapshot],
        kernel: ValuationKernel | None = None,
    ) -> AllocationResult:
        sensors = check_distinct(queries, sensors)
        result = AllocationResult()
        if queries and len(sensors):
            self._allocate_batch(list(queries), sensors, kernel, result)
        if self.verify:
            result.verify()
        return result

    # ------------------------------------------------------------------
    # dense gain matrix + masked recomputation
    # ------------------------------------------------------------------
    def _allocate_batch(
        self,
        queries: list[Query],
        sensors: AnnouncementBatch,
        kernel: ValuationKernel | None,
        result: AllocationResult,
    ) -> None:
        setup = gain_setup(queries, sensors, kernel)
        if setup is None:
            return
        roster, relevance, costs = setup.roster, setup.relevance, setup.costs
        n = roster.n_sensors
        gain_matrix = np.zeros((len(queries), n), dtype=float)
        alive = np.ones(n, dtype=bool)
        all_indices = roster.all_indices
        # Initial fill.  Point-query rows come straight from the value
        # block (empty state: the marginal gain IS the single value), one
        # vectorized pass for the whole block; other query types fill via
        # their gain blocks, one fused pass per type.
        if setup.plain_idx:
            rows = np.asarray(setup.plain_idx, dtype=np.intp)
            values = setup.point_values
            keep = relevance[rows] & (values > self.min_gain)
            gain_matrix[rows] = np.where(keep, values, 0.0)
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
                gain = gains[qid]
                realized = setup.states[i].add(snapshot)
                # The committed gain must match the block evaluation; the
                # states are only mutated here, so any drift is a query-
                # implementation bug worth failing loudly on.
                if abs(realized - gain) > 1e-6 * max(1.0, abs(gain)):
                    raise RuntimeError(
                        f"query {qid} marginal gain drifted: batch {gain}, "
                        f"realized {realized}"
                    )
                result.record(queries[i], snapshot, gain, shares[qid])
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
        # Candidate blocks from the (query-sized) row list, not by hashing
        # the (pair-sized) block ids; a row without live relevant pairs
        # leaves its block with nothing to evaluate.
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
        """Net utility of ``columns``, re-accumulated in query order.

        Summation runs sequentially down the query axis (``cumsum``), which
        is exactly the addition order of the per-pair reference's Python
        ``sum`` over its per-sensor gains dict — stored gains are never
        ``-0.0``, so the all-zero rows the reference skips are exact no-ops
        here and one full-height cumsum replaces a contributing-row scan
        bit-for-bit.  Near-tie sensor selections therefore cannot diverge
        from the reference.
        """
        sub = gain_matrix[:, columns]
        np.cumsum(sub, axis=0, out=sub)
        net[columns] = sub[-1] - costs[columns]
