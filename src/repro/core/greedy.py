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

The allocator drives the queries' gain blocks
(:meth:`~repro.queries.Query.gain_block`) over one shared setup
(:func:`gain_setup`: relevance, roster and one
:class:`~repro.queries.GainBlock` per gain type), which the sequential
baseline builds the same way.  The blocks own the greedy state: a round's
winner is committed to each benefiting query through its block
(:meth:`GainSetup.commit`), and the gains of later rounds read the state
those commits left.  The result records each benefiting query's block
gain, the number the winner was picked by.  A point-flavoured block
values the committed pair through the query's scalar eq. (4), which can
differ from that gain in the final ulp; coverage commits are bit-identical
to it.  ``tests/test_block_commit_parity.py`` pins every block's commits
to the scalar oracle states.

Relevance is stored sparse, as the paper's ``Q_{l_s}``: one paired-CSR
structure over the relevant (query, sensor) pairs only, with a
query-major view (each query's relevant roster columns, ascending) and a
column-major view (each column's relevant queries, ascending) of the same
entries.  Greedy keeps one marginal gain per entry.  After each commit only
the benefiting queries' live entries are re-evaluated, with one
``gain_many_block`` call per query *type*, and only the live columns those
entries touch get their net utility re-summed.

A column's net is re-summed over its own entries in query order by one
sequential pass (``np.bincount`` with weights adds in input order), which
is exactly the addition order of the pseudo-code's per-sensor ``sum``.
The pairs the CSR omits are irrelevant, so their gain is zero, and stored
gains are never ``-0.0``: skipping them drops only exact ``+0.0`` no-ops.
The parity suites can therefore require identical sensors and cost shares
against a per-pair scalar reference loop and against the dense
``(n_queries, n_sensors)`` gain-matrix loop this replaced.

One exact optimization over the pseudo-code: a sensor's cached marginal
sum only changes when one of *its* relevant queries received a new sensor,
so after committing sensor ``a`` only the pairs whose relevant-query sets
intersect ``Q_a`` are re-evaluated (this is the paper's ``Q_{l_s}``
pre-filtering taken to its logical end; it changes nothing about which
sensor wins each round).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ..queries import PointQuery, Query
from ..queries.base import GainBlock, SensorRoster
from ..sensors import AnnouncementBatch, SensorSnapshot
from .allocation import AllocationResult, check_distinct
from .payments import proportionate_shares
from .valuation import ValuationKernel

__all__ = ["GainSetup", "GreedyAllocator", "gain_setup"]


class GainSetup:
    """One allocator call's gain machinery, shared by Greedy and Baseline.

    The relevant (query, roster column) pairs are numbered row-major:
    entry ``e`` is the pair ``(entry_rows[e], entry_cols[e])``.

    Attributes:
        roster: the candidate sensors — every announced column relevant to
            at least one query (the paper's ``Q_{l_s}`` taken per sensor),
            ascending.  Every array below is indexed by roster position.
        row_ptr, entry_cols: the query-major view — query ``i``'s relevant
            roster columns are ``entry_cols[row_ptr[i]:row_ptr[i + 1]]``,
            ascending.
        entry_rows: the query row of each entry.
        costs: the announced cost of each roster column.
        point_entries, point_values: the entries of the plain
            :class:`~repro.queries.PointQuery` queries, ascending, and each
            one's eq.-(3) value (positive: the relevant pairs are exactly
            the positive kernel values).
        row_block, member_pos, blocks: query row ``i`` is member
            ``member_pos[i]`` of gain block ``blocks[row_block[i]]``.
    """

    def __init__(
        self,
        queries: list[Query],
        roster: SensorRoster,
        row_ptr: np.ndarray,
        entry_cols: np.ndarray,
        costs: np.ndarray,
        point_entries: np.ndarray,
        point_values: np.ndarray,
    ) -> None:
        self.roster = roster
        self.row_ptr = row_ptr
        self.entry_cols = entry_cols
        self.entry_rows = np.repeat(
            np.arange(len(row_ptr) - 1, dtype=np.intp), np.diff(row_ptr)
        )
        self.costs = costs
        self.point_entries = point_entries
        self.point_values = point_values
        self.row_block, self.member_pos, self.blocks = _build_blocks(
            queries, roster, self.row_columns
        )

    def row_columns(self, row: int) -> np.ndarray:
        """Query ``row``'s relevant roster columns, ascending."""
        return self.entry_cols[self.row_ptr[row] : self.row_ptr[row + 1]]

    @cached_property
    def column_view(self) -> tuple[np.ndarray, np.ndarray]:
        """``(col_ptr, col_entries)``: the column-major view.

        Column ``j``'s entries are ``col_entries[col_ptr[j]:col_ptr[j + 1]]``,
        in query order — a stable sort of the row-major entries by column.
        """
        n = self.roster.n_sensors
        col_ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.entry_cols, minlength=n), out=col_ptr[1:])
        return col_ptr, np.argsort(self.entry_cols, kind="stable")

    def row_gains(self, row: int, columns: np.ndarray) -> np.ndarray:
        """Query ``row``'s marginal gains against the roster ``columns``
        (relevant columns only), through its gain block."""
        member = np.full(len(columns), self.member_pos[row], dtype=np.intp)
        return self.blocks[self.row_block[row]].gain_many_block(member, columns)

    def commit(self, row: int, column: int) -> float:
        """Add roster ``column`` to query ``row``'s set through its gain
        block; returns the realized gain."""
        return self.blocks[self.row_block[row]].commit(self.member_pos[row], column)


def gain_setup(
    queries: list[Query],
    sensors: AnnouncementBatch,
    kernel: ValuationKernel | None,
) -> GainSetup | None:
    """Relevance, roster and gain blocks of one allocator call;
    ``None`` when no sensor is relevant to any query.

    Relevance goes through the kernel's candidate views (the paper's
    ``Q_{l_s}`` pre-filter) straight into the query-major CSR: one fused
    eq.-(3) pass over the plain point queries' (query, candidate) pairs —
    the positive values are the relevant pairs and double as their initial
    gains — and one vectorized ``relevant_mask`` pass per other query over
    its memoized candidate block.  Candidate columns are ascending, so
    every CSR row is too.  Every omitted pair is exactly zero/irrelevant,
    so the result equals a full-fleet pass bit for bit.  A passed kernel is
    used only when it covers ``sensors`` (:meth:`ValuationKernel.covers`);
    otherwise the call builds its own.
    """
    if kernel is None or not kernel.covers(sensors):
        kernel = ValuationKernel.from_sensors(sensors)
    n_queries, n_all = len(queries), len(sensors)
    plain_idx = [i for i, q in enumerate(queries) if type(q) is PointQuery]
    sparse_entries = kernel.sparse_single_values([queries[i] for i in plain_idx])
    world_rows: list[np.ndarray] = [np.empty(0, dtype=np.intp)] * n_queries
    plain_values = [np.empty(0)]
    for i, (idx, vals) in zip(plain_idx, sparse_entries):
        keep = vals > 0.0
        world_rows[i] = idx[keep]
        plain_values.append(vals[keep])
    for i, query in enumerate(queries):
        if type(query) is PointQuery:
            continue
        cand, cand_xy, cand_gamma, cand_trust = kernel.candidate_view(query)
        world_rows[i] = cand[query.relevant_mask(cand_xy, cand_gamma, cand_trust)]

    world_cols = np.concatenate(world_rows) if n_queries else np.empty(0, np.intp)
    if world_cols.size == 0:
        return None
    row_ptr = np.zeros(n_queries + 1, dtype=np.intp)
    np.cumsum([len(row) for row in world_rows], out=row_ptr[1:])
    relevant = np.zeros(n_all, dtype=bool)
    relevant[world_cols] = True
    cols = np.flatnonzero(relevant)
    col_pos = np.empty(n_all, dtype=np.intp)
    col_pos[cols] = np.arange(cols.size, dtype=np.intp)
    # Plain point rows are contiguous entry ranges, in CSR entry order.
    point_entries = np.concatenate(
        [np.empty(0, np.intp)]
        + [np.arange(row_ptr[i], row_ptr[i + 1]) for i in plain_idx]
    )
    # Snapshots and costs come from the *passed* announcements — the
    # kernel may cover them at other prices (a zero-cost re-announcement).
    roster = kernel.roster(cols, sensors)
    return GainSetup(
        queries, roster, row_ptr, col_pos[world_cols], sensors.costs[cols],
        point_entries, np.concatenate(plain_values),
    )


def _build_blocks(
    queries: list[Query],
    roster: SensorRoster,
    row_columns: Callable[[int], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, list[GainBlock]]:
    """Group the queries by the ``gain_block`` they resolve to, one block each.

    Returns ``(row_block, member_pos, blocks)``: for query row ``i``,
    ``blocks[row_block[i]]`` is its block and ``member_pos[i]`` its member
    index within it.  Member order follows query order, so pairs sorted by
    query row arrive member-grouped as the block protocol requires.  Each
    block gets its members' relevant columns, ``row_columns(i)``.
    """
    groups: dict[Callable, list[int]] = {}
    for i, query in enumerate(queries):
        groups.setdefault(type(query).gain_block.__func__, []).append(i)
    row_block = np.empty(len(queries), dtype=np.intp)
    member_pos = np.empty(len(queries), dtype=np.intp)
    blocks: list[GainBlock] = []
    for rows in groups.values():
        for p, i in enumerate(rows):
            row_block[i] = len(blocks)
            member_pos[i] = p
        members = [queries[i] for i in rows]
        blocks.append(
            type(members[0]).gain_block(members, roster, [row_columns(i) for i in rows])
        )
    return row_block, member_pos, blocks


def resum_nets(
    gains: np.ndarray,
    col_ptr: np.ndarray,
    col_entries: np.ndarray,
    costs: np.ndarray,
    columns: np.ndarray,
    net: np.ndarray,
) -> int:
    """Set ``net[columns]`` to each column's entry gains, summed in query
    order, minus its cost; returns the number of entries summed.

    ``np.bincount`` with weights adds sequentially in input order, and the
    column-major entries list each column's queries in query order — the
    addition order of the pseudo-code's per-sensor ``sum``.  A column with
    no (or only zero) gains gets ``-cost``.
    """
    starts = col_ptr[columns]
    lengths = col_ptr[columns + 1] - starts
    # seg[p]: which of ``columns`` the p-th gathered entry belongs to.
    seg = np.repeat(np.arange(len(columns), dtype=np.intp), lengths)
    pos = np.arange(seg.size, dtype=np.intp)
    pos += (starts - (np.cumsum(lengths) - lengths))[seg]
    sums = np.bincount(seg, weights=gains[col_entries[pos]], minlength=len(columns))
    net[columns] = sums - costs[columns]
    return pos.size


#: Work counters of one :meth:`GreedyAllocator.allocate` call.
COUNTERS = ("rounds", "pairs_gathered", "pairs_evaluated", "net_entries_resummed")


class GreedyAllocator:
    """Algorithm 1: greedy joint sensor selection for arbitrary query mixes.

    Args:
        min_gain: numerical floor below which a marginal gain is treated as
            zero (guards against float noise keeping the loop alive).

    Attributes:
        last_counters: deterministic work counts of the last
            :meth:`allocate` call — ``rounds`` (sensors committed),
            ``pairs_gathered`` (relevant pairs sliced by gain refreshes),
            ``pairs_evaluated`` (the live ones among them, sent to
            ``gain_many_block``) and ``net_entries_resummed`` (gain entries
            added into net utilities).
    """

    name = "Greedy"

    def __init__(self, min_gain: float = 1e-9) -> None:
        if min_gain < 0:
            raise ValueError("min_gain must be non-negative")
        self.min_gain = min_gain
        self.last_counters = dict.fromkeys(COUNTERS, 0)

    def allocate(
        self,
        queries: Sequence[Query],
        sensors: Sequence[SensorSnapshot],
        kernel: ValuationKernel | None = None,
    ) -> AllocationResult:
        sensors = check_distinct(queries, sensors)
        result = AllocationResult()
        self.last_counters = dict.fromkeys(COUNTERS, 0)
        if queries and len(sensors):
            self._allocate_batch(list(queries), sensors, kernel, result)
        result.verify()
        return result

    # ------------------------------------------------------------------
    # per-entry gains + masked recomputation
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
        counters = self.last_counters
        roster, costs = setup.roster, setup.costs
        entry_rows, entry_cols = setup.entry_rows, setup.entry_cols
        col_ptr, col_entries = setup.column_view
        n = roster.n_sensors
        gains = np.zeros(len(entry_cols), dtype=float)
        alive = np.ones(n, dtype=bool)
        # Initial fill.  Point-query entries take their kernel values
        # directly (empty state: the marginal gain IS the single value), one
        # vectorized pass for all of them; other query types fill via their
        # gain blocks, one fused pass per type.
        values = setup.point_values
        gains[setup.point_entries] = np.where(values > self.min_gain, values, 0.0)
        row_ptr = setup.row_ptr
        nonpoint_rows = np.asarray(
            [
                i
                for i, query in enumerate(queries)
                if type(query) is not PointQuery and row_ptr[i + 1] > row_ptr[i]
            ],
            dtype=np.intp,
        )
        self._refresh(setup, gains, nonpoint_rows, alive, np.zeros(n, dtype=bool))
        net = np.empty(n, dtype=float)
        counters["net_entries_resummed"] += resum_nets(
            gains, col_ptr, col_entries, costs, roster.all_indices, net
        )

        while alive.any():
            candidate_net = np.where(alive, net, -np.inf)
            j = int(np.argmax(candidate_net))
            entries = col_entries[col_ptr[j] : col_ptr[j + 1]]
            column = gains[entries]
            positive = column != 0.0
            benefiting = entry_rows[entries[positive]]
            if net[j] <= 0.0 or benefiting.size == 0:
                break

            snapshot = roster.snapshots[j]
            gains_by_id = {
                queries[i].query_id: float(g)
                for i, g in zip(benefiting, column[positive])
            }
            shares = proportionate_shares(gains_by_id, snapshot.cost)
            for i in benefiting:
                qid = queries[i].query_id
                setup.commit(i, j)
                result.record(queries[i], snapshot, gains_by_id[qid], shares[qid])
            alive[j] = False
            counters["rounds"] += 1
            if not alive.any():
                break

            # Masked recomputation: only the rows that just grew, only their
            # still-live entries; then re-sum the nets of the live columns
            # those entries touch, each over its own entries.
            dirty = np.zeros(n, dtype=bool)
            self._refresh(setup, gains, benefiting, alive, dirty)
            counters["net_entries_resummed"] += resum_nets(
                gains, col_ptr, col_entries, costs, np.flatnonzero(dirty), net
            )

    def _refresh(
        self,
        setup: GainSetup,
        gains: np.ndarray,
        rows: np.ndarray,
        alive: np.ndarray,
        touched: np.ndarray,
    ) -> None:
        """Re-evaluate ``rows``' live entries; mark their columns ``touched``.

        Per block, its rows' CSR entries are sliced (ascending rows,
        ascending columns within each), filtered by ``alive`` and dispatched
        as one ``gain_many_block`` call; block members follow query order,
        so the pairs arrive member-grouped.  A block whose rows have no live
        entry has nothing to evaluate.
        """
        counters = self.last_counters
        row_ptr, entry_cols = setup.row_ptr, setup.entry_cols
        row_block = setup.row_block[rows]
        for b in np.unique(row_block):
            entries = np.concatenate(
                [np.arange(row_ptr[r], row_ptr[r + 1]) for r in rows[row_block == b]]
            )
            counters["pairs_gathered"] += entries.size
            cols = entry_cols[entries]
            live = alive[cols]
            entries, cols = entries[live], cols[live]
            counters["pairs_evaluated"] += entries.size
            if entries.size == 0:
                continue
            block_gains = setup.blocks[b].gain_many_block(
                setup.member_pos[setup.entry_rows[entries]], cols
            )
            gains[entries] = np.where(block_gains > self.min_gain, block_gains, 0.0)
            touched[cols] = True
