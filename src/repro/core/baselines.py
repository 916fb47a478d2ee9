"""Baseline allocators — the comparison points of Section 4.

The paper evaluates its algorithms against "sequential execution of queries
with data buffering": queries are processed one by one in arrival order,
each grabbing whatever maximizes *its own* utility; a sensor selected once
costs nothing for the rest of the slot (its data is buffered), and a sensor
answering a query at a location also answers every other query at that
location.

One engine covers both published baselines:

* Section 4.3 (point queries): each query picks the single sensor with the
  best ``v_q(s) - c_eff(s)``.
* Section 4.4 (aggregate queries): each query greedily grows its own sensor
  set while the marginal valuation exceeds the effective cost.

because a single-sensor point query *is* a set query whose second sensor
never adds value.

The implementation is array-native end to end: candidate sets come from the
kernel's sparse point rows or each query's vectorized
:meth:`~repro.queries.Query.relevant_mask` (scalar ``relevant`` scans
survive only as the fallback for query types without vectorized geometry),
per-round gains arrive through the batch-gain protocol, the paid/chosen
bookkeeping lives in boolean column arrays, and announcement snapshots are
materialized only for the sensors actually picked (``result.record`` /
``state.add`` time).  Sensor picks replicate the historical per-candidate
scan *exactly* — including its sequential "beats the incumbent by more than
``min_gain``" tie-breaking — so allocations are bit-identical to the
pre-vectorization implementation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..queries import PointQuery, Query
from ..queries.base import resolve_batch_state, resolve_relevant_mask
from ..sensors import SensorSnapshot
from .allocation import AllocationResult, check_distinct
from .valuation import ValuationKernel

__all__ = ["BaselineAllocator"]


class BaselineAllocator:
    """Sequential per-query execution with intra-slot data buffering.

    Args:
        min_gain: numerical floor for treating a marginal as positive.
        share_colocated: give a selected sensor to every other point query
            at the same location for free (the paper's point baseline does;
            disable to measure how much that sharing contributes).
    """

    name = "Baseline"
    supports_kernel = True

    def __init__(self, min_gain: float = 1e-9, share_colocated: bool = True) -> None:
        if min_gain < 0:
            raise ValueError("min_gain must be non-negative")
        self.min_gain = min_gain
        self.share_colocated = share_colocated

    def allocate(
        self,
        queries: Sequence[Query],
        sensors: Sequence[SensorSnapshot],
        kernel: ValuationKernel | None = None,
    ) -> AllocationResult:
        sensors = check_distinct(queries, sensors)
        result = AllocationResult()
        if not queries or not len(sensors):
            return result
        kernel = ValuationKernel.ensure(kernel, sensors)
        n_all = len(sensors)

        # Vectorized Q_{l_s} prefilter + precomputed value rows for plain
        # point queries: per-query sparse (candidate columns, values) pairs
        # from the kernel — every omitted column is exactly zero, so the
        # candidate sets below equal a full-fleet scan's.
        plain = [q for q in queries if type(q) is PointQuery]
        sparse_rows = {
            q.query_id: entry
            for q, entry in zip(plain, kernel.sparse_single_values(plain))
        }

        announced_costs = sensors.costs
        paid = np.zeros(n_all, dtype=bool)  # cost already covered (buffered)
        answered: set[str] = set()

        for query in queries:
            if query.query_id in answered:
                continue
            state = query.new_state()
            sparse = sparse_rows.get(query.query_id)
            if sparse is not None:
                idx, vals = sparse
                positive = vals > 0.0
                candidate_idx = idx[positive]
                candidate_vals = vals[positive]
            else:
                # Non-point queries: one relevance-mask pass over the
                # query's candidate view, ascending column order so near-
                # tie picks cannot diverge from the historical full scan.
                cand, cand_xy, cand_gamma, cand_trust = kernel.candidate_view(query)
                mask = resolve_relevant_mask(query, cand_xy, cand_gamma, cand_trust)
                if mask is not None:
                    candidate_idx = cand[mask]
                else:
                    candidate_idx = np.fromiter(
                        (j for j in cand if query.relevant(sensors[j])), np.intp
                    )
                candidate_vals = None
            n_cand = len(candidate_idx)
            # Per-query roster over a lazy column view: the batch state
            # evaluates all of this query's candidates in one vectorized
            # pass per round, and no snapshot is built until a candidate
            # actually wins a round.
            roster = kernel.roster(candidate_idx, sensors)
            if candidate_vals is not None:
                roster.value_rows[query.query_id] = candidate_vals
            else:
                # The roster holds exactly this query's relevant sensors.
                roster.relevance_rows[query.query_id] = np.ones(n_cand, dtype=bool)
            batch = resolve_batch_state(state, roster)
            local_indices = roster.all_indices
            cand_costs = announced_costs[candidate_idx]
            chosen = np.zeros(n_cand, dtype=bool)
            while n_cand:
                gains = batch.gain_many(local_indices)
                effective = np.where(paid[candidate_idx], 0.0, cand_costs)
                nets = gains - effective
                # The historical pick scan, array-side: walk the candidates
                # in order, replacing the incumbent only when a net beats
                # it by more than min_gain.  Each record break is one
                # vectorized comparison over the remaining tail, so the
                # loop runs once per *strict improvement*, not per sensor.
                positions = np.flatnonzero((~chosen) & (gains > self.min_gain))
                best_pos = -1
                best_net = 0.0
                while positions.size:
                    hits = np.flatnonzero(nets[positions] > best_net + self.min_gain)
                    if hits.size == 0:
                        break
                    first = int(hits[0])
                    best_pos = int(positions[first])
                    best_net = float(nets[best_pos])
                    positions = positions[first + 1 :]
                if best_pos < 0:
                    break
                column = int(candidate_idx[best_pos])
                snapshot = roster.snapshots[best_pos]
                newly_paid = not paid[column]
                payment = float(cand_costs[best_pos]) if newly_paid else 0.0
                state.add(snapshot)
                chosen[best_pos] = True
                paid[column] = True
                result.record(query, snapshot, float(gains[best_pos]), payment)
            answered.add(query.query_id)

            # Point-query co-location sharing: "a sensor that is selected to
            # answer a query at a certain location is also assigned to all
            # other queries at that location" (Section 4.3).
            if self.share_colocated and isinstance(query, PointQuery) and chosen.any():
                chosen_snapshot = roster.snapshots[int(np.argmax(chosen))]
                for other in queries:
                    if (
                        isinstance(other, PointQuery)
                        and other.query_id not in answered
                        and other.location == query.location
                    ):
                        value = other.value_single(chosen_snapshot)
                        if value > 0.0:
                            result.record(other, chosen_snapshot, value, 0.0)
                            answered.add(other.query_id)

        result.verify()
        return result
