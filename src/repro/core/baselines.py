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

Both run on Greedy's gain setup (:func:`~repro.core.greedy.gain_setup`):
each query's candidates are its row of the shared relevance CSR, its
gains come from its type's :class:`~repro.queries.GainBlock` (one
``gain_many_block`` call per round, with the query as the only member
touched) and its picks are committed through the same block, the
paid/chosen bookkeeping lives in boolean column arrays, and
announcement snapshots are materialized only for the sensors actually
picked.  Sensor picks replicate the historical per-candidate scan
*exactly* — ascending column order and its sequential "beats the
incumbent by more than ``min_gain``" tie-breaking — so allocations are
bit-identical to the pre-vectorization implementation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..queries import PointQuery, Query
from ..sensors import SensorSnapshot
from ..spatial import Location
from .allocation import AllocationResult, check_distinct
from .greedy import GainSetup, gain_setup
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
        queries = list(queries)
        setup = gain_setup(queries, sensors, kernel)
        if setup is not None:
            self._run(queries, setup, result)
        result.verify()
        return result

    def _run(
        self, queries: list[Query], setup: GainSetup, result: AllocationResult
    ) -> None:
        roster, costs = setup.roster, setup.costs
        paid = np.zeros(roster.n_sensors, dtype=bool)  # cost already covered (buffered)
        answered: set[str] = set()
        # Point queries by queried location, each group in query order.
        colocated: dict[Location, list[PointQuery]] = {}
        if self.share_colocated:
            for query in queries:
                if isinstance(query, PointQuery):
                    colocated.setdefault(query.location, []).append(query)

        for i, query in enumerate(queries):
            if query.query_id in answered:
                continue
            # The query's relevant roster columns, ascending, so near-tie
            # picks cannot diverge from the historical full scan.
            candidates = setup.row_columns(i)
            cand_costs = costs[candidates]
            chosen = np.zeros(len(candidates), dtype=bool)
            while len(candidates):
                gains = setup.row_gains(i, candidates)
                effective = np.where(paid[candidates], 0.0, cand_costs)
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
                column = int(candidates[best_pos])
                snapshot = roster.snapshots[column]
                payment = 0.0 if paid[column] else float(cand_costs[best_pos])
                setup.commit(i, column)
                chosen[best_pos] = True
                paid[column] = True
                result.record(query, snapshot, float(gains[best_pos]), payment)
            answered.add(query.query_id)

            # Point-query co-location sharing: "a sensor that is selected to
            # answer a query at a certain location is also assigned to all
            # other queries at that location" (Section 4.3).
            if isinstance(query, PointQuery) and chosen.any():
                group = colocated.get(query.location, ())
                if len(group) > 1:
                    shared = roster.snapshots[int(candidates[np.argmax(chosen)])]
                    for other in group:
                        if other.query_id in answered:
                            continue
                        value = other.value_single(shared)
                        if value > 0.0:
                            result.record(other, shared, value, 0.0)
                            answered.add(other.query_id)
