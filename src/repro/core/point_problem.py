"""Shared representation of a single-sensor point-query scheduling problem.

The Section 3.1 algorithms (optimal BILP, local search) and the clairvoyant
reference operate on the same structure: queried locations ``l``, the
per-location aggregated values ``v_l(s) = sum_{q in Q_l} v_q(s)`` and the
sensor costs.  :class:`PointProblem` builds that structure once per slot
by scattering :meth:`~repro.core.valuation.ValuationKernel.sparse_single_values`
— the greedy path's own eq.-(3) pass — into dense rows, so all allocators
see the same value bits for every (query, sensor) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..queries import PointQuery
from ..sensors import AnnouncementBatch, SensorSnapshot
from ..spatial import Location
from .allocation import AllocationResult, check_distinct
from .errors import AllocationError
from .payments import proportionate_shares
from .valuation import ValuationKernel

__all__ = ["PointProblem"]


@dataclass
class PointProblem:
    """Dense value matrix form of a point-query allocation instance.

    Attributes:
        sensors: the slot's announcement batch (column order of the
            matrices).
        locations: distinct queried locations (row order).
        location_queries: queries grouped per location.
        query_values: per query, its value row ``v_q(s_j)`` over sensors.
        values: the aggregated matrix ``V[l, j] = v_l(s_j)`` of eq. 9/12.
        costs: announced sensor costs ``c_j``.
    """

    sensors: AnnouncementBatch
    locations: list[Location]
    location_queries: list[list[PointQuery]]
    query_values: dict[str, np.ndarray]
    values: np.ndarray
    costs: np.ndarray

    @classmethod
    def build(
        cls, queries: list[PointQuery], sensors: Sequence[SensorSnapshot]
    ) -> "PointProblem":
        """Build the dense problem over the announcements in ``sensors``."""
        for query in queries:
            if not isinstance(query, PointQuery):
                raise AllocationError(
                    f"point-query allocators accept only PointQuery, got "
                    f"{type(query).__name__} ({query.query_id})"
                )
        sensors = check_distinct(queries, sensors)
        n = len(sensors)

        groups: dict[tuple[float, float], list[PointQuery]] = {}
        for query in queries:
            groups.setdefault((query.location.x, query.location.y), []).append(query)
        locations = [Location(x, y) for (x, y) in groups]
        location_queries = list(groups.values())
        row_index = {key: row for row, key in enumerate(groups)}
        rows_per_query = np.asarray(
            [row_index[(q.location.x, q.location.y)] for q in queries], dtype=np.intp
        )

        # Eq. (3) from the greedy path's own sparse pass, scattered into
        # zeros: every pair outside a query's candidate columns is exactly
        # 0.0, so each row has the bits Greedy sees for every pair.
        kernel = ValuationKernel.from_sensors(sensors)
        query_rows = np.zeros((len(queries), n))
        for row, (cols, vals) in zip(query_rows, kernel.sparse_single_values(queries)):
            row[cols] = vals
        query_values: dict[str, np.ndarray] = {
            query.query_id: query_rows[i] for i, query in enumerate(queries)
        }
        if len(locations) == len(queries):
            # All locations distinct (the paper's random workloads): the
            # aggregated matrix IS the per-query matrix.  Copy so later
            # in-place edits of ``values`` can never corrupt query rows.
            values = query_rows.copy()
        else:
            values = np.zeros((len(locations), n))
            if queries and n:
                # Unbuffered accumulation visits queries in input order, so
                # each location row sums its queries exactly as the
                # per-location loop used to.
                np.add.at(values, rows_per_query, query_rows)
        return cls(
            sensors,
            locations,
            location_queries,
            query_values,
            values,
            costs=sensors.costs,
        )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    @property
    def n_locations(self) -> int:
        return len(self.locations)

    def utility(self, member_mask: np.ndarray) -> float:
        """Eq. (12): ``u(S') = sum_l max_{s in S'} v_l(s) - sum_{s in S'} c_s``."""
        if not member_mask.any():
            return 0.0
        best = self.values[:, member_mask].max(axis=1)
        return float(np.maximum(best, 0.0).sum() - self.costs[member_mask].sum())

    def assign_winners(self, member_mask: np.ndarray) -> dict[int, int]:
        """Map location row -> winning sensor column within the member set.

        "Each sensor is assigned to a query location for which it yields the
        best valuation compared to other sensors" (Section 3.1.2); locations
        where even the best member yields nothing stay unassigned.
        """
        winners: dict[int, int] = {}
        if not member_mask.any():
            return winners
        member_idx = np.flatnonzero(member_mask)
        sub = self.values[:, member_idx]
        best_pos = sub.argmax(axis=1)
        best_val = sub[np.arange(len(self.locations)), best_pos]
        for row in range(len(self.locations)):
            if best_val[row] > 0.0:
                winners[row] = int(member_idx[best_pos[row]])
        return winners

    def settle(self, winners: dict[int, int]) -> AllocationResult:
        """Build the allocation result + eq. (11) payments for a winner map.

        For each selected sensor, the denominator of eq. (11) is the total
        value it yields across all locations it won; each query at such a
        location with positive value gets the reading and pays its
        proportionate share.
        """
        result = AllocationResult()
        by_sensor: dict[int, list[int]] = {}
        for row, col in winners.items():
            by_sensor.setdefault(col, []).append(row)
        for col, rows in by_sensor.items():
            snapshot = self.sensors[col]
            beneficiary_values: dict[str, float] = {}
            for row in rows:
                for query in self.location_queries[row]:
                    value = float(self.query_values[query.query_id][col])
                    if value > 0.0:
                        beneficiary_values[query.query_id] = value
            shares = proportionate_shares(beneficiary_values, snapshot.cost)
            for qid, value in beneficiary_values.items():
                result.record(qid, snapshot, value, shares[qid])
        return result
