"""Allocation results and the allocator interface.

Every scheduling algorithm in this package — optimal BILP, local search,
greedy, and the baselines — consumes a set of queries plus the slot's sensor
announcements and produces an :class:`AllocationResult`: which sensors were
selected, which queries they answer, the value each query obtained and the
payment each query owes each sensor (eq. 2's allocation ``M`` together with
the cost shares ``pi_{q,s}`` of Section 2.1).
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Protocol, Sequence

from ..queries import Query
from ..sensors import AnnouncementBatch, SensorSnapshot
from ..sensors.state import announcement_batch
from .errors import AllocationError, PaymentInvariantError

__all__ = ["AllocationResult", "Allocator", "check_distinct"]


def check_distinct(
    queries: Sequence[Query], sensors: Sequence[SensorSnapshot]
) -> AnnouncementBatch:
    """Reject duplicate query ids / sensor ids early with a clear error.

    Returns the announcements as an :class:`~repro.sensors.AnnouncementBatch`
    (see :func:`~repro.sensors.state.announcement_batch`): the one
    conversion an allocator makes, which also refuses duplicate sensor ids
    in a snapshot list.  A fleet's batch is unique by construction (its ids
    are fleet row indices), so the slot path never walks it.
    """
    qids = [q.query_id for q in queries]
    if len(set(qids)) != len(qids):
        raise AllocationError("duplicate query ids in allocation input")
    return announcement_batch(sensors)


@dataclass
class AllocationResult:
    """Outcome of one slot's sensor selection.

    Attributes:
        selected: the chosen sensors (``Y(M)`` of eq. 2), by sensor id.
        assignments: per query, the ids of the sensors answering it
            (``M(q)``); queries absent from the mapping were not answered.
        values: per answered query, the achieved valuation ``v_q(M(q))``.
        payments: the cost shares ``pi_{q,s}``.
    """

    selected: dict[int, SensorSnapshot] = field(default_factory=dict)
    assignments: dict[str, tuple[int, ...]] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    payments: dict[tuple[str, int], float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # aggregate accounting
    # ------------------------------------------------------------------
    @property
    def total_value(self) -> float:
        """``sum_q v_q(M(q))``."""
        return float(sum(self.values.values()))

    @property
    def total_cost(self) -> float:
        """``sum_{s in Y(M)} c_s``."""
        return float(sum(s.cost for s in self.selected.values()))

    @property
    def total_utility(self) -> float:
        """The slot's social welfare (the objective of eq. 2)."""
        return self.total_value - self.total_cost

    # ------------------------------------------------------------------
    # per-party accounting
    # ------------------------------------------------------------------
    def payment_totals(self) -> tuple[dict[str, float], dict[int, float]]:
        """Per-query and per-sensor payment sums from one ledger pass.

        Settlement reads these instead of calling :meth:`query_payment` /
        :meth:`sensor_income` (a full ledger scan each) per party.  Each
        sum accumulates in ledger insertion order, so the totals are
        ``==`` to what those helpers return.
        """
        query_paid: dict[str, float] = {}
        sensor_paid: dict[int, float] = {}
        for (qid, sid), payment in self.payments.items():
            query_paid[qid] = query_paid.get(qid, 0.0) + payment
            sensor_paid[sid] = sensor_paid.get(sid, 0.0) + payment
        return query_paid, sensor_paid

    def query_payment(self, query_id: str) -> float:
        return float(
            sum(p for (qid, _), p in self.payments.items() if qid == query_id)
        )

    def query_utility(self, query_id: str) -> float:
        """The answered query's net benefit ``v_q - sum_s pi_{q,s}``."""
        return self.values.get(query_id, 0.0) - self.query_payment(query_id)

    def sensor_income(self, sensor_id: int) -> float:
        return float(
            sum(p for (_, sid), p in self.payments.items() if sid == sensor_id)
        )

    def is_answered(self, query_id: str) -> bool:
        return query_id in self.assignments and bool(self.assignments[query_id])

    def answered_count(self) -> int:
        return sum(1 for sensors in self.assignments.values() if sensors)

    # ------------------------------------------------------------------
    # mutation helpers used by the algorithms
    # ------------------------------------------------------------------
    def record(
        self,
        query: Query | str,
        snapshot: SensorSnapshot,
        value_gain: float,
        payment: float,
    ) -> None:
        """Append one (query, sensor) grant to the result."""
        query_id = query if isinstance(query, str) else query.query_id
        self.selected.setdefault(snapshot.sensor_id, snapshot)
        current = self.assignments.get(query_id, ())
        if snapshot.sensor_id not in current:
            self.assignments[query_id] = current + (snapshot.sensor_id,)
        self.values[query_id] = self.values.get(query_id, 0.0) + value_gain
        key = (query_id, snapshot.sensor_id)
        self.payments[key] = self.payments.get(key, 0.0) + payment

    def merge(self, other: "AllocationResult") -> None:
        """Fold another result in (used by the query-mix pipeline)."""
        for sid, snap in other.selected.items():
            existing = self.selected.setdefault(sid, snap)
            if existing.cost != snap.cost:
                raise AllocationError(
                    f"sensor {sid} announced two different costs in one slot"
                )
        for qid, sensors in other.assignments.items():
            current = self.assignments.get(qid, ())
            merged = current + tuple(s for s in sensors if s not in current)
            self.assignments[qid] = merged
        for qid, value in other.values.items():
            self.values[qid] = self.values.get(qid, 0.0) + value
        for key, payment in other.payments.items():
            self.payments[key] = self.payments.get(key, 0.0) + payment

    # ------------------------------------------------------------------
    # invariants (Theorem 1 / Section 2.1)
    # ------------------------------------------------------------------
    def verify(self, tolerance: float = 1e-6) -> None:
        """Assert the settlement invariants; raise on violation.

        1. every payment is finite and non-negative;
        2. every selected sensor recovers exactly its announced cost
           ("the total payment from the queries using that sensor is equal
           to c_s", Section 2.1);
        3. every query's utility is finite and non-negative (Theorem 1,
           property 3);
        4. assignments only reference selected sensors.

        A NaN or infinite payment, income or utility fails its check: each
        condition states the good case, so a NaN (every comparison with it
        is False) cannot slip through.
        """
        for (qid, sid), payment in self.payments.items():
            if not (math.isfinite(payment) and payment >= -tolerance):
                raise PaymentInvariantError(
                    f"invalid payment {payment} from {qid} to sensor {sid}"
                )
        query_paid, sensor_paid = self.payment_totals()
        for sid, snapshot in self.selected.items():
            income = sensor_paid.get(sid, 0.0)
            slack = max(tolerance, tolerance * snapshot.cost)
            if not (math.isfinite(income) and abs(income - snapshot.cost) <= slack):
                raise PaymentInvariantError(
                    f"sensor {sid} income {income:.6f} != cost {snapshot.cost:.6f}"
                )
        for qid, value in self.values.items():
            utility = value - query_paid.get(qid, 0.0)
            if not (
                math.isfinite(utility)
                and utility >= -max(tolerance, tolerance * abs(value))
            ):
                raise PaymentInvariantError(
                    f"query {qid} has invalid utility {utility:.6f}"
                )
        for qid, assigned in self.assignments.items():
            for sid in assigned:
                if sid not in self.selected:
                    raise PaymentInvariantError(
                        f"query {qid} assigned unselected sensor {sid}"
                    )


class Allocator(Protocol):
    """The common interface of all per-slot scheduling algorithms.

    ``kernel`` is the slot's :class:`~repro.core.valuation.ValuationKernel`,
    built once from the same announcements (the engine always passes it;
    ``None`` makes the allocator build its own), so Greedy and Baseline
    share its grid candidate views.  The point allocators (optimal, local
    search) accept and ignore it: their dense
    :class:`~repro.core.point_problem.PointProblem` builds a kernel of its
    own over the announcements it is handed.
    """

    def allocate(
        self,
        queries: Sequence[Query],
        sensors: Sequence[SensorSnapshot],
        kernel=None,
    ) -> AllocationResult: ...
