"""The aggregator service: the paper's central entity as a library API.

"The sensing devices communicate with a server, which is called the
*aggregator* ... End users (or applications) submit queries to the
aggregator.  The aggregator periodically collects the queries and tries to
optimally answer them" (Section 2).

:class:`Aggregator` is that server: applications :meth:`submit` queries of
any supported type at any time; each :meth:`run_slot` call runs one slot
of the :class:`~repro.core.engine.SlotEngine` that
:func:`~repro.core.engine.mix_engine` builds (announce, Algorithm 5 over
everything live, settle, advance) and charges the outcome to per-query
receipts and per-user accounts.  It is a submission adapter over that
engine, as :class:`~repro.service.AdmissionStream` is for the service.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..queries import (
    EventDetectionQuery,
    LocationMonitoringQuery,
    PointQuery,
    Query,
    RegionMonitoringQuery,
)
from ..sensors import SensorFleet
from .engine import EventDetectionStream, mix_engine
from .errors import AllocationError
from .metrics import SimulationSummary
from .mix import BaselineMixAllocator, MixAllocator

__all__ = ["Aggregator", "QueryReceipt", "SlotDigest", "UserAccount"]


class _Submissions:
    """Stream workload handing over the queries staged since the last slot."""

    def __init__(self) -> None:
        self.staged: list = []

    def generate(self, t, rng, live_count: int = 0) -> list:
        staged, self.staged = self.staged, []
        return staged


@dataclass
class QueryReceipt:
    """What a submitting application can poll about its query."""

    query_id: str
    user_id: str
    query_type: str
    submitted_at: int
    answered: bool = False
    value: float = 0.0
    paid: float = 0.0
    completed_at: int | None = None

    @property
    def utility(self) -> float:
        return self.value - self.paid


@dataclass
class UserAccount:
    """Running account of one application/user at the aggregator."""

    user_id: str
    budget: float = math.inf
    spent: float = 0.0
    value_received: float = 0.0
    queries: list[str] = field(default_factory=list)

    @property
    def remaining_budget(self) -> float:
        return self.budget - self.spent

    @property
    def utility(self) -> float:
        return self.value_received - self.spent


@dataclass
class SlotDigest:
    """Per-slot outcome summary returned by :meth:`Aggregator.run_slot`."""

    slot: int
    utility: float
    total_value: float
    total_cost: float
    answered: int
    sensors_used: int
    events_fired: int = 0


class Aggregator:
    """Long-running data-acquisition service over a sensor fleet.

    Args:
        fleet: the sensor population (announcements + settlement side).
        mix: the per-slot scheduling policy; Algorithm 5 by default, the
            sequential baseline if you want to feel the difference.
        ground_truth: optional callable ``Location -> float`` giving the
            phenomenon value the event witnesses report; without it they
            report 0.0, so event-detection queries pay for confidence but
            can only *fire* on a negative threshold.

    Lifecycle: ``submit()`` any number of queries (at any slot), then call
    ``run_slot()`` once per time slot.  One-shot queries live for exactly
    the next slot their owner can still pay for; continuous queries stay
    until they expire.
    """

    def __init__(
        self,
        fleet: SensorFleet,
        mix: MixAllocator | BaselineMixAllocator | None = None,
        ground_truth=None,
    ) -> None:
        self.fleet = fleet
        self.mix = mix if mix is not None else MixAllocator()
        self.ground_truth = ground_truth
        # One-shot queries wait here until their owner has budget left.
        self._pending_points: list[PointQuery] = []
        self._pending_one_shot: list[Query] = []
        self._points, self._one_shots, self._lm, self._rm, self._events = (
            _Submissions() for _ in range(5)
        )
        self.engine = mix_engine(
            fleet, self._points, self._one_shots, self._lm,
            np.random.default_rng(0), region_workload=self._rm, mix=self.mix,
        )
        phenomenon = None
        if ground_truth is not None:
            def phenomenon(t, location):
                return ground_truth(location)
        # Rank 0 after the aggregate stream: event slot queries enter the
        # allocation right after the non-point one-shots.
        self.engine.streams.append(
            EventDetectionStream(self._events, phenomenon=phenomenon, allocation_rank=0)
        )
        self._lm_stream = self.engine.stream("location_monitoring")
        self._rm_stream = self.engine.stream("region_monitoring")
        self._event_stream = self.engine.stream("event")
        self._one_shot_streams = (
            self.engine.stream("point"), self.engine.stream("aggregate")
        )
        self._continuous = (
            (self._lm_stream, self._lm),
            (self._rm_stream, self._rm),
            (self._event_stream, self._events),
        )
        self._summary = SimulationSummary()
        self.receipts: dict[str, QueryReceipt] = {}
        self.accounts: dict[str, UserAccount] = {}
        self.digests: list[SlotDigest] = []

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    @property
    def clock(self) -> int:
        return self.fleet.clock

    def open_account(self, user_id: str, budget: float = math.inf) -> UserAccount:
        """Register a user with an optional hard spending budget.

        ``inf`` (the default) means no cap; a NaN or negative budget is
        refused, since a NaN budget would re-queue the user's queries forever.
        """
        if not budget >= 0.0:
            raise ValueError(
                f"account budget must be non-negative or inf, got {budget}"
            )
        if user_id in self.accounts:
            raise AllocationError(f"user {user_id!r} already has an account")
        account = UserAccount(user_id=user_id, budget=budget)
        self.accounts[user_id] = account
        return account

    def submit(self, query, user_id: str = "anonymous") -> QueryReceipt:
        """Register a query for execution starting next ``run_slot``.

        Accepts every query type of Figure 1: point / multi-sensor point /
        aggregate / trajectory (one-shot), and location monitoring, region
        monitoring, event detection (continuous).
        """
        if isinstance(query, LocationMonitoringQuery):
            bucket, kind = self._lm.staged, "location_monitoring"
        elif isinstance(query, RegionMonitoringQuery):
            bucket, kind = self._rm.staged, "region_monitoring"
        elif isinstance(query, EventDetectionQuery):
            bucket, kind = self._events.staged, "event"
        elif isinstance(query, PointQuery):
            bucket, kind = self._pending_points, "point"
        elif isinstance(query, Query):
            bucket, kind = self._pending_one_shot, query.query_type.value
        else:
            raise AllocationError(f"unsupported query object: {type(query).__name__}")

        account = self.accounts.get(user_id)
        if account is None:
            account = self.open_account(user_id)
        if query.query_id in self.receipts:
            raise AllocationError(f"query {query.query_id} was already submitted")
        bucket.append(query)

        receipt = QueryReceipt(
            query_id=query.query_id,
            user_id=user_id,
            query_type=kind,
            submitted_at=self.clock,
        )
        self.receipts[query.query_id] = receipt
        account.queries.append(query.query_id)
        return receipt

    # ------------------------------------------------------------------
    # the slot protocol
    # ------------------------------------------------------------------
    def run_slot(self) -> SlotDigest:
        """Execute one time slot end to end and settle all payments."""
        t = self.clock
        self._expire_continuous(t)
        self._points.staged = self._drain_affordable(self._pending_points)
        self._one_shots.staged = self._drain_affordable(self._pending_one_shot)
        record = self.engine.step(self._summary)
        result = self.engine.last_result
        query_paid, _ = result.payment_totals()
        lm, rm = self._lm_stream, self._rm_stream

        def charge(query_id: str, child_id: str) -> None:
            self._charge(
                query_id, result.values.get(child_id, 0.0), query_paid.get(child_id, 0.0)
            )

        # Charge order (events, one-shots, location then region monitoring)
        # fixes the float summation order of every account.
        for child in self._event_stream.children:
            charge(child.parent_id, child.query_id)
        for stream in self._one_shot_streams:
            for query in stream.current:
                charge(query.query_id, query.query_id)
                self.receipts[query.query_id].completed_at = t
        for child in lm.children:
            charge(child.parent_id, child.query_id)
        for outcome in rm.outcomes:
            self._charge(outcome.query_id, outcome.achieved_value, outcome.paid)

        # Slot welfare: one-shot values plus the realized monitoring values
        # (eq.-16 deltas, achieved region values) minus the sensors' costs.
        child_ids = {c.query_id for c in lm.children}
        child_ids.update(c.query_id for c in rm.children)
        one_shot = sum(v for qid, v in result.values.items() if qid not in child_ids)
        rm_value = sum(o.achieved_value for o in rm.outcomes)
        utility = one_shot + lm.value_delta + rm_value - result.total_cost
        digest = SlotDigest(
            slot=t,
            utility=utility,
            total_value=utility + result.total_cost,
            total_cost=result.total_cost,
            answered=result.answered_count(),
            sensors_used=len(result.selected),
            events_fired=int(record.extras["detections"]),
        )
        self.digests.append(digest)
        return digest

    def run(self, n_slots: int) -> list[SlotDigest]:
        """Run several slots; returns their digests."""
        return [self.run_slot() for _ in range(n_slots)]

    # ------------------------------------------------------------------
    # settlement internals
    # ------------------------------------------------------------------
    def _drain_affordable(self, pending: list) -> list:
        """Pop pending one-shot queries whose owner still has budget."""
        admitted, skipped = [], []
        for query in pending:
            account = self.accounts[self.receipts[query.query_id].user_id]
            if account.remaining_budget > 0:
                admitted.append(query)
            else:
                skipped.append(query)
        pending[:] = skipped  # re-queue until budget frees up
        return admitted

    def _charge(self, query_id: str, value: float, paid: float) -> None:
        receipt = self.receipts[query_id]
        receipt.answered = receipt.answered or value > 0
        receipt.value += value
        receipt.paid += paid
        account = self.accounts[receipt.user_id]
        account.spent += paid
        account.value_received += value

    def _expire_continuous(self, t: int) -> None:
        """Close the receipts of continuous queries over by slot ``t``; the
        streams retire the live ones themselves."""
        for stream, submissions in self._continuous:
            for query in stream.live + submissions.staged:
                if query.expired(t):
                    self.receipts[query.query_id].completed_at = t - 1
            submissions.staged = [q for q in submissions.staged if not q.expired(t)]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def total_utility(self) -> float:
        return float(sum(d.utility for d in self.digests))

    def live_query_count(self) -> int:
        return sum(
            len(stream.live) + len(submissions.staged)
            for stream, submissions in self._continuous
        )
