"""Controllers for continuous queries — Algorithms 2 and 3 (Section 3.3).

Each slot the controllers translate the live monitoring queries into point
queries (``CreatePointQuery`` / ``CreatePointQueries``), hand them to
whatever point-query allocator the experiment uses, and afterwards fold the
execution outcomes back into the monitoring queries' state
(``ApplyResults``).

Budget discipline beyond the paper's pseudo-code: a derived point query's
budget is additionally capped by the parent's remaining budget, so a
monitoring query can never spend more than the user allotted even when the
eq. 16/17 valuation momentarily exceeds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..queries import (
    LocationMonitoringQuery,
    PointQuery,
    RegionMonitoringQuery,
    new_query_id,
)
from ..sensors import AnnouncementBatch, SensorSnapshot
from ..sensors.state import announcement_batch
from .allocation import AllocationResult
from .payments import redistribute_contribution
from .sampling import SamplingPlan, paper_weight_function, plan_sampling


__all__ = [
    "AlphaSchedule",
    "LocationMonitoringController",
    "RegionMonitoringController",
    "RegionSlotOutcome",
]

#: The budget-carryover control: either a constant or a callable of
#: (slot, query) -> fraction.  The paper fixes alpha = 0.5 and sketches an
#: adaptive schedule as future work; both are expressible here.
AlphaSchedule = float | Callable[[int, object], float]


def _resolve_alpha(alpha: AlphaSchedule, t: int, query: object) -> float:
    value = alpha(t, query) if callable(alpha) else alpha
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {value}")
    return value


class LocationMonitoringController:
    """Algorithm 2: derive point queries for location-monitoring queries.

    Args:
        alpha: fraction of the accumulated surplus an *opportunistic*
            (off-schedule) sample may spend (paper: constant 0.5).
        opportunistic: whether off-schedule alpha-capped sampling happens at
            all (Algorithm 2's distinctive feature).
        scheduled_only: when True, a point query is created *only* at the
            desired sampling times — the Section 4.5 baseline, which also
            loses Algorithm 2's catch-up after a failed scheduled sample
            and its past-schedule extra sampling.
        min_budget: derived queries with a smaller budget than this are not
            worth a sensor's time and are skipped.
    """

    def __init__(
        self,
        alpha: AlphaSchedule = 0.5,
        opportunistic: bool = True,
        scheduled_only: bool = False,
        min_budget: float = 1e-6,
    ) -> None:
        self.alpha = alpha
        self.opportunistic = opportunistic
        self.scheduled_only = scheduled_only
        self.min_budget = min_budget

    # ------------------------------------------------------------------
    # CreatePointQuery (Function, Section 3.3)
    # ------------------------------------------------------------------
    def create_point_queries(
        self, queries: Sequence[LocationMonitoringQuery], t: int
    ) -> list[PointQuery]:
        children: list[PointQuery] = []
        for query in queries:
            if not query.active(t):
                continue
            child = self._create_for(query, t)
            if child is not None:
                children.append(child)
        return children

    def _create_for(self, query: LocationMonitoringQuery, t: int) -> PointQuery | None:
        full_value = query.marginal_gain(t)
        scheduled_now = t in query.desired_times
        if self.scheduled_only and not scheduled_now:
            return None
        if scheduled_now or query.has_missed_schedule(t) or query.past_schedule(t):
            delta = full_value
        elif self.opportunistic:
            alpha = _resolve_alpha(self.alpha, t, query)
            delta = min(alpha * max(0.0, query.surplus), full_value)
        else:
            return None
        delta = min(delta, query.remaining_budget)
        if delta <= self.min_budget:
            return None
        return PointQuery(
            location=query.location,
            budget=delta,
            theta_min=query.theta_min,
            dmax=query.dmax,
            query_id=new_query_id("lmp"),
            issued_at=t,
            parent_id=query.query_id,
        )

    # ------------------------------------------------------------------
    # ApplyResults (Procedure, Section 3.3)
    # ------------------------------------------------------------------
    def apply_results(
        self,
        queries: Sequence[LocationMonitoringQuery],
        children: Sequence[PointQuery],
        result: AllocationResult,
        t: int,
    ) -> tuple[int, float]:
        """Fold execution outcomes back into the queries.

        Returns ``(samples, value_delta)``: the number of successful samples
        and the total *realized* increase of the parents' eq. 16 valuations.
        The realized delta is the honest utility contribution — an
        opportunistic sample is bought at its alpha-capped price but may be
        worth its full marginal value to the query.
        """
        by_parent = {c.parent_id: c for c in children}
        by_id = {q.query_id: q for q in queries}
        query_paid, _ = result.payment_totals()
        samples = 0
        value_delta = 0.0
        for parent_id, child in by_parent.items():
            query = by_id.get(parent_id)
            if query is None:
                continue
            sensor_ids = result.assignments.get(child.query_id, ())
            if not sensor_ids:
                continue  # pi = -inf in the paper: sampling failed
            snapshot = result.selected[sensor_ids[0]]
            quality = child.quality(snapshot)
            payment = query_paid.get(child.query_id, 0.0)
            before = query.achieved_value()
            query.apply_sample(t, quality, payment)
            value_delta += query.achieved_value() - before
            samples += 1
        return samples, value_delta


@dataclass
class RegionSlotOutcome:
    """Per-query outcome of one region-monitoring slot (Algorithm 3)."""

    query_id: str
    achieved_value: float = 0.0
    planned_value: float = 0.0
    paid: float = 0.0
    contributions: dict[int, float] = field(default_factory=dict)  # sensor -> amount
    achieved_sensors: tuple[int, ...] = ()
    shared_sensors: tuple[int, ...] = ()  # the A_{r,t} extras actually used


class RegionMonitoringController:
    """Algorithm 3: derive and settle point queries for region monitoring.

    Args:
        alpha: fraction of the unspent expected slot cost that may be
            contributed towards shared sensors (paper: 0.5).
        weight_fn: eq. 18 cost-sharing weight ``w(k)``; identity (all 1.0)
            reproduces the Section 4.6 baseline's "no cost weighting".
        use_shared_sensors: fold in-region sensors selected for *other*
            queries into the achieved set (``A_{r,t}``); the baseline
            disables this.
    """

    def __init__(
        self,
        alpha: AlphaSchedule = 0.5,
        weight_fn: Callable[[int], float] = paper_weight_function,
        use_shared_sensors: bool = True,
        min_budget: float = 1e-6,
    ) -> None:
        self.alpha = alpha
        self.weight_fn = weight_fn
        self.use_shared_sensors = use_shared_sensors
        self.min_budget = min_budget

    # ------------------------------------------------------------------
    # CreatePointQueries (Function, Section 3.3)
    # ------------------------------------------------------------------
    def region_counts(
        self,
        queries: Sequence[RegionMonitoringQuery],
        sensors: Sequence[SensorSnapshot],
        t: int,
    ) -> dict[int, int]:
        """``k`` per sensor: how many active monitored regions contain it.

        One :meth:`~repro.queries.RegionMonitoringQuery.relevant_mask` pass
        per active query over the stacked announcement coordinates — no
        per-snapshot ``region.contains`` scans.
        """
        sensors = announcement_batch(sensors)
        masks = self._region_masks(queries, sensors, t)
        return self._counts_from_masks(masks, sensors)

    @staticmethod
    def _region_masks(
        queries: Sequence[RegionMonitoringQuery],
        sensors: AnnouncementBatch,
        t: int,
    ) -> dict[str, np.ndarray]:
        """One in-region mask per active query over the stacked coordinates
        (:meth:`~repro.queries.RegionMonitoringQuery.relevant_mask`)."""
        return {
            q.query_id: q.relevant_mask(sensors.xy) for q in queries if q.active(t)
        }

    @staticmethod
    def _counts_from_masks(
        masks: dict[str, np.ndarray], sensors: AnnouncementBatch
    ) -> dict[int, int]:
        total = np.zeros(len(sensors), dtype=np.int64)
        for mask in masks.values():
            total += mask
        return {int(sid): int(k) for sid, k in zip(sensors.ids, total)}

    def create_point_queries(
        self,
        queries: Sequence[RegionMonitoringQuery],
        sensors: Sequence[SensorSnapshot],
        t: int,
    ) -> tuple[list[PointQuery], dict[str, SamplingPlan]]:
        sensors = announcement_batch(sensors)
        # One mask pass per active query, shared by the k-counts and the
        # per-query in-region candidate gathers below.
        masks = self._region_masks(queries, sensors, t)
        counts = self._counts_from_masks(masks, sensors)
        children: list[PointQuery] = []
        plans: dict[str, SamplingPlan] = {}
        for query in queries:
            if not query.active(t):
                continue
            # Mask first, materialize after: only the (typically few)
            # in-region announcements become snapshot objects.
            in_region = [
                sensors[j] for j in np.flatnonzero(masks[query.query_id])
            ]
            weighted = {
                s.sensor_id: s.cost * self.weight_fn(counts[s.sensor_id])
                for s in in_region
            }
            plan = plan_sampling(query, in_region, t, weighted_costs=weighted)
            plans[query.query_id] = plan
            budget_left = query.remaining_budget
            for snapshot in plan.current:
                delta = min(plan.marginal_values[snapshot.sensor_id], budget_left)
                if delta <= self.min_budget:
                    continue
                budget_left -= delta
                children.append(
                    PointQuery(
                        location=snapshot.location,
                        budget=delta,
                        theta_min=query.theta_min,
                        dmax=query.dmax,
                        query_id=new_query_id("rmp"),
                        issued_at=t,
                        parent_id=query.query_id,
                    )
                )
        return children, plans

    # ------------------------------------------------------------------
    # ApplyResults (Procedure, Section 3.3)
    # ------------------------------------------------------------------
    def apply_results(
        self,
        queries: Sequence[RegionMonitoringQuery],
        children: Sequence[PointQuery],
        plans: dict[str, SamplingPlan],
        result: AllocationResult,
        t: int,
    ) -> list[RegionSlotOutcome]:
        """Settle each query's slot: record achieved sensors, compute the
        shared-cost contributions and return them for payment adjustment."""
        by_id = {q.query_id: q for q in queries}
        children_by_parent: dict[str, list[PointQuery]] = {}
        for child in children:
            children_by_parent.setdefault(child.parent_id, []).append(child)
        query_paid, _ = result.payment_totals()
        outcomes: list[RegionSlotOutcome] = []
        for query_id, plan in plans.items():
            query = by_id[query_id]
            own_children = children_by_parent.get(query_id, [])

            achieved: dict[int, SensorSnapshot] = {}
            paid = 0.0
            own_child_ids = set()
            for child in own_children:
                own_child_ids.add(child.query_id)
                sensor_ids = result.assignments.get(child.query_id, ())
                if not sensor_ids:
                    continue
                snapshot = result.selected[sensor_ids[0]]
                achieved[snapshot.sensor_id] = snapshot
                paid += query_paid.get(child.query_id, 0.0)

            shared: dict[int, SensorSnapshot] = {}
            if self.use_shared_sensors:
                for sid, snapshot in result.selected.items():
                    if sid in achieved:
                        continue
                    if query.region.contains(snapshot.location):
                        shared[sid] = snapshot

            # Cost contribution for the extra shared sensors, capped by
            # alpha * (C_t - C-hat_t) and by the remaining budget.
            contributions: dict[int, float] = {}
            alpha = _resolve_alpha(self.alpha, t, query)
            pool = min(
                alpha * max(0.0, plan.expected_cost - paid),
                max(0.0, query.remaining_budget - paid),
            )
            if shared and pool > 0:
                base = list(achieved.values())
                ranked = sorted(
                    shared.values(),
                    key=lambda s: query.slot_value(base + [s]),
                    reverse=True,
                )
                for snapshot in ranked:
                    if pool <= 0:
                        break
                    amount = min(pool, snapshot.cost)
                    if amount > 0:
                        contributions[snapshot.sensor_id] = amount
                        pool -= amount

            achieved_all = list(achieved.values()) + list(shared.values())
            total_payment = paid + sum(contributions.values())
            value = query.record_slot(achieved_all, plan.planned_value, total_payment)
            outcomes.append(
                RegionSlotOutcome(
                    query_id=query_id,
                    achieved_value=value,
                    planned_value=plan.planned_value,
                    paid=total_payment,
                    contributions=contributions,
                    achieved_sensors=tuple(achieved),
                    shared_sensors=tuple(shared),
                )
            )
        return outcomes

    # ------------------------------------------------------------------
    # Payment adjustment (Algorithm 5, step 5)
    # ------------------------------------------------------------------
    @staticmethod
    def adjust_payments(
        result: AllocationResult, outcomes: Sequence[RegionSlotOutcome]
    ) -> None:
        """Fold the contributions into the allocation's payment ledger.

        Each contribution towards sensor ``a`` proportionally refunds the
        queries that already paid for ``a``
        (:func:`~repro.core.payments.redistribute_contribution`) and books
        the amount against the region-monitoring query, keeping the
        sensor's income exactly equal to its cost.  A per-sensor index of
        ledger keys, in ledger order, replaces a ledger scan per
        contribution; a newly booked key joins its sensor's list, so every
        refund sums its payers in ledger order.
        """
        if not any(outcome.contributions for outcome in outcomes):
            return
        payers_of: dict[int, list[tuple[str, int]]] = {}
        for key in result.payments:
            payers_of.setdefault(key[1], []).append(key)
        for outcome in outcomes:
            for sensor_id, amount in outcome.contributions.items():
                keys = payers_of.setdefault(sensor_id, [])
                payers = {
                    key: result.payments[key]
                    for key in keys
                    if result.payments[key] > 0
                }
                refunded, applied = redistribute_contribution(payers, amount)
                if applied <= 0:
                    continue
                result.payments.update(refunded)
                key = (outcome.query_id, sensor_id)
                if key not in result.payments:
                    keys.append(key)
                result.payments[key] = result.payments.get(key, 0.0) + applied
