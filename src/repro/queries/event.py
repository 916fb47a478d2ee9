"""Event-detection queries — the extension the paper sketches but defers.

Section 2.3: "we don't specifically deal with event detection queries.
However, ... data acquisition for this type of continuous queries is very
similar to data acquisition for monitoring queries.  The main difference is
that redundant sampling might be needed to ensure the confidence requested
by the queries."

This module implements exactly that difference: an
:class:`EventDetectionQuery` (query Q3 of the paper: *notify me when
phenomenon > x with confidence > alpha at location l during [t1, t2]*)
derives, each slot, a redundant-sampling point query whose valuation pays
for additional readings only until the requested confidence is reached.

Confidence model: each reading is an independent witness whose reliability
is its eq.-(4) quality ``theta_i``; the probability that at least one
witness is faithful is ``conf(S) = 1 - prod_i (1 - theta_i)``.  The slot
valuation is ``B_slot * min(1, conf(S) / alpha)`` — monotone and submodular
in the witness set (verified by property tests), so the greedy machinery of
Algorithm 1 applies unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sensors import SensorSnapshot
from ..spatial import Location
from ..spatial.geometry import require_finite_location, require_positive
from .base import GainBlock, Query, QueryType, SensorRoster, new_query_id
from .monitoring import ContinuousQuery
from .point import _dmax_box, _PointPairBlock, _query_quality, reading_quality

__all__ = ["EventDetectionQuery", "EventSlotQuery", "detection_confidence"]


def detection_confidence(qualities: Sequence[float]) -> float:
    """``1 - prod(1 - theta_i)``: confidence from redundant readings."""
    confidence = 1.0
    for theta in qualities:
        if not (0.0 <= theta <= 1.0):
            raise ValueError("reading qualities must lie in [0, 1]")
        confidence *= 1.0 - theta
    return 1.0 - confidence


class _EventBlock(_PointPairBlock):
    """Fused event-slot gains: per-pair qualities, one failure product each.

    The scalar valuation rebuilds the witness-failure product from scratch
    per candidate; the block keeps each member's product over its committed
    witnesses with positive quality, so a candidate's new confidence is one
    multiply: ``1 - prod * (1 - theta_cand)``, then the clipped confidence
    ratio scaled by the budget.  Commits multiply the product in exactly
    the scalar :func:`detection_confidence` order.
    """

    def __init__(self, queries, roster: SensorRoster) -> None:
        super().__init__(queries, roster)
        m = len(self.queries)
        self._required = np.fromiter(
            (q.required_confidence for q in self.queries), float, m
        )
        self._failure = np.ones(m, dtype=float)

    def gain_many_block(
        self, member_idx: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        theta = self._pair_quality(member_idx, indices)
        confidence = 1.0 - self._failure[member_idx] * (1.0 - theta)
        value_new = self._budgets[member_idx] * np.minimum(
            1.0, confidence / self._required[member_idx]
        )
        return value_new - self.values[member_idx]

    def commit(self, member: int, column: int) -> float:
        query = self.queries[member]
        theta = query.quality(self.roster.snapshots[column])
        if theta > 0:
            self._failure[member] *= 1.0 - theta
        confidence = 1.0 - self._failure[member]
        value = query.budget * min(1.0, confidence / query.required_confidence)
        gain = value - self.values[member]
        self.values[member] += gain
        return float(gain)


class EventSlotQuery(Query):
    """The per-slot redundant-sampling query derived from an event query."""

    def __init__(
        self,
        location: Location,
        budget: float,
        required_confidence: float,
        theta_min: float,
        dmax: float,
        parent_id: str,
        issued_at: int = 0,
    ) -> None:
        super().__init__(budget, new_query_id("ev"), issued_at)
        if not (0.0 < required_confidence <= 1.0):
            raise ValueError("required confidence must be in (0, 1]")
        require_positive("dmax", dmax)
        require_finite_location("location", location)
        self.location = location
        self.required_confidence = required_confidence
        self.theta_min = theta_min
        self.dmax = dmax
        self.parent_id = parent_id

    @property
    def query_type(self) -> QueryType:
        return QueryType.EVENT

    def quality(self, snapshot: SensorSnapshot) -> float:
        theta = reading_quality(snapshot, self.location, self.dmax)
        return theta if theta >= self.theta_min else 0.0

    def value(self, snapshots: Sequence[SensorSnapshot]) -> float:
        qualities = [self.quality(s) for s in snapshots if self.quality(s) > 0]
        confidence = detection_confidence(qualities)
        return self.budget * min(1.0, confidence / self.required_confidence)

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

    @classmethod
    def gain_block(cls, queries, roster: SensorRoster, columns) -> GainBlock:
        return _EventBlock(queries, roster)


class EventDetectionQuery(ContinuousQuery):
    """Q3: notify when the phenomenon exceeds ``threshold`` at ``location``.

    Args:
        location: the watched location.
        threshold: the trigger level ``x``.
        confidence: the requested detection confidence ``alpha``.
        budget: total budget over the query lifetime; each slot spends at
            most ``budget / duration`` on redundant readings.
    """

    def __init__(
        self,
        location: Location,
        t1: int,
        t2: int,
        threshold: float,
        confidence: float,
        budget: float,
        theta_min: float = 0.2,
        dmax: float = 5.0,
        query_id: str | None = None,
    ) -> None:
        super().__init__(budget, t1, t2, query_id)
        if not (0.0 < confidence <= 1.0):
            raise ValueError("confidence must be in (0, 1]")
        require_positive("dmax", dmax)
        require_finite_location("location", location)
        self.location = location
        self.threshold = threshold
        self.confidence = confidence
        self.theta_min = theta_min
        self.dmax = dmax
        self.detections: list[tuple[int, float, float]] = []  # (slot, estimate, confidence)
        self.confidence_history: list[float] = []  # achieved confidence per sampled slot
        self.value_accrued = 0.0  # realized eq.-style slot values over the lifetime

    def slot_budget(self) -> float:
        """Per-slot spending cap: the remaining budget spread over the
        remaining lifetime (so early overspending cannot starve the tail)."""
        return self.budget / self.duration

    def create_slot_query(self, t: int) -> EventSlotQuery:
        """The redundant-sampling point query for slot ``t``."""
        if not self.active(t):
            raise ValueError(f"query {self.query_id} is not active at slot {t}")
        return EventSlotQuery(
            location=self.location,
            budget=min(self.slot_budget(), self.remaining_budget),
            required_confidence=self.confidence,
            theta_min=self.theta_min,
            dmax=self.dmax,
            parent_id=self.query_id,
            issued_at=t,
        )

    def apply_readings(
        self,
        t: int,
        readings: Sequence[tuple[float, float]],
        payment: float,
    ) -> bool:
        """Evaluate the slot's readings; returns True when the event fires.

        Args:
            t: the slot.
            readings: (value, quality) pairs from the allocated sensors.
            payment: what the slot's sampling cost the query.

        The estimate is the quality-weighted mean reading; the event fires
        when the estimate exceeds the threshold *and* the achieved
        confidence meets the request.
        """
        self.spent += payment
        if not readings:
            self.confidence_history.append(0.0)
            return False
        qualities = [q for _, q in readings]
        weight_sum = sum(qualities)
        achieved = detection_confidence(qualities)
        self.confidence_history.append(achieved)
        if weight_sum <= 0:
            return False
        estimate = sum(v * q for v, q in readings) / weight_sum
        if estimate > self.threshold and achieved >= self.confidence:
            self.detections.append((t, estimate, achieved))
            return True
        return False

    def record_slot(
        self,
        t: int,
        readings: Sequence[tuple[float, float]],
        achieved_value: float,
        payment: float,
    ) -> bool:
        """One slot's full settlement: readings plus the realized value the
        allocation attributed to the derived slot query.  Returns whether
        the event fired this slot."""
        self.value_accrued += achieved_value
        return self.apply_readings(t, readings, payment)

    def achieved_value(self) -> float:
        """Total realized slot value over the lifetime so far."""
        return self.value_accrued

    def quality_of_results(self) -> float:
        """Mean per-slot confidence attainment ``min(1, achieved / alpha)``
        over the slots that were sampled (0.0 when never sampled)."""
        if not self.confidence_history:
            return 0.0
        total = sum(
            min(1.0, achieved / self.confidence)
            for achieved in self.confidence_history
        )
        return total / len(self.confidence_history)
