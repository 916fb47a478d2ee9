"""Proportionate cost allocation (Section 2.1, eq. 11; Algorithm 1 line 10).

When a sensor is shared among queries, its announced cost is split among
them *in proportion to the value it yields to each*::

    pi_{q,s} = v_q(s) * c_s / (sum over beneficiaries of their values)

Because an algorithm only ever selects a sensor whose total yielded value
is at least its cost, each share is at most the corresponding value, so
every query keeps a non-negative net benefit (Theorem 1, property 3).
"""

from __future__ import annotations

from typing import Mapping, TypeVar

__all__ = ["proportionate_shares", "redistribute_contribution"]

K = TypeVar("K")


def proportionate_shares(
    values: Mapping[str, float], cost: float
) -> dict[str, float]:
    """Split ``cost`` among queries proportionally to their ``values``.

    Args:
        values: per-query value obtained from the sensor (must be > 0; a
            query that gains nothing from the sensor shares nothing).
        cost: the sensor's announced cost.

    Returns:
        Per-query payments summing exactly to ``cost`` (or to 0 when the
        beneficiary set is empty).

    Raises:
        ValueError: on a non-positive value or negative cost.
    """
    if cost < 0:
        raise ValueError("cost must be non-negative")
    if not values:
        return {}
    total = 0.0
    for qid, value in values.items():
        if value <= 0:
            raise ValueError(f"beneficiary {qid} has non-positive value {value}")
        total += value
    return {qid: value * cost / total for qid, value in values.items()}


def redistribute_contribution(
    payments: Mapping[K, float], contribution: float
) -> tuple[dict[K, float], float]:
    """Reduce existing payers' shares by an external cost contribution.

    Used by the query-mix payment adjustment (Algorithm 5, step 5,
    :meth:`~repro.core.monitoring.RegionMonitoringController.adjust_payments`):
    when a region-monitoring query contributes towards the cost of a sensor
    that other queries already paid for, those payments shrink pro rata so
    the sensor still recovers exactly its cost.

    Args:
        payments: current payments for one sensor, by payer (a query id,
            or a ``(query_id, sensor_id)`` ledger key).
        contribution: the amount the contributing query adds (clamped to
            the total of existing payments; you cannot refund more than was
            paid).

    Returns:
        ``(adjusted_payments, applied_contribution)``.
    """
    if contribution < 0:
        raise ValueError("contribution must be non-negative")
    total = sum(payments.values())
    if total <= 0 or contribution == 0:
        return (dict(payments), 0.0)
    applied = min(contribution, total)
    factor = (total - applied) / total
    return ({qid: p * factor for qid, p in payments.items()}, applied)
