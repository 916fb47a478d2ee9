"""Exact-equality signatures of slot allocations.

Two engines built from the same :class:`~repro.datasets.ScenarioSpec` must
settle every slot identically — whichever way their slot state was kept,
and whether the queries reached them through the marketplace service or
an offline batch run.  :func:`allocation_signature` is the key those
comparisons use: it canonicalizes the process-unique query ids so two
engines' outcomes compare with plain ``==`` at full float precision.
"""

from __future__ import annotations

from ..core.allocation import AllocationResult

__all__ = ["allocation_signature"]


def _id_rank(query_id: str):
    """Sort key recovering a query's generation order from its id.

    :func:`~repro.queries.base.new_query_id` produces ``<prefix><n>`` with
    ``n`` drawn from one process-global counter, so within a single
    engine's slot the numeric suffix orders queries by generation.  Two
    engines interleave on that counter and therefore disagree on the
    absolute numbers — but not on the relative order, which is all the
    canonical relabeling below needs.
    """
    digits = ""
    for ch in reversed(query_id):
        if ch.isdigit():
            digits = ch + digits
        else:
            break
    return (query_id[: len(query_id) - len(digits)], int(digits) if digits else -1)


def allocation_signature(result: AllocationResult | None):
    """The exact-equality key of one slot's allocation outcome.

    Sensor snapshots compare by identity and query ids are process-unique
    (two engines generating the *same* queries label them differently), so
    the signature reduces ``selected`` to its sorted ids and relabels
    query ids canonically by generation order before keeping the
    assignment / value / payment mappings — plain dicts of ints, floats
    and tuples, comparable with ``==`` at full float precision (the
    parity contracts are bit-identical, not approximately-equal).
    """
    if result is None:
        return None
    qids = set(result.assignments) | set(result.values)
    qids.update(qid for qid, _ in result.payments)
    ordered = sorted(qids, key=_id_rank)
    canon = {qid: f"Q{i}" for i, qid in enumerate(ordered)}
    return (
        tuple(sorted(result.selected)),
        {canon[qid]: sensors for qid, sensors in result.assignments.items()},
        {canon[qid]: value for qid, value in result.values.items()},
        {
            (canon[qid], sid): payment
            for (qid, sid), payment in result.payments.items()
        },
    )
