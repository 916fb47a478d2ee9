"""Reference allocators the parity suites check the production greedy against.

:class:`~repro.core.GreedyAllocator` runs one code path: the batch-gain
protocol with same-type gain blocks.  The two implementations it grew out
of live here as executable oracles, next to :mod:`legacy_engines`:

* :class:`ScalarGreedyAllocator` — the historical per-pair
  ``ValuationState.gain`` loop over the ``Q_{l_s}`` prefilter
  (:func:`relevant_queries_by_sensor`);
* :class:`PerRowGreedyAllocator` — the batch path with every refresh
  going through one per-row ``gain_many`` call per dirty query instead of
  the fused per-type ``gain_many_block`` passes.

Both are drop-in allocators (engines, mixes and the baselines' stage
slots accept them), so whole-engine parity runs can swap them in.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.allocation import AllocationResult, check_distinct
from repro.core.greedy import GreedyAllocator
from repro.core.payments import proportionate_shares
from repro.core.valuation import ValuationKernel
from repro.queries import PointQuery, Query, ValuationState
from repro.sensors import SensorSnapshot

__all__ = [
    "PerRowGreedyAllocator",
    "ScalarGreedyAllocator",
    "compile_greedy_as",
    "relevant_queries_by_sensor",
]


def relevant_queries_by_sensor(
    queries: Sequence[Query],
    sensors: Sequence[SensorSnapshot],
    kernel: ValuationKernel | None = None,
) -> dict[int, list[str]]:
    """The paper's ``Q_{l_s}`` prefilter: per sensor, its relevant query ids.

    With a slot kernel the single-sensor point queries are screened in one
    vectorized pass; other query types fall back to their scalar
    ``relevant``.  Query order within each sensor's list matches the input
    order exactly, as the greedy settlement depends on it.
    """
    relevant: dict[int, list[str]] = {}
    plain_points = (
        [(i, q) for i, q in enumerate(queries) if type(q) is PointQuery]
        if kernel is not None and kernel.matches(sensors)
        else []
    )
    if plain_points:
        rel = kernel.relevance([q for _, q in plain_points])
        point_pos = np.asarray([i for i, _ in plain_points], dtype=np.intp)
        others = [(i, q) for i, q in enumerate(queries) if type(q) is not PointQuery]
        for j, snapshot in enumerate(sensors):
            indices = list(point_pos[rel[:, j]])
            indices.extend(i for i, q in others if q.relevant(snapshot))
            indices.sort()
            if indices:
                relevant[snapshot.sensor_id] = [queries[i].query_id for i in indices]
    else:
        for snapshot in sensors:
            qids = [q.query_id for q in queries if q.relevant(snapshot)]
            if qids:
                relevant[snapshot.sensor_id] = qids
    return relevant


class ScalarGreedyAllocator(GreedyAllocator):
    """Algorithm 1 as a per-pair loop: the batch path's reference.

    Caches each sensor's (net utility, per-query positive gains) and, after
    a commit, re-evaluates only sensors sharing a query that just grew.
    Gains are summed with Python ``sum`` in relevant-query order — the
    addition order the batch path's column ``cumsum`` reproduces.
    """

    name = "Greedy (scalar oracle)"

    def allocate(
        self,
        queries: Sequence[Query],
        sensors: Sequence[SensorSnapshot],
        kernel: ValuationKernel | None = None,
    ) -> AllocationResult:
        check_distinct(queries, sensors)
        result = AllocationResult()
        if queries and len(sensors):
            self._allocate_scalar(queries, sensors, kernel, result)
        if self.verify:
            result.verify()
        return result

    def _allocate_scalar(
        self,
        queries: Sequence[Query],
        sensors: Sequence[SensorSnapshot],
        kernel: ValuationKernel | None,
        result: AllocationResult,
    ) -> None:
        states: dict[str, ValuationState] = {q.query_id: q.new_state() for q in queries}
        queries_by_id = {q.query_id: q for q in queries}

        # The paper's Q_{l_s}: only queries a sensor could possibly serve.
        relevant = relevant_queries_by_sensor(queries, sensors, kernel)
        remaining: dict[int, SensorSnapshot] = {
            s.sensor_id: s for s in sensors if s.sensor_id in relevant
        }

        # Cached (net utility, per-query positive gains); recomputed lazily.
        cache: dict[int, tuple[float, dict[str, float]]] = {}
        dirty = set(remaining)

        while remaining:
            for sid in dirty:
                if sid not in remaining:
                    continue
                snapshot = remaining[sid]
                gains: dict[str, float] = {}
                for qid in relevant[sid]:
                    gain = states[qid].gain(snapshot)
                    if gain > self.min_gain:
                        gains[qid] = gain
                cache[sid] = (sum(gains.values()) - snapshot.cost, gains)
            dirty.clear()

            best_sid = max(remaining, key=lambda sid: cache[sid][0])
            best_net, best_gains = cache[best_sid]
            if best_net <= 0.0 or not best_gains:
                break

            snapshot = remaining.pop(best_sid)
            cache.pop(best_sid, None)
            shares = proportionate_shares(best_gains, snapshot.cost)
            for qid, gain in best_gains.items():
                realized = states[qid].add(snapshot)
                if abs(realized - gain) > 1e-6 * max(1.0, abs(gain)):
                    raise RuntimeError(
                        f"query {qid} marginal gain drifted: cached {gain}, "
                        f"realized {realized}"
                    )
                result.record(queries_by_id[qid], snapshot, gain, shares[qid])

            # Invalidate sensors sharing any query that just grew.
            touched = set(best_gains)
            for sid in remaining:
                if touched.intersection(relevant[sid]):
                    dirty.add(sid)


class PerRowGreedyAllocator(GreedyAllocator):
    """The batch path with per-row ``gain_many`` refreshes: no gain blocks.

    Every dirty query re-evaluates its relevant live columns with its own
    batch state's ``gain_many``; the fused block evaluators must match it
    bit-for-bit.
    """

    name = "Greedy (per-row oracle)"

    @staticmethod
    def _build_blocks(batches: list) -> None:
        return None

    def _refresh_rows(self, gain_matrix, relevance, batches, rows, columns, groups):
        for row in rows:
            # Only the query's *relevant* columns are evaluated — irrelevant
            # entries are zero-initialized and never change.
            targets = columns[relevance[row, columns]]
            if targets.size == 0:
                continue
            gains = batches[row].gain_many(targets)
            gain_matrix[row, targets] = np.where(gains > self.min_gain, gains, 0.0)


def compile_greedy_as(monkeypatch, allocator_cls) -> None:
    """Make scenario specs compile their ``"greedy"`` allocator as
    ``allocator_cls`` for the rest of the test (or ``monkeypatch`` scope).

    :meth:`~repro.datasets.ScenarioSpec.build` imports the allocator class
    at call time, so every engine built while the patch is active — the
    service's, the offline replay's, both sides of ``replay_spec`` — runs
    the oracle.
    """
    monkeypatch.setattr("repro.core.greedy.GreedyAllocator", allocator_cls)
