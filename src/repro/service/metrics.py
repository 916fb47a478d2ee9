"""Observability for the streaming marketplace service.

The service's SLO story is latency + admission honesty: every tick it
feeds the engine's per-phase wall-times
(:attr:`~repro.core.engine.SlotEngine.last_timings`) into fixed
log-spaced latency histograms (:class:`LatencyHistogram`), counts every
submission outcome (admitted / rejected-by-reason / settled / answered),
and samples the queue depth — all O(1) per observation, so a month-long
service run holds constant-size aggregates plus one
:class:`SlotMetrics` snapshot per slot (mirroring the engine's own
one-:class:`~repro.core.metrics.SlotRecord`-per-slot growth).

:func:`summary_payload` is the one JSON serializer for run summaries:
``repro scenario --json``, ``repro scenario --out`` and the service's
:meth:`ServiceMetrics.payload` all emit it, so batch runs and service
runs are machine-comparable field for field.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..core.engine import PHASES
from ..core.metrics import RunningStat, SimulationSummary

__all__ = [
    "LatencyHistogram",
    "SlotMetrics",
    "ServiceMetrics",
    "phase_totals",
    "summary_payload",
]


class LatencyHistogram:
    """Fixed log-spaced latency buckets with streaming quantile estimates.

    Buckets span ``[lowest, highest]`` seconds at ``buckets_per_decade``
    resolution (defaults give ~7% relative bucket width), plus one
    overflow bucket.  :meth:`observe` is O(log buckets); quantiles are
    read from the cumulative counts and reported as the bucket's
    geometric midpoint clipped to the observed min/max — an estimate
    with bounded relative error, which is what an SLO dashboard needs
    (the exact per-slot timings stay available in the snapshots).
    """

    def __init__(
        self,
        lowest: float = 1e-6,
        highest: float = 600.0,
        buckets_per_decade: int = 15,
    ) -> None:
        if not (0 < lowest < highest):
            raise ValueError("need 0 < lowest < highest")
        decades = math.log10(highest / lowest)
        n = int(math.ceil(decades * buckets_per_decade)) + 1
        #: upper bound of each bucket; observations beyond the last bound
        #: land in the overflow bucket.
        self.bounds = lowest * np.power(10.0, np.arange(n) / buckets_per_decade)
        self.counts = np.zeros(n + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        idx = int(np.searchsorted(self.bounds, seconds, side="left"))
        self.counts[idx] += 1
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile in seconds (0 with no observations)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, int(math.ceil(q * self.count)))
        cum = int(np.searchsorted(np.cumsum(self.counts), rank))
        if cum >= len(self.bounds):  # overflow bucket
            return self.max
        upper = float(self.bounds[cum])
        lower = float(self.bounds[cum - 1]) if cum > 0 else upper / 10.0
        mid = math.sqrt(lower * upper)
        return min(max(mid, self.min), self.max)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def snapshot(self) -> dict[str, float]:
        return {
            "count": int(self.count),
            "mean_seconds": self.mean,
            "p50_seconds": self.p50,
            "p99_seconds": self.p99,
            "min_seconds": 0.0 if self.count == 0 else self.min,
            "max_seconds": self.max,
        }


@dataclass(frozen=True)
class SlotMetrics:
    """One tick's service-side snapshot (queue + admission + latency)."""

    slot: int
    admitted: int
    rejected: int
    queue_depth: int
    issued: int
    answered: int
    value: float
    cost: float
    slot_seconds: float
    timings: dict[str, float]
    #: cumulative slot-latency quantiles *as of this slot* — the rolling
    #: SLO a live dashboard would plot.
    p50_seconds: float
    p99_seconds: float
    #: error class of a tick whose engine step raised ("" when it ran)
    failed: str = ""


@dataclass
class ServiceMetrics:
    """Aggregated service observability: counters, gauges, histograms.

    All counters are monotone; the queue-depth gauge and admission-wait
    stats stream through :class:`~repro.core.metrics.RunningStat`; the
    per-phase and whole-slot latency histograms are
    :class:`LatencyHistogram` instances keyed by
    :data:`~repro.core.engine.PHASES` (+ ``"slot"`` for the total).
    ``failed`` counts ticks whose engine step raised, per error class;
    such a tick adds a :class:`SlotMetrics` row with ``failed`` set and
    feeds no latency histogram.
    """

    submitted: int = 0
    admitted: int = 0
    settled: int = 0
    answered: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    queue_depth: RunningStat = field(default_factory=RunningStat)
    max_queue_depth: int = 0
    admission_wait_ticks: RunningStat = field(default_factory=RunningStat)
    max_admission_wait: int = 0
    phase_latency: dict[str, LatencyHistogram] = field(
        default_factory=lambda: {p: LatencyHistogram() for p in PHASES}
    )
    slot_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    slots: list[SlotMetrics] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())

    def observe_submit(self, accepted: bool, reason: str | None = None) -> None:
        self.submitted += 1
        if not accepted:
            key = reason or "rejected"
            self.rejected[key] = self.rejected.get(key, 0) + 1

    def observe_admission(self, waits: list[int]) -> None:
        self.admitted += len(waits)
        for wait in waits:
            self.admission_wait_ticks.add(float(wait))
            if wait > self.max_admission_wait:
                self.max_admission_wait = int(wait)

    def observe_queue_depth(self, depth: int) -> None:
        self.queue_depth.add(float(depth))
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    def observe_slot(
        self,
        slot: int,
        *,
        admitted: int,
        rejected: int,
        queue_depth: int,
        record,
        timings: dict[str, float],
    ) -> SlotMetrics:
        """Fold one settled tick in and return its snapshot."""
        total = float(sum(timings.values()))
        for phase, seconds in timings.items():
            hist = self.phase_latency.get(phase)
            if hist is None:
                hist = self.phase_latency.setdefault(phase, LatencyHistogram())
            hist.observe(seconds)
        self.slot_latency.observe(total)
        self.settled += record.issued
        self.answered += record.answered
        self.observe_queue_depth(queue_depth)
        snap = SlotMetrics(
            slot=slot,
            admitted=admitted,
            rejected=rejected,
            queue_depth=queue_depth,
            issued=record.issued,
            answered=record.answered,
            value=record.value,
            cost=record.cost,
            slot_seconds=total,
            timings=dict(timings),
            p50_seconds=self.slot_latency.p50,
            p99_seconds=self.slot_latency.p99,
        )
        self.slots.append(snap)
        return snap

    def observe_failure(
        self,
        slot: int,
        error: str,
        *,
        admitted: int,
        rejected: int,
        queue_depth: int,
    ) -> SlotMetrics:
        """Count a tick whose engine step raised ``error`` (a class name)."""
        self.failed[error] = self.failed.get(error, 0) + 1
        self.observe_queue_depth(queue_depth)
        snap = SlotMetrics(
            slot=slot,
            admitted=admitted,
            rejected=rejected,
            queue_depth=queue_depth,
            issued=0,
            answered=0,
            value=0.0,
            cost=0.0,
            slot_seconds=0.0,
            timings={},
            p50_seconds=self.slot_latency.p50,
            p99_seconds=self.slot_latency.p99,
            failed=error,
        )
        self.slots.append(snap)
        return snap

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def payload(self) -> dict[str, Any]:
        """JSON-able snapshot: counters + SLO latencies + per-slot rows."""
        return {
            "counters": {
                "submitted": self.submitted,
                "admitted": self.admitted,
                "rejected": dict(sorted(self.rejected.items())),
                "rejected_total": self.rejected_total,
                "failed": dict(sorted(self.failed.items())),
                "failed_total": self.failed_total,
                "settled": self.settled,
                "answered": self.answered,
            },
            "queue": {
                "mean_depth": self.queue_depth.mean,
                "max_depth": self.max_queue_depth,
                "mean_admission_wait_ticks": self.admission_wait_ticks.mean,
                "max_admission_wait_ticks": self.max_admission_wait,
            },
            "latency": {
                "slot": self.slot_latency.snapshot(),
                "phases": {
                    phase: hist.snapshot()
                    for phase, hist in self.phase_latency.items()
                },
            },
            "slots": [
                {
                    "slot": s.slot,
                    "admitted": s.admitted,
                    "rejected": s.rejected,
                    "queue_depth": s.queue_depth,
                    "issued": s.issued,
                    "answered": s.answered,
                    "value": s.value,
                    "cost": s.cost,
                    "slot_seconds": s.slot_seconds,
                    "p50_seconds": s.p50_seconds,
                    "p99_seconds": s.p99_seconds,
                    "failed": s.failed,
                    **{f"t_{p}": s.timings.get(p, 0.0) for p in PHASES},
                }
                for s in self.slots
            ],
        }

    def write_json(self, path: str | Path, *, extra: dict | None = None) -> None:
        payload = self.payload()
        if extra:
            payload = {**extra, "service": payload}
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))

    def write_csv(self, path: str | Path) -> None:
        """Per-slot CSV: admission, queue depth, phase + rolling p50/p99.

        The last column, ``failed``, names the error class of a tick
        whose engine step raised (empty for slots that ran).
        """
        with Path(path).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["slot", "admitted", "rejected", "queue_depth", "issued",
                 "answered", "slot_seconds", "p50_seconds", "p99_seconds"]
                + [f"t_{p}" for p in PHASES]
                + ["failed"]
            )
            for s in self.slots:
                writer.writerow(
                    [s.slot, s.admitted, s.rejected, s.queue_depth, s.issued,
                     s.answered, f"{s.slot_seconds:.9f}",
                     f"{s.p50_seconds:.9f}", f"{s.p99_seconds:.9f}"]
                    + [f"{s.timings.get(p, 0.0):.9f}" for p in PHASES]
                    + [s.failed]
                )


# ----------------------------------------------------------------------
# the shared run serializer (batch CLI + service exporter)
# ----------------------------------------------------------------------
def phase_totals(summary: SimulationSummary) -> dict[str, float]:
    """Total seconds per engine phase from profiled slot extras.

    Empty when the run was not profiled (``engine.profile`` off) — the
    ``t_<phase>`` extras simply are not there.
    """
    totals: dict[str, float] = {}
    for phase in PHASES:
        key = f"t_{phase}"
        seconds = [r.extras[key] for r in summary.slots if key in r.extras]
        if seconds:
            totals[phase] = float(sum(seconds))
    return totals


def summary_payload(
    spec_dict: dict[str, Any] | None,
    n_slots: int,
    summary: SimulationSummary,
    *,
    name: str | None = None,
) -> dict[str, Any]:
    """The canonical machine-readable form of one run's summary.

    Shared by ``repro scenario --json`` / ``--out`` and the service
    metrics exporter, so batch and service runs serialize identically:
    headline metrics, per-label quality means, per-phase timing totals
    (when profiled), and the per-slot records.
    """
    payload: dict[str, Any] = {
        "name": name if name is not None else (spec_dict or {}).get("name"),
        "spec": spec_dict,
        "n_slots": n_slots,
        "average_utility": summary.average_utility,
        "satisfaction_ratio": summary.satisfaction_ratio,
        "egalitarian_ratio": summary.egalitarian_ratio,
        "quality": {
            label: summary.average_quality(label)
            for label in summary.quality_stats
        },
        "phase_timings": phase_totals(summary),
        "slots": [
            {
                "slot": r.slot,
                "value": r.value,
                "cost": r.cost,
                "issued": r.issued,
                "answered": r.answered,
                "extras": r.extras,
            }
            for r in summary.slots
        ],
    }
    return payload
