"""Adaptation replay: full-rebuild vs incremental engines, slot by slot.

The incremental slot-state path (``incremental="auto"``) promises two
things: per-slot work proportional to churn, and *bit-identical*
allocations and payments.  This harness checks both at once.  It builds
two engines from the same :class:`~repro.datasets.ScenarioSpec` — one
rebuilding announcements/kernels/rasters from scratch every slot, one
patching them from the per-slot :class:`~repro.sensors.SlotDelta` — and
steps them in lockstep.  Every slot it

* compares the two :class:`~repro.core.AllocationResult` outcomes with
  exact ``==`` (selected sensors, per-query assignments, values, and the
  individual cost shares);
* records both engines' per-phase wall-times (announce / kernel build /
  allocation / settlement, :data:`~repro.core.engine.PHASES`);
* records the slot's churn fraction from the delta (fresh announcement
  columns over batch size).

``repro replay spec.json --csv out.csv`` runs it from the command line on
any ``examples/specs/*.json``; the parity suite runs it across fleets ×
kernels in CI.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

from ..core.allocation import AllocationResult
from ..core.engine import PHASES

__all__ = ["ReplaySlot", "ReplayReport", "allocation_signature", "replay_spec"]


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
    incremental contract is bit-identical, not approximately-equal).
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


@dataclass(frozen=True)
class ReplaySlot:
    """One lockstep slot: parity flag, churn, and both engines' timings."""

    t: int
    parity: bool
    churn_fraction: float
    full_timings: dict[str, float]
    incremental_timings: dict[str, float]

    @property
    def full_total(self) -> float:
        return float(sum(self.full_timings.values()))

    @property
    def incremental_total(self) -> float:
        return float(sum(self.incremental_timings.values()))


@dataclass(frozen=True)
class ReplayReport:
    """The whole replay: per-slot rows plus run-level summaries."""

    name: str
    n_slots: int
    slots: tuple[ReplaySlot, ...]

    @property
    def parity(self) -> bool:
        """Whether every slot's allocation and payments matched exactly."""
        return all(s.parity for s in self.slots)

    @property
    def mean_churn(self) -> float:
        if not self.slots:
            return 0.0
        return float(sum(s.churn_fraction for s in self.slots) / len(self.slots))

    def phase_totals(self) -> dict[str, tuple[float, float]]:
        """Per phase: (full seconds, incremental seconds) over the run."""
        out: dict[str, tuple[float, float]] = {}
        for phase in PHASES:
            full = sum(s.full_timings.get(phase, 0.0) for s in self.slots)
            inc = sum(s.incremental_timings.get(phase, 0.0) for s in self.slots)
            out[phase] = (float(full), float(inc))
        return out

    def format(self) -> str:
        lines = [
            f"{self.name}: {self.n_slots} slots, "
            f"mean churn {self.mean_churn:.3%}, "
            f"parity {'OK' if self.parity else 'BROKEN'}"
        ]
        for phase, (full, inc) in self.phase_totals().items():
            ratio = full / inc if inc > 0 else float("inf")
            lines.append(
                f"  {phase:<9} full={full * 1e3:9.2f}ms "
                f"incremental={inc * 1e3:9.2f}ms  ({ratio:5.2f}x)"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def write_csv(self, path: str | Path) -> None:
        """Per-slot CSV: latency per phase for both engines, churn, parity."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["slot", "churn_fraction", "parity"]
                + [f"t_{p}_full" for p in PHASES]
                + [f"t_{p}_incremental" for p in PHASES]
            )
            for s in self.slots:
                writer.writerow(
                    [s.t, f"{s.churn_fraction:.6f}", int(s.parity)]
                    + [f"{s.full_timings.get(p, 0.0):.9f}" for p in PHASES]
                    + [
                        f"{s.incremental_timings.get(p, 0.0):.9f}"
                        for p in PHASES
                    ]
                )


def replay_spec(spec, n_slots: int | None = None) -> ReplayReport:
    """Replay ``spec`` against full-rebuild and incremental engines.

    Both engines are compiled from the same spec (identical world seed,
    fleet seed and workload seed), differing only in the ``incremental``
    knob, and stepped in lockstep for ``n_slots`` slots (default: the
    spec's).  Per-slot allocation parity is checked with
    :func:`allocation_signature` equality — exact, not approximate.
    """
    from ..core.metrics import SimulationSummary

    n = n_slots if n_slots is not None else spec.n_slots
    full_engine = replace(spec, incremental=False).build()
    inc_engine = replace(spec, incremental="auto").build()
    full_summary = SimulationSummary()
    inc_summary = SimulationSummary()

    slots: list[ReplaySlot] = []
    for t in range(n):
        full_engine.step(full_summary)
        inc_engine.step(inc_summary)
        delta = inc_engine.last_delta
        churn = float(delta.churn_fraction) if delta is not None else 1.0
        slots.append(
            ReplaySlot(
                t=t,
                parity=(
                    allocation_signature(full_engine.last_result)
                    == allocation_signature(inc_engine.last_result)
                ),
                churn_fraction=churn,
                full_timings=dict(full_engine.last_timings),
                incremental_timings=dict(inc_engine.last_timings),
            )
        )

    return ReplayReport(name=spec.name, n_slots=n, slots=tuple(slots))
