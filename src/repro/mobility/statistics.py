"""Trace statistics: the quantities the dataset substitutes must match.

The RNC substitute is credible exactly to the extent that the statistics
the algorithms consume match the paper's published ones.  This module
computes them from any :class:`~repro.mobility.trace.MobilityTrace` — ours
or a user-supplied real one — so substitutes can be validated (and
recalibrated) quantitatively:

* per-slot presence inside a working region (mean / min / max);
* churn: how many sensors enter and leave the region per slot;
* dwell: distribution of consecutive-slot stays inside the region;
* displacement: per-slot movement distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..spatial import Region
from .base import MobilityModel
from .trace import MobilityTrace

__all__ = ["TraceStatistics", "compute_statistics", "ChurnStatistics", "compute_churn"]


@dataclass(frozen=True)
class TraceStatistics:
    """Summary of one trace relative to a working region."""

    n_slots: int
    n_sensors: int
    mean_presence: float
    min_presence: int
    max_presence: int
    mean_entries_per_slot: float
    mean_exits_per_slot: float
    mean_dwell: float
    median_step: float
    p90_step: float

    def format(self) -> str:
        return "\n".join(
            [
                f"slots={self.n_slots} sensors={self.n_sensors}",
                (
                    f"presence: mean={self.mean_presence:.1f} "
                    f"min={self.min_presence} max={self.max_presence}"
                ),
                (
                    f"churn/slot: entries={self.mean_entries_per_slot:.1f} "
                    f"exits={self.mean_exits_per_slot:.1f}"
                ),
                f"dwell (slots in region): mean={self.mean_dwell:.1f}",
                f"step length: median={self.median_step:.2f} p90={self.p90_step:.2f}",
            ]
        )


def compute_statistics(trace: MobilityTrace, working_region: Region) -> TraceStatistics:
    """All substitute-validation statistics in one pass over the trace."""
    inside = np.zeros((trace.n_slots, trace.n_sensors), dtype=bool)
    for t, frame in enumerate(trace.frames):
        for i, location in enumerate(frame):
            inside[t, i] = working_region.contains(location)

    presence = inside.sum(axis=1)

    if trace.n_slots > 1:
        entered = (~inside[:-1] & inside[1:]).sum(axis=1)
        exited = (inside[:-1] & ~inside[1:]).sum(axis=1)
        mean_entries = float(entered.mean())
        mean_exits = float(exited.mean())
    else:
        mean_entries = mean_exits = 0.0

    # Dwell: lengths of maximal runs of consecutive in-region slots.
    dwells: list[int] = []
    for i in range(trace.n_sensors):
        run = 0
        for t in range(trace.n_slots):
            if inside[t, i]:
                run += 1
            elif run:
                dwells.append(run)
                run = 0
        if run:
            dwells.append(run)
    mean_dwell = float(np.mean(dwells)) if dwells else 0.0

    # Step lengths between consecutive frames.
    steps: list[float] = []
    for t in range(1, trace.n_slots):
        for a, b in zip(trace.frames[t - 1], trace.frames[t]):
            steps.append(a.distance_to(b))
    if steps:
        median_step = float(np.median(steps))
        p90_step = float(np.percentile(steps, 90))
    else:
        median_step = p90_step = 0.0

    return TraceStatistics(
        n_slots=trace.n_slots,
        n_sensors=trace.n_sensors,
        mean_presence=float(presence.mean()),
        min_presence=int(presence.min()),
        max_presence=int(presence.max()),
        mean_entries_per_slot=mean_entries,
        mean_exits_per_slot=mean_exits,
        mean_dwell=mean_dwell,
        median_step=median_step,
        p90_step=p90_step,
    )


@dataclass(frozen=True)
class ChurnStatistics:
    """Per-slot movement churn of a mobility model or recorded trace.

    How much of a fleet moves from slot to slot:

    * ``moved_fraction[t]`` — fraction of sensors whose coordinates
      changed between slot ``t-1`` and slot ``t`` (slot 0 is 0.0 by
      convention: there is no prior frame);
    * ``crossing_rate[t]`` — fraction whose containing grid cell (side
      ``cell_size``) changed, i.e. the movers that also force spatial-index
      bucket moves.

    ``crossing_rate <= moved_fraction`` holds slot by slot: a sensor can
    move within its cell, but cannot cross cells without moving.
    """

    cell_size: float
    moved_fraction: np.ndarray
    crossing_rate: np.ndarray

    @property
    def n_slots(self) -> int:
        return len(self.moved_fraction)

    @property
    def mean_moved_fraction(self) -> float:
        if self.n_slots <= 1:
            return 0.0
        return float(self.moved_fraction[1:].mean())

    @property
    def mean_crossing_rate(self) -> float:
        if self.n_slots <= 1:
            return 0.0
        return float(self.crossing_rate[1:].mean())

    def format(self) -> str:
        return (
            f"churn over {self.n_slots} slots (cell={self.cell_size:g}): "
            f"moved={self.mean_moved_fraction:.4f} "
            f"crossed={self.mean_crossing_rate:.4f}"
        )


def compute_churn(
    model: MobilityModel | MobilityTrace,
    n_slots: int | None = None,
    cell_size: float = 1.0,
) -> ChurnStatistics:
    """Per-slot moved-sensor fraction and cell-crossing rate.

    Works on any :class:`~repro.mobility.base.MobilityModel` (the model is
    advanced ``n_slots - 1`` times) or directly on a recorded
    :class:`~repro.mobility.trace.MobilityTrace` (``n_slots`` defaults to
    the trace length).  The replay harness reports these next to per-slot
    latencies so speedups can be read against the churn that produced them.
    """
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    if isinstance(model, MobilityTrace):
        trace = model
        frames = [trace.frame_xy(t) for t in range(trace.n_slots)]
        if n_slots is not None:
            if n_slots > len(frames):
                raise ValueError(
                    f"trace has {len(frames)} slots, asked for {n_slots}"
                )
            frames = frames[:n_slots]
    else:
        if n_slots is None:
            raise ValueError("n_slots is required for a live MobilityModel")
        frames = model.run_xy(n_slots)
    if not frames:
        raise ValueError("need at least one slot")

    n = len(frames[0])
    moved = np.zeros(len(frames))
    crossed = np.zeros(len(frames))
    prev = frames[0]
    prev_cells = np.floor(prev / cell_size).astype(np.int64)
    for t in range(1, len(frames)):
        cur = frames[t]
        cells = np.floor(cur / cell_size).astype(np.int64)
        moved[t] = (cur != prev).any(axis=1).sum() / n
        crossed[t] = (cells != prev_cells).any(axis=1).sum() / n
        prev, prev_cells = cur, cells

    moved.setflags(write=False)
    crossed.setflags(write=False)
    return ChurnStatistics(
        cell_size=float(cell_size), moved_fraction=moved, crossing_rate=crossed
    )
