"""Multi-seed replication: are the reproduced shapes seed-robust?

A single-seed sweep can get lucky.  :func:`replicate` reruns a figure
function over several seeds and aggregates per-algorithm/metric series into
mean and standard deviation; :func:`ordering_robustness` counts in how many
replicates one algorithm dominates another — the quantitative backing for
calling an ordering robust across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import ExperimentScale
from .runner import FigureResult, parallel_map

__all__ = ["ReplicatedResult", "replicate", "ordering_robustness"]


def _replicate_cell(
    figure_fn: Callable[..., FigureResult], scale: ExperimentScale, seed: int
) -> FigureResult:
    """Worker: one seed's figure run (module-level for process pools)."""
    return figure_fn(scale, seed=seed)


@dataclass
class ReplicatedResult:
    """Aggregate of several same-shape figure results."""

    figure_id: str
    x_values: list[float]
    seeds: list[int]
    #: series[alg][metric] -> (mean array, std array) over replicates
    series: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=dict
    )
    replicates: list[FigureResult] = field(default_factory=list)

    def mean(self, algorithm: str, metric: str) -> np.ndarray:
        return self.series[algorithm][metric][0]

    def std(self, algorithm: str, metric: str) -> np.ndarray:
        return self.series[algorithm][metric][1]

    def format(self, metric: str) -> str:
        algorithms = [a for a in self.series if metric in self.series[a]]
        lines = [f"[{metric}] mean ± std over seeds {self.seeds}"]
        for algorithm in algorithms:
            mean, std = self.series[algorithm][metric]
            cells = "  ".join(f"{m:.1f}±{s:.1f}" for m, s in zip(mean, std))
            lines.append(f"  {algorithm:<12} {cells}")
        return "\n".join(lines)


def replicate(
    figure_fn: Callable[..., FigureResult],
    scale: ExperimentScale,
    seeds: Sequence[int],
    max_workers: int | None = None,
) -> ReplicatedResult:
    """Run ``figure_fn(scale, seed=s)`` for every seed and aggregate.

    ``max_workers`` fans the replications out over a process pool — each
    seed is a fully independent simulation, so this is embarrassingly
    parallel and the aggregate is identical to the serial run.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    results = parallel_map(
        _replicate_cell, [(figure_fn, scale, int(s)) for s in seeds], max_workers
    )
    first = results[0]
    for r in results[1:]:
        if r.x_values != first.x_values:
            raise ValueError("replicates disagree on the sweep's x values")
    aggregated = ReplicatedResult(
        figure_id=first.figure_id,
        x_values=list(first.x_values),
        seeds=[int(s) for s in seeds],
        replicates=results,
    )
    for algorithm, metrics in first.series.items():
        aggregated.series[algorithm] = {}
        for metric in metrics:
            stacked = np.asarray(
                [r.series[algorithm][metric] for r in results], dtype=float
            )
            aggregated.series[algorithm][metric] = (
                stacked.mean(axis=0),
                stacked.std(axis=0),
            )
    return aggregated


def ordering_robustness(
    replicated: ReplicatedResult,
    winner: str,
    loser: str,
    metric: str,
    slack: float = 0.0,
) -> float:
    """Fraction of replicates in which ``winner`` dominates ``loser``."""
    wins = sum(
        1
        for r in replicated.replicates
        if r.dominates(winner, loser, metric, slack=slack)
    )
    return wins / len(replicated.replicates)
