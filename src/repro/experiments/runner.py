"""Sweep plumbing shared by every figure reproduction.

Besides the :class:`FigureResult` tabulation, this module owns the
**parallel sweep executor**: figure sweeps decompose into independent
cells (one engine run per sweep point × algorithm × replication), and
:func:`parallel_map` fans those cells out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Workers are fed
pickle-stable payloads — :class:`~repro.datasets.ScenarioSpec` dicts for
declared scenarios (:func:`run_specs_parallel`), frozen
:class:`~repro.datasets.Scenario` worlds plus plain parameters for the
figure sweeps — so the ``spawn`` start method works on every platform,
and each cell seeds its own generators, so parallel results are
bit-identical to serial ones.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = [
    "FigureResult",
    "SeriesCollector",
    "summary_metric",
    "parallel_map",
    "run_specs_parallel",
    "compare_scenarios",
]


@dataclass
class FigureResult:
    """One reproduced figure: an x-sweep of metrics per algorithm.

    ``series[algorithm][metric]`` is a list aligned with ``x_values`` —
    exactly the rows the paper plots.
    """

    figure_id: str
    title: str
    x_label: str
    x_values: list[float] = field(default_factory=list)
    series: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    notes: str = ""

    def add(self, algorithm: str, metric: str, value: float) -> None:
        self.series.setdefault(algorithm, {}).setdefault(metric, []).append(
            float(value)
        )

    def metric(self, algorithm: str, metric: str) -> list[float]:
        return self.series[algorithm][metric]

    # ------------------------------------------------------------------
    # shape checks used by benches and repro.experiments.validation
    # ------------------------------------------------------------------
    def dominates(
        self,
        winner: str,
        loser: str,
        metric: str,
        slack: float = 0.0,
    ) -> bool:
        """``winner``'s series is >= ``loser``'s at every x (minus slack)."""
        w = self.metric(winner, metric)
        l = self.metric(loser, metric)
        return all(a >= b - slack for a, b in zip(w, l))

    def mean_advantage(self, winner: str, loser: str, metric: str) -> float:
        """Average (winner - loser) across the sweep."""
        w = self.metric(winner, metric)
        l = self.metric(loser, metric)
        return float(sum(a - b for a, b in zip(w, l)) / len(w))


class SeriesCollector:
    """Context helper timing a figure run."""

    def __init__(self, figure: FigureResult) -> None:
        self.figure = figure
        self._start = 0.0

    def __enter__(self) -> FigureResult:
        self._start = time.perf_counter()
        return self.figure

    def __exit__(self, *exc) -> None:
        self.figure.elapsed_seconds = time.perf_counter() - self._start


def summary_metric(summary, name: str) -> float:
    """Resolve a metric name against a :class:`SimulationSummary`.

    Recognized: ``avg_utility``, ``total_utility``, ``satisfaction_ratio``,
    ``egalitarian_ratio`` and ``quality:<label>`` (e.g. ``quality:point``).
    """
    if name == "avg_utility":
        return summary.average_utility
    if name == "total_utility":
        return summary.total_utility
    if name == "satisfaction_ratio":
        return summary.satisfaction_ratio
    if name == "egalitarian_ratio":
        return summary.egalitarian_ratio
    if name.startswith("quality:"):
        return summary.average_quality(name.split(":", 1)[1])
    raise ValueError(f"unknown summary metric {name!r}")


def parallel_map(
    fn: Callable,
    argument_tuples: Sequence[tuple],
    max_workers: int | None = None,
    mp_context: str = "spawn",
) -> list:
    """``[fn(*args) for args in argument_tuples]``, optionally process-parallel.

    Results come back in submission order.  With ``max_workers`` of ``None``
    / ``0`` / ``1`` — or a single task — everything runs inline, so callers
    keep one code path for both modes.  ``fn`` must be module-level and its
    arguments picklable (``spawn`` is the default start method: slower to
    boot but safe on every platform and immune to fork/threading hazards).
    """
    tasks = list(argument_tuples)
    if not max_workers or max_workers <= 1 or len(tasks) <= 1:
        return [fn(*args) for args in tasks]
    context = multiprocessing.get_context(mp_context)
    workers = min(max_workers, len(tasks))
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = [pool.submit(fn, *args) for args in tasks]
        return [future.result() for future in futures]


def _run_spec_payload(payload: dict, n_slots: int | None):
    """Worker: rebuild a ScenarioSpec from its dict and run it."""
    from ..datasets import ScenarioSpec

    return ScenarioSpec.from_dict(payload).run(n_slots)


def run_specs_parallel(
    specs: Sequence,
    n_slots: int | None = None,
    max_workers: int | None = None,
    mp_context: str = "spawn",
) -> list:
    """Run a batch of :class:`~repro.datasets.ScenarioSpec`, one process each.

    Specs are shipped to the workers as their JSON-able dicts
    (:meth:`~repro.datasets.ScenarioSpec.to_dict`), rebuilt and run there;
    the returned :class:`~repro.core.SimulationSummary` list is aligned
    with ``specs``.  Every spec pins its own world/workload seeds, so the
    summaries are identical to a serial ``spec.run`` loop.
    """
    payloads = [(spec.to_dict(), n_slots) for spec in specs]
    return parallel_map(_run_spec_payload, payloads, max_workers, mp_context)


def compare_scenarios(
    specs: Sequence,
    n_slots: int | None = None,
    metrics: Sequence[str] = ("avg_utility", "satisfaction_ratio"),
    max_workers: int | None = None,
) -> FigureResult:
    """Run a batch of :class:`~repro.datasets.ScenarioSpec` and tabulate.

    Each spec becomes one series (keyed by its ``name``) with a single x
    point per run — the declarative counterpart of the hand-written figure
    sweeps, usable straight from the CLI or a notebook.  ``max_workers``
    fans the specs out over a process pool (:func:`run_specs_parallel`).
    """
    figure = FigureResult(
        "scenarios", "Declared scenario comparison", "run"
    )
    with SeriesCollector(figure) as fig:
        fig.x_values = [0]
        summaries = run_specs_parallel(specs, n_slots, max_workers)
        for spec, summary in zip(specs, summaries):
            for metric in metrics:
                fig.add(spec.name, metric, summary_metric(summary, metric))
    return fig
