"""Experiment harness: one function per figure of the paper's evaluation."""

from .config import CI, PAPER, ExperimentScale, get_scale
from .figures import (
    ALL_FIGURES,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig_event,
    trust_sweep,
)
from .replay import allocation_signature
from .reporting import ascii_chart, format_figure, format_metric_table
from .robustness import ReplicatedResult, ordering_robustness, replicate
from .runner import (
    FigureResult,
    SeriesCollector,
    compare_scenarios,
    parallel_map,
    run_specs_parallel,
    summary_metric,
)
from .validation import CHECKLISTS, CheckResult, validate_figure

__all__ = [
    "ExperimentScale",
    "PAPER",
    "CI",
    "get_scale",
    "FigureResult",
    "SeriesCollector",
    "compare_scenarios",
    "parallel_map",
    "run_specs_parallel",
    "summary_metric",
    "format_figure",
    "format_metric_table",
    "ascii_chart",
    "allocation_signature",
    "ReplicatedResult",
    "replicate",
    "ordering_robustness",
    "CheckResult",
    "validate_figure",
    "CHECKLISTS",
    "ALL_FIGURES",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig_event",
    "trust_sweep",
]
