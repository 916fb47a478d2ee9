"""Shape validation: the paper's Section 4 findings as an executable checklist.

Every qualitative relationship the reproduction must exhibit ("who wins,
where the baseline collapses, what converges") is encoded as a named check
over a :class:`~repro.experiments.runner.FigureResult`.  The benches assert
the most important ones inline; :func:`validate_figure` runs the complete
checklist for a figure and returns a structured report, which the CLI and
EXPERIMENTS tooling can render.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .runner import FigureResult

__all__ = ["CheckResult", "validate_figure", "CHECKLISTS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def format(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name}{suffix}"


def _dominance(winner: str, loser: str, metric: str, slack: float = 1e-9):
    def check(result: FigureResult) -> CheckResult:
        ok = result.dominates(winner, loser, metric, slack=slack)
        return CheckResult(
            f"{winner} >= {loser} on {metric}",
            ok,
            f"mean advantage {result.mean_advantage(winner, loser, metric):.2f}",
        )

    return check


def _collapses_at_first_x(algorithm: str, metric: str, threshold: float = 1e-6):
    def check(result: FigureResult) -> CheckResult:
        value = result.metric(algorithm, metric)[0]
        return CheckResult(
            f"{algorithm} ~0 on {metric} at smallest x",
            value <= threshold,
            f"value {value:.3f}",
        )

    return check


def _grows(algorithm: str, metric: str):
    def check(result: FigureResult) -> CheckResult:
        series = result.metric(algorithm, metric)
        return CheckResult(
            f"{algorithm} grows on {metric}",
            series[-1] > series[0],
            f"{series[0]:.2f} -> {series[-1]:.2f}",
        )

    return check


def _close(a: str, b: str, metric: str, rel: float = 0.1):
    def check(result: FigureResult) -> CheckResult:
        sa = result.metric(a, metric)
        sb = result.metric(b, metric)
        ok = all(
            abs(x - y) <= rel * max(abs(x), abs(y), 1e-9) for x, y in zip(sa, sb)
        )
        return CheckResult(f"{a} tracks {b} on {metric} (within {rel:.0%})", ok)

    return check


#: figure id -> list of checks (the shape each reproduced figure must have)
CHECKLISTS: dict[str, list[Callable[[FigureResult], CheckResult]]] = {
    "fig2": [
        _dominance("Optimal", "Baseline", "avg_utility"),
        _dominance("LocalSearch", "Baseline", "avg_utility"),
        _dominance("Optimal", "LocalSearch", "avg_utility", slack=1e-6),
        _close("LocalSearch", "Optimal", "avg_utility"),
        _collapses_at_first_x("Baseline", "satisfaction_ratio"),
        _grows("Optimal", "avg_utility"),
    ],
    "fig3": [
        _dominance("Optimal", "Baseline", "avg_utility"),
        _close("LocalSearch", "Optimal", "avg_utility"),
        _collapses_at_first_x("Baseline", "satisfaction_ratio"),
        _grows("Optimal", "avg_utility"),
    ],
    "fig4": [
        _dominance("Optimal", "Baseline", "avg_utility"),
        _grows("Optimal", "avg_utility"),
    ],
    "fig5": [
        _dominance("Optimal", "Baseline", "avg_utility"),
        _grows("Optimal", "avg_utility"),
        _grows("Optimal", "satisfaction_ratio"),
    ],
    "fig6": [
        _dominance("Optimal", "Baseline", "avg_utility_l50"),
        _dominance("Optimal", "Baseline", "avg_utility_l25"),
        _close("Optimal", "Optimal", "avg_utility_l50", rel=1.0),
    ],
    "fig7": [
        _dominance("Greedy", "Baseline", "avg_utility"),
        _grows("Greedy", "avg_utility"),
    ],
    "fig8": [
        _grows("Alg2-O", "avg_utility"),
        _close("Alg2-LS", "Alg2-O", "avg_utility", rel=0.15),
    ],
    "fig9": [
        _dominance("Alg3", "Baseline", "avg_utility"),
        _dominance("Alg3", "Baseline", "avg_quality"),
        _grows("Alg3", "avg_quality"),
    ],
    "fig10": [
        _dominance("Alg5", "Baseline", "avg_utility"),
        _dominance("Alg5", "Baseline", "quality_location_monitoring"),
        _grows("Alg5", "avg_utility"),
    ],
}


def validate_figure(result: FigureResult) -> list[CheckResult]:
    """Run the figure's checklist; unknown figures get an empty report."""
    checks = CHECKLISTS.get(result.figure_id, [])
    report = []
    for check in checks:
        try:
            report.append(check(result))
        except (KeyError, IndexError) as exc:
            report.append(
                CheckResult(getattr(check, "__name__", "check"), False, f"error: {exc}")
            )
    return report
