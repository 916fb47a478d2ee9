"""Plain-text rendering of reproduced figures.

The paper's figures are line plots; we print the underlying series as
aligned tables (one row per x value, one column per algorithm), which is
what the CLI and the benches emit.
"""

from __future__ import annotations

from .runner import FigureResult

__all__ = ["format_figure", "format_metric_table", "ascii_chart"]


def ascii_chart(
    result: FigureResult,
    metric: str,
    width: int = 60,
    height: int = 12,
) -> str:
    """A terminal line chart of one metric across the sweep.

    One symbol per algorithm; points are plotted on a character canvas and
    the y-range annotated — enough to eyeball the crossovers the paper's
    figures show without a plotting stack.
    """
    algorithms = [a for a in result.series if metric in result.series[a]]
    if not algorithms or not result.x_values:
        return f"(no series for metric {metric!r})"
    symbols = "ox+*#@%&"
    all_values = [v for a in algorithms for v in result.series[a][metric]]
    lo, hi = min(all_values), max(all_values)
    if hi == lo:
        hi = lo + 1.0
    canvas = [[" "] * width for _ in range(height)]
    n = len(result.x_values)
    for ai, algorithm in enumerate(algorithms):
        series = result.series[algorithm][metric]
        for i, value in enumerate(series):
            col = 0 if n == 1 else int(round(i * (width - 1) / (n - 1)))
            row = int(round((value - lo) / (hi - lo) * (height - 1)))
            canvas[height - 1 - row][col] = symbols[ai % len(symbols)]
    lines = [f"[{metric}]  y: {lo:.3g} .. {hi:.3g}"]
    lines.extend("|" + "".join(row) for row in canvas)
    lines.append("+" + "-" * width)
    x_lo, x_hi = result.x_values[0], result.x_values[-1]
    lines.append(f" x: {x_lo:g} .. {x_hi:g} ({result.x_label})")
    lines.append(
        "   " + "  ".join(f"{symbols[i % len(symbols)]}={a}" for i, a in enumerate(algorithms))
    )
    return "\n".join(lines)


def format_metric_table(result: FigureResult, metric: str) -> str:
    """One metric as an aligned table over the sweep."""
    algorithms = [a for a in result.series if metric in result.series[a]]
    if not algorithms:
        return f"(no series for metric {metric!r})"
    header = [result.x_label] + algorithms
    rows: list[list[str]] = []
    for i, x in enumerate(result.x_values):
        row = [f"{x:g}"]
        for algorithm in algorithms:
            series = result.series[algorithm][metric]
            row.append(f"{series[i]:.3f}" if i < len(series) else "-")
        rows.append(row)
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_figure(result: FigureResult) -> str:
    """Every metric of a figure, titled, ready for the terminal."""
    metrics: list[str] = []
    for per_alg in result.series.values():
        for metric in per_alg:
            if metric not in metrics:
                metrics.append(metric)
    blocks = [f"== {result.figure_id}: {result.title} =="]
    if result.elapsed_seconds:
        blocks[0] += f"  ({result.elapsed_seconds:.1f}s)"
    for metric in metrics:
        blocks.append(f"\n[{metric}]")
        blocks.append(format_metric_table(result, metric))
    if result.notes:
        blocks.append(f"\nnotes: {result.notes}")
    return "\n".join(blocks)
