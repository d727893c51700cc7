"""ASCII bar charts for experiment results.

The paper's figures are bar charts; ``repro-experiments`` prints tables.
This module renders an :class:`~repro.experiments.base.ExperimentResult`
column as horizontal bars so the figure's shape is visible in a terminal
(`--chart` on the CLI, or :func:`bar_chart` programmatically).
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.base import ExperimentResult


def bar_chart(
    result: ExperimentResult,
    column: str,
    *,
    width: int = 48,
    baseline: Optional[float] = None,
    label_column: int = 0,
) -> str:
    """Render one numeric column of a result as horizontal ASCII bars.

    Parameters
    ----------
    result:
        The experiment result to draw.
    column:
        Header of the numeric column to plot.
    width:
        Maximum bar width in characters.
    baseline:
        When given (e.g. ``1.0`` for speedups), bars start at the baseline
        and extend right for values above it / are marked for values
        below, which makes speedup charts readable.
    label_column:
        Which column supplies row labels (default: the first).
    """
    idx = result.headers.index(column)
    rows = [
        (str(row[label_column]), float(row[idx]))
        for row in result.rows
        if isinstance(row[idx], (int, float))
    ]
    if not rows:
        raise ValueError(f"column {column!r} has no numeric values")

    label_w = max(len(label) for label, _ in rows)
    values = [v for _, v in rows]
    lines = [f"{result.experiment_id}: {column}"]

    if baseline is None:
        top = max(values) or 1.0
        for label, v in rows:
            bar = "#" * max(1, round(width * v / top)) if v > 0 else ""
            lines.append(f"{label.rjust(label_w)} |{bar} {v:.2f}")
    else:
        spread = max(abs(v - baseline) for v in values) or 1.0
        for label, v in rows:
            n = round(width * abs(v - baseline) / spread)
            if v >= baseline:
                bar = "#" * n
                lines.append(f"{label.rjust(label_w)} |{bar} {v:.3f}")
            else:
                bar = "-" * n
                lines.append(f"{label.rjust(label_w)} |{bar} {v:.3f} (below)")
    return "\n".join(lines)
