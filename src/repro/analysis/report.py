"""ASCII reporting helpers used by the benchmarks and examples.

Every benchmark regenerates a paper table/figure as text; these helpers keep
the formatting consistent (fixed-width tables, normalized "1×/2.6×" ratio
columns, simple sparkline-style series for figures).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
    rule_before: set[int] | frozenset[int] | None = None,
) -> str:
    """Render a fixed-width table.

    ``rule_before`` — row indices before which to repeat the separator
    rule, visually grouping consecutive rows (e.g. per workload scenario).
    """
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for i, row in enumerate(str_rows):
        if rule_before and i in rule_before:
            lines.append(sep)
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


#: How NaN statistics render: "no data" (e.g. the JCT of a tenant with no
#: completed jobs), never a numeric that could read as an instant 0.0.
NO_DATA = "—"


def _cell(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return NO_DATA
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def span_cell(
    mean: float, lo: float, hi: float, *, fmt: str = "{:.2f}"
) -> str:
    """A mean with its min–max spread, e.g. ``1.23 [1.10, 1.31]``.

    Collapses to the bare mean when the spread is degenerate (single seed)
    and to :data:`NO_DATA` when the statistic is NaN (empty subset).
    """
    if math.isnan(mean):
        return NO_DATA
    if fmt.format(lo) == fmt.format(hi):
        return fmt.format(mean)
    return f"{fmt.format(mean)} [{fmt.format(lo)}, {fmt.format(hi)}]"


def perf_footer(perf_rows: Iterable[dict]) -> str:
    """One-line perf summary appended under sweep tables.

    ``perf_rows`` are the sweep runner's per-executed-run timing rows
    (:func:`repro.experiments.runner.run_perf`): scheduler wall time per
    invocation, steady-state rounds short-circuited, simulator event-loop
    rounds per wall second, and model-fitting wall time (kept out of the
    event rate).  Resumed runs carry no timing, so the
    footer reports over the runs this invocation actually executed.
    """
    rows = [r for r in perf_rows if r.get("sim_wall_seconds", 0.0) > 0.0]
    if not rows:
        return "perf: no runs executed in this invocation (all resumed)"
    invocations = sum(r.get("policy_invocations", 0) for r in rows)
    skips = sum(r.get("policy_skips", 0) for r in rows)
    policy_wall = sum(r.get("policy_wall_seconds", 0.0) for r in rows)
    sim_rounds = sum(r.get("sim_rounds", 0) for r in rows)
    sim_wall = sum(r.get("sim_wall_seconds", 0.0) for r in rows)
    fit_wall = sum(r.get("fit_wall_seconds", 0.0) for r in rows)
    per_invocation = 1000.0 * policy_wall / invocations if invocations else 0.0
    events = sim_rounds / sim_wall if sim_wall > 0 else 0.0
    return (
        f"perf: scheduler {per_invocation:.2f} ms/invocation · "
        f"{skips} steady-state rounds short-circuited · "
        f"simulator {events:.0f} events/s · "
        f"fitting {fit_wall:.2f} s "
        f"({len(rows)} runs executed)"
    )


def ratio(value: float, reference: float) -> str:
    """Paper-style normalized ratio, e.g. ``(2.6x)`` (reference prints 1x)."""
    if reference <= 0:
        return "(n/a)"
    return f"({value / reference:.2f}x)"


def format_series(
    xs: Sequence[object],
    ys: Sequence[float],
    *,
    label: str = "",
    width: int = 40,
) -> str:
    """Render a (x, y) series as labeled rows with proportional bars."""
    if len(xs) != len(ys):
        raise ValueError("series lengths differ")
    top = max((abs(y) for y in ys), default=1.0) or 1.0
    lines = [label] if label else []
    for x, y in zip(xs, ys):
        bar = "#" * max(int(round(width * abs(y) / top)), 0)
        lines.append(f"  {str(x):>12s} | {y:10.3f} | {bar}")
    return "\n".join(lines)


def normalize_to_first(values: Sequence[float]) -> list[float]:
    """Normalize a list so the first element becomes 1 (paper's 1× anchor)."""
    if not values:
        return []
    anchor = values[0]
    if anchor == 0:
        return [0.0 for _ in values]
    return [v / anchor for v in values]
