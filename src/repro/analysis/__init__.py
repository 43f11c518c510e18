"""Reporting utilities for benches and examples."""

from repro.analysis.report import (
    NO_DATA,
    format_series,
    format_table,
    normalize_to_first,
    ratio,
    span_cell,
)

__all__ = [
    "NO_DATA",
    "format_series",
    "format_table",
    "normalize_to_first",
    "ratio",
    "span_cell",
]
