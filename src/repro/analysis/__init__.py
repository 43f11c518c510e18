"""Reporting utilities for benches and examples."""

from repro.analysis.report import (
    NO_DATA,
    format_series,
    format_table,
    span_cell,
)

__all__ = [
    "NO_DATA",
    "format_series",
    "format_table",
    "span_cell",
]
