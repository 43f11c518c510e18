"""Units and formatting helpers."""

from __future__ import annotations

import pytest

from repro.units import (
    GB,
    GiB,
    fmt_bytes,
)


class TestConstants:
    def test_decimal_vs_binary_bytes(self):
        assert GB == 1e9
        assert GiB == 2**30
        assert GiB > GB


class TestFmtBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, "0 B"),
            (512, "512 B"),
            (2048, "2.00 KiB"),
            (3 * GiB, "3.00 GiB"),
            (1.5 * 1024**4, "1.50 TiB"),
        ],
    )
    def test_positive_values(self, value, expected):
        assert fmt_bytes(value) == expected

    def test_negative_value(self):
        assert fmt_bytes(-2048) == "-2.00 KiB"
