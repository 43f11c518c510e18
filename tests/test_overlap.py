"""The overlap function f_k: bounds, limits, monotonicity, and its bits."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.perfmodel import overlap

durations = st.floats(min_value=1e-6, max_value=1e4, allow_nan=False)
degrees = st.floats(min_value=1.0, max_value=64.0, allow_nan=False)


class TestLimits:
    def test_k1_is_sum(self):
        assert overlap(1.0, 3.0, 4.0) == pytest.approx(7.0)

    def test_large_k_is_max(self):
        assert overlap(100.0, 3.0, 4.0) == pytest.approx(4.0)

    def test_zero_spans_short_circuit(self):
        assert overlap(2.0, 0.0, 5.0) == 5.0
        assert overlap(2.0, 5.0, 0.0) == 5.0
        assert overlap(2.0, 0.0, 0.0) == 0.0

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            overlap(0.5, 1.0, 1.0)


class TestProperties:
    @given(k=degrees, x=durations, y=durations)
    def test_bounded_between_max_and_sum(self, k, x, y):
        value = overlap(k, x, y)
        assert max(x, y) <= value * (1 + 1e-9)
        assert value <= (x + y) * (1 + 1e-9)

    @given(k=degrees, x=durations, y=durations)
    def test_symmetry(self, k, x, y):
        assert overlap(k, x, y) == pytest.approx(overlap(k, y, x))

    @given(x=durations, y=durations)
    def test_monotone_decreasing_in_k(self, x, y):
        ks = [1.0, 2.0, 4.0, 8.0, 32.0]
        values = [overlap(k, x, y) for k in ks]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi * (1 + 1e-9)

    @given(k=degrees, x=durations, y=durations, scale=st.floats(0.1, 10.0))
    def test_positively_homogeneous(self, k, x, y, scale):
        assert overlap(k, scale * x, scale * y) == pytest.approx(
            scale * overlap(k, x, y), rel=1e-6
        )

    @given(k=degrees, x=durations)
    def test_extreme_ratio_stable(self, k, x):
        # A microscopic second span must not blow up the combination.
        value = overlap(k, x, x * 1e-12)
        assert value == pytest.approx(x, rel=1e-6) or value >= x


def _reference(k: float, x: float, y: float) -> float:
    hi, lo = (x, y) if x >= y else (y, x)
    return hi * math.pow(1.0 + math.pow(lo / hi, k), 1.0 / k)


#: k strictly inside the power branch, with the exact 1.0 and 2.0 the fit
#: bounds and the catalog use.
power_degrees = st.one_of(
    st.sampled_from([1.0, 2.0]),
    st.floats(min_value=1.0, max_value=64.0, exclude_max=True),
)
span_pairs = st.one_of(
    st.tuples(durations, durations),
    durations.map(lambda x: (x, x)),
    # lo / hi below 1e-200: for k >= 2 the inner power underflows to 0.
    st.tuples(durations, st.floats(min_value=1e-300, max_value=1e-200)).map(
        lambda p: (p[0], p[0] * p[1])
    ),
)


#: 1,000 fixed (k, x, y) inputs inside the power branch.
GRID = [
    (k, x, x * r)
    for k in (1.0, 1.5, 2.0, 2.5, 3.3, 4.7, 8.0, 12.9, 31.0, 63.5)
    for x in (0.013 * 1.9**i for i in range(10))
    for r in (0.017 + 0.11 * j for j in range(10))
]


class TestBits:
    def test_grid_equals_libm_formula_exactly(self):
        assert [overlap(*row) for row in GRID] == [_reference(*row) for row in GRID]

    @given(k=power_degrees, spans=span_pairs)
    def test_equals_libm_formula_exactly(self, k, spans):
        for x, y in (spans, spans[::-1]):
            value = overlap(k, x, y)
            assert type(value) is float
            assert value == _reference(k, x, y)

    def test_independent_of_numpy_simd_dispatch(self):
        """The grid gives the same bits with numpy's AVX-512 dispatch turned
        off in a subprocess."""
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy < 2
            from numpy.core import _multiarray_umath as umath
        off = [
            name
            for name in umath.__cpu_dispatch__
            if ("AVX512" in name or name == "X86_V4")
            and umath.__cpu_features__.get(name)
        ]
        if not off:
            pytest.skip("this host's numpy dispatches no AVX-512 code to turn off")
        probe = (
            "import json, sys\n"
            "from repro.perfmodel import overlap\n"
            "grid = json.load(sys.stdin)\n"
            "print(json.dumps([overlap(*map(float.fromhex, row)).hex() "
            "for row in grid]))\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).parents[1] / "src"),
            NPY_DISABLE_CPU_FEATURES=" ".join(off),
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            input=json.dumps([[v.hex() for v in row] for row in GRID]),
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert json.loads(proc.stdout) == [overlap(*row).hex() for row in GRID]
