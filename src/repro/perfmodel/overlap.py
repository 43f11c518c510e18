"""The overlap-combining function of paper §4.3.

``f_overlap^k(x, y) = (x^k + y^k)^(1/k)`` models two pipeline-able time spans
sharing a window: ``k = 1`` gives no overlap (``x + y``); ``k → ∞`` tends to
perfect overlap (``max(x, y)``).  The degree ``k`` is a fittable parameter
(the definition is borrowed from Pollux [38], as the paper notes).

Every fit residual, plan score and ground-truth measurement goes through
this one function, so it computes the two powers with libm's ``math.pow``
on Python floats.  A scalar ``np.power`` costs about ten times as much per
call (0.88 µs against 0.08 µs on a 2-vCPU x86 host), and its last bit
depends on numpy's version and SIMD dispatch: with AVX-512 dispatch it
differs from libm on about 5% of inputs, and without it the two agree.
``math.pow`` gives the same bits whatever numpy is installed (DESIGN.md 52).
"""

from __future__ import annotations

import math

#: k at (or beyond) which we switch to the exact max() limit to avoid
#: floating-point overflow in x**k.
_MAX_K = 64.0


def overlap(k: float, x: float, y: float) -> float:
    """Combined duration of spans ``x`` and ``y`` with overlap degree ``k``.

    Accepts ``k >= 1``; zero-length spans short-circuit (the combination of a
    span with nothing is the span itself, for any k).
    """
    if k < 1.0:
        raise ValueError(f"overlap degree k must be >= 1, got {k}")
    if x <= 0.0:
        return max(y, 0.0)
    if y <= 0.0:
        return max(x, 0.0)
    if k >= _MAX_K:
        return max(x, y)
    # Factor out the larger span for numerical stability:
    # (x^k + y^k)^(1/k) = hi * (1 + (lo/hi)^k)^(1/k)
    hi, lo = (x, y) if x >= y else (y, x)
    ratio = lo / hi
    return hi * math.pow(1.0 + math.pow(ratio, k), 1.0 / k)
