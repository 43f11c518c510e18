"""Bounded trust-region-reflective least squares in numpy alone.

A port of scipy 1.17.1's ``least_squares(method="trf")`` (``optimize/_lsq/
trf.py`` and ``common.py``, plus the 2-point branch of ``optimize/
_numdiff.py``) cut down to the one configuration the performance-model fit
uses: finite box bounds, a dense forward-difference Jacobian, the linear
loss, ``x_scale=1`` and the exact (SVD) trust-region solver.  Tolerances and
the evaluation budget are scipy's defaults and the fit's ``max_nfev``, fixed
as module constants.

The contract is bit-identity with scipy in that configuration: the same
``x``, ``cost``, ``fun``, ``nfev`` and ``status`` (``tests/test_trf.py``
checks it with scipy as the oracle).  Every float operation is scipy's, in
scipy's order; multiplications by the unit ``x_scale`` are dropped because
they are exact.  Three details carry the bit-identity:

1. The Jacobian is built as scipy builds it: one row per variable, stacked,
   then transposed, so it is column-major (a one-residual Jacobian is a
   single row, contiguous both ways, as scipy's ``np.atleast_2d`` of the
   raveled rows is).  The layout decides how BLAS sums ``J.T @ f``.
2. The SVD factors are made column-major, as scipy's LAPACK wrapper returns
   them, before ``U.T @ f`` and ``V @ y``.
3. The start is nudged strictly inside the bounds (scipy's
   ``make_strictly_feasible``) and the loop ends on scipy's tests.

Errors: :class:`ValueError` for inconsistent inputs, a start outside the
bounds, residuals that are not finite at the start, a non-finite Jacobian
(scipy's SVD rejects it the same way) or a degenerate trust-region
intersection; :class:`numpy.linalg.LinAlgError` when the SVD does not
converge.  Anything else raised comes from the residual function itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign
from typing import Callable

import numpy as np
from numpy.linalg import norm

#: scipy's default tolerances on the cost change, the step and the gradient.
FTOL = XTOL = GTOL = 1e-8
#: Trial points per solve (the Jacobian's evaluations are not counted).
MAX_NFEV = 2000

_EPS = np.finfo(float).eps
#: Relative forward-difference step, scipy's ``EPS**0.5`` for "2-point".
_REL_STEP = _EPS**0.5


@dataclass(frozen=True)
class TrfResult:
    """The solution fields scipy's ``OptimizeResult`` carries, bit for bit.

    ``status``: 0 = ``MAX_NFEV`` reached, 1 = ``GTOL``, 2 = ``FTOL``,
    3 = ``XTOL``, 4 = both ``FTOL`` and ``XTOL``.
    """

    x: np.ndarray
    cost: float
    fun: np.ndarray
    nfev: int
    status: int


def least_squares(
    fun: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> TrfResult:
    """Minimize ``0.5 * sum(fun(x)**2)`` subject to ``lb <= x <= ub``."""
    x0 = np.atleast_1d(x0).astype(float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if x0.ndim != 1 or lb.shape != x0.shape or ub.shape != x0.shape:
        raise ValueError("x0, lb and ub must be 1-d arrays of one length")
    if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub))):
        raise ValueError("bounds must be finite")
    if np.any(lb >= ub):
        raise ValueError("each lower bound must be below its upper bound")
    if not _in_bounds(x0, lb, ub):
        raise ValueError("initial guess is outside of the bounds")
    x = _make_strictly_feasible(x0, lb, ub, rstep=1e-10)
    f = _evaluate(fun, x)
    if f.ndim != 1:
        raise ValueError(f"residuals must be 1-d, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the initial point")
    return _trf(fun, x, f, _jacobian(fun, x, f, lb, ub), lb, ub)


def _evaluate(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    return np.atleast_1d(fun(x))


def _jacobian(
    fun: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    f: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> np.ndarray:
    """scipy's bounded one-sided 2-point ``approx_derivative``."""
    sign_x = (x >= 0).astype(float) * 2 - 1
    h = _REL_STEP * sign_x * np.maximum(1.0, np.abs(x))
    # Flip or shorten steps that would leave the box.
    lower_dist = x - lb
    upper_dist = ub - x
    x_h = x + h
    violated = (x_h < lb) | (x_h > ub)
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h[violated & fitting] *= -1
    forward = (upper_dist >= lower_dist) & ~fitting
    h[forward] = upper_dist[forward]
    backward = (upper_dist < lower_dist) & ~fitting
    h[backward] = -lower_dist[backward]

    n = x.size
    j_rows = np.empty((n, f.size))
    for i in range(n):
        x1 = np.copy(x)
        x1[i] = x[i] + h[i]
        j_rows[i] = (_evaluate(fun, x1) - f) / ((x[i] + h[i]) - x[i])
    return j_rows.T


def _trf(
    fun: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    f: np.ndarray,
    J: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> TrfResult:
    """scipy's ``trf_bounds`` for the linear loss and the exact solver."""
    m, n = J.shape
    nfev = 1
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)

    v, dv = _scaling_vector(x, g, lb, ub)
    Delta = norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0

    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # the Levenberg-Marquardt parameter
    status = None
    while True:
        v, dv = _scaling_vector(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < GTOL:
            status = 1
        if status is not None or nfev == MAX_NFEV:
            break

        # The trust-region problem in the Coleman-Li "hat" variables.
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]
        J_augmented[m:] = np.diag(diag_h**0.5)
        U, s, V = _svd(J_augmented)
        uf = U.T.dot(f_augmented)

        # theta is the step-back ratio from the bounds.
        theta = max(0.995, 1 - g_norm)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < MAX_NFEV:
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta
            )
            x_new = _make_strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = _evaluate(fun, x_new)
            nfev += 1

            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * Delta,
            )
            status = _check_termination(
                actual_reduction, cost, norm(step), norm(x), ratio
            )
            if status is not None:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x = x_new
            f = f_new
            cost = cost_new
            J = _jacobian(fun, x, f, lb, ub)
            g = J.T.dot(f)

    return TrfResult(
        x=x, cost=float(cost), fun=f, nfev=nfev,
        status=0 if status is None else status,
    )


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``U, s, V`` of ``a`` with scipy's finiteness check and layout."""
    if not np.all(np.isfinite(a)):
        raise ValueError("array must not contain infs or NaNs")
    U, s, Vt = np.linalg.svd(a, full_matrices=False)
    return np.asfortranarray(U), s, np.asfortranarray(Vt).T


def _solve_lsq_trust_region(
    n: int,
    m: int,
    uf: np.ndarray,
    s: np.ndarray,
    V: np.ndarray,
    Delta: float,
    initial_alpha: float,
) -> tuple[np.ndarray, float]:
    """Moré's regularized step ``p`` with ``||p|| <= Delta``, and its alpha."""

    def phi_and_derivative(alpha, suf, s, Delta):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -np.sum(suf ** 2 / denom**3) / p_norm
        return phi, phi_prime

    suf = s * uf
    # Try the Gauss-Newton step when J has full rank.
    if m >= n:
        threshold = _EPS * m * s[0]
        full_rank = s[-1] > threshold
    else:
        full_rank = False
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0

    alpha_upper = norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0, suf, s, Delta)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0

    if not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    else:
        alpha = initial_alpha

    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha, suf, s, Delta)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < 0.01 * Delta:
            break

    p = -V.dot(suf / (s**2 + alpha))
    # Scale onto the trust-region boundary so p cannot sit outside it.
    p *= Delta / norm(p)
    return p, alpha


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the trust-region, reflected and Cauchy steps."""
    if _in_bounds(x + p, lb, ub):
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p, lb, ub)

    # The reflected direction.
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    # Restrict the trust-region step so it just hits the bound.
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    # The reflected direction crosses either the feasible region or the
    # trust region boundary first; keep the step strictly feasible.
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(
            a, b, r_stride_l, r_stride_u, c=c
        )
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # Step p back to make it strictly interior.
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb, ub)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr
    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


def _intersect_trust_region(x, s, Delta):
    """Both ``t`` with ``||x + s*t|| == Delta``, smaller first."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b*b - a*c)  # root of a quarter of the discriminant
    # Avoids loss of significance ("Numerical Recipes").
    q = -(b + copysign(d, b))
    t1 = q / a
    t2 = c / q
    if t1 < t2:
        return t1, t2
    else:
        return t2, t1


def _update_tr_radius(Delta, actual_reduction, predicted_reduction,
                      step_norm, bound_hit):
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of the model's quadratic along ``s0 + s*t``."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """Minimum of ``a*t**2 + b*t + c`` on ``[lb, ub]``: ``(t, value)``."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _evaluate_quadratic(J, g, s, diag):
    """The model's value ``0.5 * s.T (J.T J + diag) s + g.T s``."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _in_bounds(x, lb, ub):
    return np.all((x >= lb) & (x <= ub))


def _step_size_to_bound(x, s, lb, ub):
    """Largest ``t`` keeping ``x + s*t`` feasible, and which bounds it hits."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _make_strictly_feasible(x, lb, ub, rstep):
    """Shift ``x`` off any bound it sits on (``rstep=0``: by one ulp)."""
    x_new = x.copy()
    if rstep == 0:
        lower = x <= lb
        upper = x >= ub
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:
        # Within rstep (relative) of a bound, and nearer it than the other.
        lower_dist = x - lb
        upper_dist = ub - x
        upper = upper_dist <= np.minimum(
            lower_dist, rstep * np.maximum(1, np.abs(ub))
        )
        lower = (lower_dist <= np.minimum(
            upper_dist, rstep * np.maximum(1, np.abs(lb))
        )) & ~upper
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
        x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    tight_bounds = (x_new < lb) | (x_new > ub)
    x_new[tight_bounds] = 0.5 * (lb[tight_bounds] + ub[tight_bounds])
    return x_new


def _scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling ``v`` and its derivative ``dv`` (finite bounds)."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = g < 0
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1
    mask = g > 0
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv


def _check_termination(dF, F, dx_norm, x_norm, ratio):
    ftol_satisfied = dF < FTOL * F and ratio > 0.25
    xtol_satisfied = dx_norm < XTOL * (XTOL + x_norm)
    if ftol_satisfied and xtol_satisfied:
        return 4
    elif ftol_satisfied:
        return 2
    elif xtol_satisfied:
        return 3
    else:
        return None
