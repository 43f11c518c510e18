"""The numpy TRF port is scipy's ``least_squares(method="trf")``, bit for bit.

scipy is the reference oracle here (the runtime never imports it).  Two
sets of problems, each solved by both and compared with ``==`` on ``x``,
``cost``, ``fun``, ``nfev`` and ``status``:

* every performance-model fit the repo runs: each catalog model on testbed
  seeds 0-2, one solve per fit;
* hypothesis-drawn bounded problems with 1-12 residuals and 1-7 variables,
  starts on a bound, and a region where the residual is not finite.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import PAPER_CLUSTER
from repro.models import all_models
from repro.oracle import SyntheticTestbed
from repro.oracle.profiler import collect_samples, default_profile_configs
from repro.perfmodel import trf
from repro.perfmodel.fitting import fit_perf_model

scipy_optimize = pytest.importorskip("scipy.optimize")


def solve_both(fun, x0, lb, ub):
    """(scipy result, port result); an exception stands in for a result.

    Floating-point warnings are silenced (a Jacobian that crosses into the
    non-finite region warns in both); ``errstate`` changes no result.
    """
    with np.errstate(all="ignore"):
        try:
            ref = scipy_optimize.least_squares(
                fun, x0, bounds=(lb, ub), method="trf", max_nfev=2000
            )
        except (ValueError, np.linalg.LinAlgError) as exc:
            ref = exc
        try:
            got = trf.least_squares(fun, x0, lb, ub)
        except (ValueError, np.linalg.LinAlgError) as exc:
            got = exc
    return ref, got


def assert_identical(ref, got) -> None:
    if isinstance(ref, Exception):
        assert type(got) is type(ref), (ref, got)
        return
    assert not isinstance(got, Exception), (ref, got)
    assert got.x.tobytes() == ref.x.tobytes()
    assert got.cost == ref.cost
    assert got.fun.tobytes() == ref.fun.tobytes()
    assert got.nfev == ref.nfev
    assert got.status == ref.status


@pytest.mark.parametrize("testbed_seed", [0, 1, 2])
@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_every_repo_fit_matches_scipy(model, testbed_seed, monkeypatch):
    """Each solve ``fit_perf_model`` makes, replayed through scipy."""
    solves = []
    port = trf.least_squares

    def recording(fun, x0, lb, ub):
        solves.append((fun, x0.copy(), lb, ub))
        return port(fun, x0, lb, ub)

    monkeypatch.setattr(trf, "least_squares", recording)
    testbed = SyntheticTestbed(PAPER_CLUSTER, seed=testbed_seed)
    batch = model.global_batch_size
    configs = default_profile_configs(testbed, model, batch)
    samples = collect_samples(testbed, model, batch, configs)
    fit_perf_model(model, testbed.env, testbed.profiled_fwd_ref(model), samples)
    monkeypatch.undo()
    assert len(solves) == 1
    for fun, x0, lb, ub in solves:
        ref, got = solve_both(fun, x0, lb, ub)
        assert not isinstance(ref, Exception)
        assert_identical(ref, got)


class _Problem:
    """``exp(A @ x / 2) - y``, not finite where ``x[0] > cut``."""

    def __init__(self, A, y, cut):
        self.A, self.y, self.cut = A, y, cut
        self.non_finite_calls = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.cut is not None and x[0] > self.cut:
            self.non_finite_calls += 1
            return np.full(len(self.y), np.inf)
        return np.exp(0.5 * (self.A * x).sum(axis=1)) - self.y


_unit = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def bounded_problems(draw, m=None, n=None):
    m = draw(st.integers(1, 12)) if m is None else m
    n = draw(st.integers(1, 7)) if n is None else n
    lb = np.array(draw(st.lists(_unit, min_size=n, max_size=n)))
    width = draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n))
    ub = lb + np.array(width)
    # Some coordinates start exactly on a bound.
    frac = draw(st.lists(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        min_size=n, max_size=n,
    ))
    x0 = np.clip(lb + np.array(frac) * (ub - lb), lb, ub)
    A = np.array(draw(st.lists(_unit, min_size=m * n, max_size=m * n)))
    y = np.array(draw(st.lists(_unit, min_size=m, max_size=m)))
    cut = draw(st.one_of(
        st.none(), st.floats(float(x0[0]), float(ub[0]), allow_nan=False)
    ))
    return _Problem(A.reshape(m, n), y, cut), x0, lb, ub


@settings(max_examples=150, deadline=None)
@given(bounded_problems())
def test_random_bounded_problems_match_scipy(problem):
    fun, x0, lb, ub = problem
    assert_identical(*solve_both(fun, x0, lb, ub))


@settings(max_examples=30, deadline=None)
@given(st.one_of(bounded_problems(m=1), bounded_problems(m=3, n=7)))
@example((
    _Problem(np.array([[1.0] * 7]), np.array([0.5]), None),
    np.zeros(7), -np.ones(7), np.ones(7),
))
def test_fewer_residuals_than_variables(problem):
    fun, x0, lb, ub = problem
    assert_identical(*solve_both(fun, x0, lb, ub))


def test_non_finite_trial_step_shrinks_the_region():
    """A trial point past ``cut`` is rejected and the radius shrinks."""
    fun = _Problem(np.array([[2.0], [1.0]]), np.array([1.5, 1.2]), cut=0.41)
    ref, got = solve_both(fun, np.array([-3.0]), np.array([-4.0]), np.array([4.0]))
    assert fun.non_finite_calls >= 2  # at least one per solver
    assert not isinstance(ref, Exception)
    assert_identical(ref, got)


def test_start_on_both_bounds():
    fun = _Problem(np.array([[1.0, -1.0], [0.5, 2.0], [1.0, 1.0]]),
                   np.array([1.0, 2.0, 0.5]), None)
    lb, ub = np.array([0.0, -1.0]), np.array([1.0, 1.0])
    for x0 in (lb.copy(), ub.copy(), np.array([0.0, 1.0])):
        ref, got = solve_both(fun, x0, lb, ub)
        assert not isinstance(ref, Exception)
        assert_identical(ref, got)


def test_non_finite_start_is_a_value_error():
    fun = _Problem(np.array([[1.0]]), np.array([1.0]), cut=-1.0)
    with pytest.raises(ValueError, match="not finite"):
        trf.least_squares(fun, np.array([0.0]), np.array([-2.0]), np.array([2.0]))


def test_start_outside_bounds_is_a_value_error():
    fun = _Problem(np.array([[1.0]]), np.array([1.0]), None)
    with pytest.raises(ValueError, match="outside"):
        trf.least_squares(fun, np.array([3.0]), np.array([-2.0]), np.array([2.0]))
