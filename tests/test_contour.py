"""Contour geometry, quadrature accuracy, and the redirection map."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from fracresolvent.contour import (
    DEFAULT_THETA,
    ContourSpec,
    angle_condition,
    build_quadrature,
    default_contour_spec,
    invert_scalar,
    min_theta,
    redirect,
    time_windows,
)
from fracresolvent.errors import (
    BranchCutError,
    ConfigurationError,
    EvaluationError,
    RefinementNeededError,
)

# the hyperbola crosses the real axis at mu (1 - sin phi) / t > 0, so the
# power-transform integrands, singular at the origin, stay bounded on it
POWER_SPEC = ContourSpec(theta=DEFAULT_THETA, n_nodes=128)


def test_unit_step_orientation_and_accuracy():
    """F(s) = 1/s must invert to +1 for every t (orientation oracle)."""
    for t in np.logspace(-3.0, 3.0, 7):
        quad = build_quadrature(POWER_SPEC, float(t), 1e-8)
        val = invert_scalar(quad, lambda s: 1.0 / s, float(t))
        assert abs(val - 1.0) <= 2e-8


@pytest.mark.parametrize("alpha", (0.25, 0.5, 0.75))
@pytest.mark.parametrize("t", (0.1, 1.0, 10.0))
def test_power_transform_pairs(alpha, t):
    # L[t^alpha / Gamma(1+alpha)] = s^(-1-alpha)
    quad = build_quadrature(POWER_SPEC, t, 1e-8)
    val = invert_scalar(quad, lambda s: s ** (-1.0 - alpha), t)
    exact = t**alpha / gamma_fn(1.0 + alpha)
    assert abs(val - exact) / exact <= 1e-8


def test_exponential_shift():
    for t in (0.1, 1.0, 10.0):
        quad = build_quadrature(POWER_SPEC, t, 1e-8)
        val = invert_scalar(quad, lambda s: 1.0 / (s + 1.0), t)
        assert abs(val - math.exp(-t)) / math.exp(-t) <= 1e-6


def test_node_doubling_consistency():
    # the node budget no longer shapes the rule; a tighter tol refines it
    for t in (0.01, 1.0, 100.0):
        coarse = build_quadrature(POWER_SPEC, t, 1e-8)
        fine = build_quadrature(POWER_SPEC, t, 1e-12)
        assert fine.all_nodes().size > coarse.all_nodes().size
        v1 = invert_scalar(coarse, lambda s: 1.0 / s, t)
        v2 = invert_scalar(fine, lambda s: 1.0 / s, t)
        assert abs(v1 - v2) <= 1e-8


def test_lone_window_is_the_rule_of_its_time():
    for t in (1e-3, 0.37, 10.0):
        for tol in (1e-6, 1e-8, 1e-10):
            a = build_quadrature(POWER_SPEC, t, tol)
            b = build_quadrature(POWER_SPEC, np.array([t]), tol)
            assert a.nodes.tobytes() == b.nodes.tobytes()
            assert a.weights.tobytes() == b.weights.tobytes()


@pytest.mark.parametrize("t0", (1e-3, 1.0, 100.0))
def test_window_contour_serves_every_time_in_it(t0):
    """One contour, sized for [t0, 10 t0] and scaled by t0, meets tol at each time."""
    times = t0 * np.logspace(0.0, 1.0, 9)
    quad = build_quadrature(POWER_SPEC, times, 1e-8)
    assert quad.all_nodes().size == 30  # 15 for a lone time
    unit = build_quadrature(POWER_SPEC, times / t0, 1e-8)
    assert np.allclose(quad.nodes * t0, unit.nodes, rtol=1e-14, atol=0.0)
    for t in times:
        t = float(t)
        assert abs(invert_scalar(quad, lambda s: 1.0 / s, t) - 1.0) <= 1e-8
        assert abs(invert_scalar(quad, lambda s: 1.0 / (s + 1.0 / t0), t)
                   - math.exp(-t / t0)) <= 1e-8
        exact = t**0.5 / gamma_fn(1.5)
        assert abs(invert_scalar(quad, lambda s: s**-1.5, t) - exact) / exact <= 1e-8


@pytest.mark.parametrize("bad", ([], [1.0, 1.0], [2.0, 1.0], [1.0, math.nan, 3.0],
                                 [1.0, math.inf], [[1.0, 2.0]], [0.0, 1.0]))
def test_bad_windows_are_refused(bad):
    with pytest.raises(ConfigurationError, match="increasing"):
        build_quadrature(POWER_SPEC, np.array(bad), 1e-8)
    with pytest.raises(ConfigurationError, match="increasing"):
        time_windows(POWER_SPEC, np.array(bad), 1e-8)


def _check_windows(spec, times, tol):
    """The windows of times cover them in order; every window of several times has a
    rule within spec.n_nodes and its roundoff floor, and none can take one more
    earlier time, whose rule build_quadrature would refuse."""
    windows = time_windows(spec, times, tol)
    assert windows[0].start == 0 and windows[-1].stop == times.size
    for w, nxt in zip(windows, windows[1:]):
        assert w.start < w.stop == nxt.start
    for w in windows:
        if w.stop - w.start > 1:
            assert build_quadrature(spec, times[w], tol).all_nodes().size <= spec.n_nodes // 2
        if w.start > 0:
            with pytest.raises(RefinementNeededError):
                build_quadrature(spec, times[w.start - 1:w.stop], tol)
    return windows


def test_time_windows_grow_back_from_the_last_time_to_the_budget():
    """The 33-time sweep grid is two windows, [1e-3, 1e-2) on 28 nodes and the
    wide [1e-2, 10] on 64, where windows of at most a decade took 30, 30, 30 and 24."""
    times = np.logspace(-3.0, 1.0, 33)
    windows = _check_windows(POWER_SPEC, times, 1e-8)
    assert [(w.start, w.stop) for w in windows] == [(0, 8), (8, 33)]
    assert [build_quadrature(POWER_SPEC, times[w], 1e-8).all_nodes().size
            for w in windows] == [28, 64]
    for budget, tol in ((32, 1e-8), (60, 1e-8), (64, 1e-12), (44, 1e-12)):
        _check_windows(ContourSpec(n_nodes=budget), times, tol)
    # the lone-time rule needs 30 nodes at 1e-8 and any two times more than 32
    assert len(time_windows(ContourSpec(n_nodes=32), times, 1e-8)) == 33
    # a lone time over the budget is left for build_quadrature to refuse
    assert time_windows(ContourSpec(n_nodes=16), times[:2], 1e-8) == [slice(0, 1), slice(1, 2)]


@given(log_t0=st.floats(-6.0, 3.0), decades=st.floats(0.0, 12.0), count=st.integers(1, 80),
       budget=st.integers(8, 256), log_tol=st.floats(-13.0, -3.0))
def test_time_windows_property(log_t0, decades, count, budget, log_tol):
    times = np.unique(np.logspace(log_t0, log_t0 + decades, count))
    _check_windows(ContourSpec(n_nodes=budget), times, 10.0**log_tol)


def test_nodes_scale_inversely_with_time():
    qa = build_quadrature(POWER_SPEC, 1.0, 1e-8)
    qb = build_quadrature(POWER_SPEC, 2.0, 1e-8)
    # the node array holds the upper half of the hyperbola
    assert np.allclose(qb.all_nodes(), qa.all_nodes() / 2.0, rtol=1e-15)


def test_resolution_gate_raises_with_suggestion():
    # 2M(1e-10) nodes do not fit a budget of 16
    spec = default_contour_spec(0.5, 1e-8, n_nodes=16)
    with pytest.raises(RefinementNeededError, match="n_nodes=16") as info:
        build_quadrature(spec, 1.0, 1e-10)
    assert info.value.suggested_n_nodes is not None
    assert info.value.suggested_n_nodes > spec.n_nodes
    ok = build_quadrature(
        default_contour_spec(0.5, 1e-8, n_nodes=info.value.suggested_n_nodes), 1.0, 1e-10
    )
    assert 2 * ok.all_nodes().size == info.value.suggested_n_nodes
    # no budget reaches a tolerance below the rule's roundoff floor
    with pytest.raises(RefinementNeededError, match="roundoff floor") as info:
        build_quadrature(default_contour_spec(0.5, 1e-8, n_nodes=10**6), 1.0, 1e-17)
    assert info.value.achieved > 1e-17


def test_non_finite_integrand_reported():
    quad = build_quadrature(POWER_SPEC, 1.0, 1e-8)

    def bad(s):
        return np.where(np.abs(s) > 1.0, np.nan, 1.0) * np.ones_like(s)

    with pytest.raises(EvaluationError) as info:
        invert_scalar(quad, bad, 1.0)
    assert info.value.index is not None


def test_scalar_only_integrand_rejected():
    """The integrand is called once on the node array, never node by node."""
    quad = build_quadrature(POWER_SPEC, 1.0, 1e-8)
    calls = []

    def scalar_only(s):
        calls.append(s)
        return complex(1.0 / s)

    with pytest.raises(EvaluationError, match="shape"):
        invert_scalar(quad, scalar_only, 1.0)
    assert len(calls) == 1
    with pytest.raises(EvaluationError, match=r"returned shape \(\)"):
        invert_scalar(quad, lambda s: 1.0, 1.0)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        ContourSpec(theta=math.pi / 3.0)  # not obtuse
    with pytest.raises(ConfigurationError):
        ContourSpec(theta=math.pi)
    with pytest.raises(ConfigurationError):
        ContourSpec(n_nodes=4)
    with pytest.raises(ConfigurationError):
        ContourSpec(r_min=2.0, r_max=55.0)
    with pytest.raises(ConfigurationError):
        ContourSpec(r_min=1e-8, r_max=0.5)


def test_build_quadrature_argument_validation():
    with pytest.raises(ConfigurationError):
        build_quadrature(POWER_SPEC, 0.0, 1e-8)
    with pytest.raises(ConfigurationError):
        build_quadrature(POWER_SPEC, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        build_quadrature(POWER_SPEC, 1.0, 1.0)
    quad = build_quadrature(POWER_SPEC, 1.0, 1e-8)
    with pytest.raises(ConfigurationError):
        invert_scalar(quad, lambda s: 1.0 / s, -1.0)


@pytest.mark.parametrize("t", (math.nan, math.inf))
def test_build_quadrature_refuses_non_finite_time(t):
    with pytest.raises(ConfigurationError, match="finite"):
        build_quadrature(POWER_SPEC, t, 1e-8)


def test_default_spec_radii_track_alpha_and_tol():
    spec = default_contour_spec(0.5, 1e-8)
    assert spec.theta == DEFAULT_THETA
    with pytest.raises(ConfigurationError):
        default_contour_spec(1.5, 1e-8)
    with pytest.raises(ConfigurationError):
        default_contour_spec(0.5, 2.0)


def test_default_spec_refuses_an_alpha_no_angle_serves():
    """At alpha = 0.9 the angle condition asks theta >= (pi / 8) / 0.1 > pi."""
    with pytest.raises(ConfigurationError, match="no contour angle below pi satisfies"):
        default_contour_spec(0.9)


def test_radii_no_longer_shape_the_contour():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = ContourSpec()
    with pytest.warns(DeprecationWarning, match="r_min and r_max") as record:
        moved = ContourSpec(r_min=1e-8, r_max=100.0)
    assert len(record) == 1
    a, b = build_quadrature(plain, 1.0, 1e-8), build_quadrature(moved, 1.0, 1e-8)
    assert np.array_equal(a.all_nodes(), b.all_nodes())


def test_at_most_16_nodes_at_shipped_tol():
    """Every alpha the default theta_A accepts, up to theta next to pi."""
    for alpha in np.linspace(0.01, 0.8749999, 40):
        spec = default_contour_spec(float(alpha))
        assert build_quadrature(spec, 1.0, 1e-8).all_nodes().size <= 16


def test_extreme_angles_are_sized_at_once():
    """The node count is a formula in theta and tol, with no search to run away."""
    with pytest.raises(RefinementNeededError, match="n_nodes=128") as info:
        build_quadrature(ContourSpec(theta=math.pi / 2.0 + 1e-6), 1.0, 1e-8)
    assert info.value.suggested_n_nodes > 10**6
    # next to pi the rule keeps its size and its accuracy
    for t in (1e-3, 1.0, 100.0):
        quad = build_quadrature(ContourSpec(theta=math.pi - 1e-8), t, 1e-8)
        assert quad.all_nodes().size <= 16
        assert abs(invert_scalar(quad, lambda s: 1.0 / (s + 1.0), t) - math.exp(-t)) <= 1e-8
        assert abs(invert_scalar(quad, lambda s: 1.0 / s, t) - 1.0) <= 1e-8


def test_redirect_modulus_and_argument():
    rng = np.random.default_rng(5)
    r = 10.0 ** rng.uniform(-8.0, 8.0, 500)
    phi = rng.uniform(-math.pi + 1e-6, math.pi - 1e-6, 500)
    s = r * np.exp(1j * phi)
    for alpha in (0.1, 0.5, 0.9):
        z = redirect(s, alpha)
        assert np.max(np.abs(np.abs(z) / r ** (alpha - 1.0) - 1.0)) <= 1e-12
        target = (alpha - 1.0) * phi
        wrapped = np.angle(np.exp(1j * (np.angle(z) - target)))
        assert np.max(np.abs(wrapped)) <= 1e-12


def test_redirect_scalar_and_cut():
    z = redirect(1.0 + 0.0j, 0.5)
    assert isinstance(z, complex) and abs(z - 1.0) <= 1e-15
    with pytest.raises(BranchCutError):
        redirect(-1.0 + 0.0j, 0.5)
    with pytest.raises(BranchCutError):
        redirect(np.array([1.0 + 1j, 0.0 + 0.0j]), 0.5)
    with pytest.raises(ConfigurationError):
        redirect(1.0 + 1j, 1.0)


def test_angle_condition_boundary():
    # at 0.835667030440112 the product (1 - alpha) min_theta(alpha) rounds below theta_A
    for alpha in (0.2, 0.5, 0.8, 0.835667030440112):
        theta = min_theta(alpha)
        assert angle_condition(alpha, theta, math.pi / 8.0)
        assert not angle_condition(alpha, theta * 0.999, math.pi / 8.0)
    # redirected contour angle clears the sector by construction at default
    assert angle_condition(0.5, DEFAULT_THETA, math.pi / 8.0)
