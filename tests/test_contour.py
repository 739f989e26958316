"""Contour geometry, quadrature accuracy, and the redirection map."""

import math

import numpy as np
import pytest
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
)
from fracresolvent.errors import (
    BranchCutError,
    ConfigurationError,
    EvaluationError,
    RefinementNeededError,
)

# moderate inner radius: the power-transform integrands are singular at the
# origin and a 1e-14 truncation amplifies roundoff in s^(-1-alpha)
POWER_SPEC = ContourSpec(theta=DEFAULT_THETA, n_nodes=128, r_min=1e-8, r_max=55.0)


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
    spec2 = ContourSpec(theta=DEFAULT_THETA, n_nodes=256, r_min=1e-8, r_max=55.0)
    for t in (0.01, 1.0, 100.0):
        v1 = invert_scalar(build_quadrature(POWER_SPEC, t, 1e-8), lambda s: 1.0 / s, t)
        v2 = invert_scalar(build_quadrature(spec2, t, 1e-8), lambda s: 1.0 / s, t)
        assert abs(v1 - v2) <= 1e-8


def test_nodes_scale_inversely_with_time():
    qa = build_quadrature(POWER_SPEC, 1.0, 1e-8)
    qb = build_quadrature(POWER_SPEC, 2.0, 1e-8)
    # the node array holds the ray and the junction arc
    assert np.allclose(qb.all_nodes(), qa.all_nodes() / 2.0, rtol=1e-15)


def test_resolution_gate_raises_with_suggestion():
    # the default radii span 15+ decades; two more digits push the
    # per-panel requirement past 128/4 nodes
    spec = default_contour_spec(0.5, 1e-8)
    with pytest.raises(RefinementNeededError) as info:
        build_quadrature(spec, 1.0, 1e-10)
    assert info.value.suggested_n_nodes is not None
    assert info.value.suggested_n_nodes > spec.n_nodes


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


def test_default_spec_radii_track_alpha_and_tol():
    spec = default_contour_spec(0.5, 1e-8)
    assert spec.theta == DEFAULT_THETA
    assert math.isclose(spec.r_max, (math.log(1e8) + 20.0) / (-math.cos(DEFAULT_THETA)))
    # tol^(1/(1-alpha)) = 1e-16 here, below the 1e-14 floor
    assert spec.r_min == 1e-14
    assert math.isclose(default_contour_spec(0.25, 1e-8).r_min, 1e-8 ** (1.0 / 0.75))
    with pytest.raises(ConfigurationError):
        default_contour_spec(1.5, 1e-8)
    with pytest.raises(ConfigurationError):
        default_contour_spec(0.5, 2.0)


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
    for alpha in (0.2, 0.5, 0.8):
        theta = min_theta(alpha)
        assert angle_condition(alpha, theta, math.pi / 8.0)
        assert not angle_condition(alpha, theta * 0.999, math.pi / 8.0)
    # redirected contour angle clears the sector by construction at default
    assert angle_condition(0.5, DEFAULT_THETA, math.pi / 8.0)
