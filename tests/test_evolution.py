"""Evolution family checks against closed forms and independent oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad as adaptive_quad
from scipy.special import erfc

import fracresolvent.evolution
from fracresolvent.contour import (
    build_quadrature,
    default_contour_spec,
    invert_scalar,
)
from fracresolvent.errors import ConfigurationError, EvaluationError
from fracresolvent.evolution import (
    DEFAULT_CONV_SUBINTERVALS,
    EvolutionConfig,
    _clamped_spectrum,
    laplace_check,
    mild_solution,
    resolvent_apply,
    scalar_mode_values,
    smoothed_apply,
    smoothed_norm,
)
from fracresolvent.kernels import KernelParams, eval_kernel
from fracresolvent.operators import assemble_kimura, make_diagonal

ABC_HALF = KernelParams(kind="abc", alpha=0.5)
BASE_SPEC = default_contour_spec(0.5, 1e-8)


def abc_mode_exact(mu: float, t: float) -> float:
    """Closed form for the abc (alpha = 1/2, B = 1) scalar mode, mu != 1.

    Partial fractions in the Laplace domain leave two shifted copies of
    1/(sqrt(s)(sqrt(s)+a)), whose inverse is e^(a^2 t) erfc(a sqrt(t)).
    """
    e = lambda x: math.exp(x) * erfc(math.sqrt(x))
    return (2.0 / (mu - 1.0)) * (e(t) - (1.0 / mu) * e(t / mu**2))


def cfg_with(contour=BASE_SPEC, kernel=ABC_HALF, **kw):
    return EvolutionConfig(kernel=kernel, contour=contour, **kw)


def test_abc_closed_form_modes():
    eigs = np.array([0.5, 2.0, 5.0])
    op = make_diagonal(eigs)
    for t in (0.1, 1.0, 10.0):
        got = resolvent_apply(op, cfg_with(times=(t,), tol=1e-10), t, np.ones(3))
        exact = np.array([abc_mode_exact(mu, t) for mu in eigs])
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-9


def test_error_tracks_tol():
    """The worst relative error over t in [1e-3, 1e2] stays within tol."""
    eigs = np.array([0.5, 2.0, 5.0])
    op = make_diagonal(eigs)
    times = np.logspace(-3.0, 2.0, 11)
    for tol in (1e-6, 1e-8, 1e-10):
        cfg = cfg_with(times=times, tol=tol)
        worst = 0.0
        for t in times:
            got = resolvent_apply(op, cfg, float(t), np.ones(3))
            exact = np.array([abc_mode_exact(mu, float(t)) for mu in eigs])
            worst = max(worst, float(np.max(np.abs(got - exact) / np.abs(exact))))
        assert worst <= tol


def test_matches_scalar_inversion_per_mode():
    eigs = [0.5, 1.0, 5.0]
    op = make_diagonal(eigs)
    cfg = cfg_with()
    for t in (0.5, 1.0):
        got = resolvent_apply(op, cfg, t, np.ones(3))
        quad = build_quadrature(BASE_SPEC, t, 1e-8)
        for i, lam in enumerate(eigs):
            val = invert_scalar(
                quad, lambda s: eval_kernel(ABC_HALF, s) / (s**-0.5 + lam), t
            )
            assert abs(got[i] - val) <= 1e-6 * abs(val)


def test_diagonal_decoupling():
    pair = resolvent_apply(make_diagonal([0.5, 5.0]), cfg_with(), 1.0, np.ones(2))
    for i, mu in enumerate((0.5, 5.0)):
        single = resolvent_apply(make_diagonal([mu]), cfg_with(), 1.0, np.ones(1))
        assert abs(pair[i] - single[0]) <= 1e-13


def test_linearity():
    op = assemble_kimura(30)
    rng = np.random.default_rng(41)
    x, y = rng.standard_normal(30), rng.standard_normal(30)
    cfg = cfg_with()
    combined = resolvent_apply(op, cfg, 0.7, 2.0 * x - 3.0 * y)
    separate = 2.0 * resolvent_apply(op, cfg, 0.7, x) - 3.0 * resolvent_apply(op, cfg, 0.7, y)
    assert np.max(np.abs(combined - separate)) <= 1e-10 * max(np.max(np.abs(separate)), 1.0)


def test_probe_kernel_refused():
    probe = KernelParams(kind="caputo_probe", alpha=0.5)
    with pytest.raises(ConfigurationError, match="diagnostic"):
        resolvent_apply(make_diagonal([1.0]), cfg_with(kernel=probe), 1.0, np.ones(1))


def test_angle_condition_refused():
    from fracresolvent.contour import SectorSpec

    # alpha = 0.9 leaves (1 - alpha) * theta = 0.236 < theta_A = 0.8
    op = make_diagonal([1.0], sector=SectorSpec(theta_A=0.8))
    kernel = KernelParams(kind="abc", alpha=0.9)
    with pytest.raises(ConfigurationError, match="redirection"):
        resolvent_apply(op, cfg_with(kernel=kernel), 1.0, np.ones(1))


def test_shape_mismatch_refused():
    with pytest.raises(ConfigurationError):
        resolvent_apply(make_diagonal([1.0, 2.0]), cfg_with(), 1.0, np.ones(3))
    with pytest.raises(ConfigurationError):
        resolvent_apply(make_diagonal([1.0]), cfg_with(), -1.0, np.ones(1))


def test_gamma_zero_is_plain_family():
    op = make_diagonal([1.0, 3.0])
    cfg = cfg_with(gamma=0.0)
    x = np.array([1.0, -2.0])
    assert np.array_equal(smoothed_apply(op, cfg, 1.0, x), resolvent_apply(op, cfg, 1.0, x))


def test_smoothing_scalar_scaling():
    # single eigenvalue 4: A^{1/2} multiplies the mode by exactly 2
    op = make_diagonal([4.0])
    x = np.ones(1)
    plain = smoothed_apply(op, cfg_with(gamma=0.0), 1.0, x)
    half = smoothed_apply(op, cfg_with(gamma=0.5), 1.0, x)
    assert abs(half[0] - 2.0 * plain[0]) <= 1e-12 * abs(plain[0])


def spectral_smoothed(op, cfg, t, x):
    """A^gamma V(t) x with V(t) from the mode values: no shifted solve."""
    lam = _clamped_spectrum(op)
    quad = build_quadrature(cfg.contour, t, cfg.tol)
    return op.apply_spectral(lam**cfg.gamma * scalar_mode_values(quad, cfg.kernel, lam, t), x)


def test_smoothed_routes_commute():
    op = assemble_kimura(40)
    x = np.sin(np.pi * np.arange(1, 41) / 41.0)
    cfg = cfg_with(gamma=0.5)
    solved = smoothed_apply(op, cfg, 0.5, x)
    spectral = spectral_smoothed(op, cfg, 0.5, x)
    scale = max(op.weighted_norm(spectral), 1e-30)
    assert op.weighted_norm(spectral - solved) / scale <= 1e-8


def test_smoothed_apply_takes_no_mode_values(monkeypatch):
    op = assemble_kimura(40)
    x = np.sin(np.pi * np.arange(1, 41) / 41.0)
    cfg = cfg_with(gamma=0.5)
    spectral = spectral_smoothed(op, cfg, 0.5, x)

    def refuse(*args):
        raise AssertionError("smoothed_apply evaluated the spectral mode values")

    monkeypatch.setattr(fracresolvent.evolution, "scalar_mode_values", refuse)
    solved = smoothed_apply(op, cfg, 0.5, x)
    assert op.weighted_norm(spectral - solved) / op.weighted_norm(spectral) <= 1e-8


def test_smoothed_norm_gamma_zero():
    op = make_diagonal([1.0, 2.0])
    u = np.array([3.0, 4.0])
    assert smoothed_norm(op, 0.0, u) == op.weighted_norm(u)


def test_smoothed_norm_refuses_wrong_shape_at_gamma_zero():
    with pytest.raises(ConfigurationError, match="does not match"):
        smoothed_norm(make_diagonal([1.0, 2.0]), 0.0, np.array([2.0]))


def test_smoothing_sup_stable_under_node_doubling():
    """sup_t t^(alpha*gamma) ||A^gamma V(t) u0|| moves < 1% when the rule is refined."""
    op = make_diagonal([0.3, 1.0, 4.0, 9.0])
    u0 = np.ones(4)
    times = np.logspace(-3, 1, 9)
    for alpha, gamma in ((0.3, 0.25), (0.5, 0.5), (0.7, 0.75)):
        kernel = KernelParams(kind="abc", alpha=alpha)
        sups = []
        spec = default_contour_spec(alpha, 1e-8)
        for tol in (1e-8, 1e-10):
            cfg = EvolutionConfig(kernel=kernel, contour=spec, gamma=gamma, times=times, tol=tol)
            vals = [
                float(t) ** (alpha * gamma)
                * op.weighted_norm(smoothed_apply(op, cfg, float(t), u0))
                for t in times
            ]
            sups.append(max(vals))
        assert math.isfinite(sups[0])
        assert abs(sups[1] - sups[0]) / sups[0] < 1e-2


def test_mild_homogeneous_equals_family():
    op = make_diagonal([0.5, 2.0])
    u0 = np.array([1.0, -1.0])
    cfg = cfg_with(times=(0.5, 1.0), u0=u0)
    res = mild_solution(op, cfg)
    for i, t in enumerate((0.5, 1.0)):
        direct = resolvent_apply(op, cfg, t, u0)
        assert np.array_equal(res.states[i], direct)
    assert res.node_counts[0] > 0
    assert np.all(np.isfinite(res.smoothed_norms))


def test_mild_constant_forcing_oracle():
    """u0 = 0, f = constant: exact answer is the integral of the closed-form
    scalar mode, computed here by adaptive quadrature."""
    mu = 2.0
    t_end = 1.0
    conv, err = adaptive_quad(
        lambda tau: abc_mode_exact(mu, t_end - tau), 0.0, t_end,
        points=[t_end - 1e-9], limit=200,
    )
    assert err < 1e-9
    op = make_diagonal([mu])
    cfg = cfg_with(times=(t_end,), u0=np.zeros(1), forcing=lambda tau: np.ones(1))
    # the product rule convolves V exactly with the interpolant of f, which
    # reproduces a constant at any n_sub
    for n_sub in (2, 256):
        res = mild_solution(op, cfg, n_sub=n_sub)
        assert abs(res.states[0, 0] - conv) / abs(conv) <= 1e-8


def test_mild_stiff_modes_match_quad_oracle():
    """Stiff modes' transients near tau = t are integrated through the transform.

    f = 1 and f = 1 + 3 tau are reproduced by the piecewise-linear
    interpolant, so only the contour error is left, at any n_sub.
    """
    eigs = [0.5, 1e2, 1e4]
    op = make_diagonal(eigs)
    for forcing, n_sub in ((lambda tau: 1.0, DEFAULT_CONV_SUBINTERVALS),
                           (lambda tau: 1.0 + 3.0 * tau, 2)):
        for t_end in (0.1, 1.0):
            cfg = cfg_with(times=(t_end,), u0=np.zeros(3),
                           forcing=lambda tau, f=forcing: np.full(3, f(tau)))
            res = mild_solution(op, cfg, n_sub)
            for i, mu in enumerate(eigs):
                # lag r = t - tau, with breakpoints at the mode's time scales
                exact = adaptive_quad(
                    lambda r: abc_mode_exact(mu, r) * forcing(t_end - r), 0.0, t_end,
                    points=[t_end * 10.0**-k for k in range(1, 10)], limit=500,
                    epsabs=0.0, epsrel=1e-12,
                )[0]
                assert abs(res.states[0, i] - exact) / abs(exact) <= 1e-8


def test_mild_product_rule_order():
    """Linear interpolation of a smooth f: the error falls like n_sub^-2."""
    op = make_diagonal([2.0])
    t_end = 1.0

    def run(n_sub):
        cfg = cfg_with(
            times=(t_end,), u0=np.array([1.0]),
            forcing=lambda tau: np.array([(t_end - tau) ** 2]),
        )
        return mild_solution(op, cfg, n_sub=n_sub).states[0, 0]

    ref = run(128)
    errors = [abs(run(n) - ref) for n in (8, 16, 32)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_mild_forcing_failures_are_located():
    op = make_diagonal([1.0])
    cfg = cfg_with(times=(1.0,), u0=np.zeros(1), forcing=lambda tau: 1.0 / (tau - 0.5))
    with pytest.raises((EvaluationError, ConfigurationError)) as info:
        mild_solution(op, cfg, n_sub=4)
    assert "tau" in str(info.value)
    bad_shape = cfg_with(times=(1.0,), u0=np.zeros(1), forcing=lambda tau: np.ones(2))
    with pytest.raises(ConfigurationError, match="shape"):
        mild_solution(op, bad_shape, n_sub=4)
    with pytest.raises(ConfigurationError):
        mild_solution(op, cfg_with(times=(1.0,)))  # u0 missing


@pytest.mark.parametrize("bad, tau", ((np.nan, 0.5), (np.inf, 1.0)), ids=("nan", "inf"))
def test_mild_non_finite_forcing_is_located(bad, tau):
    """A non-finite f from tau on (at tau = t alone for inf) is refused with tau and index."""
    op = make_diagonal([1.0, 2.0])
    forcing = lambda s: np.array([1.0, bad if s >= tau else 1.0])
    cfg = cfg_with(times=(1.0,), u0=np.zeros(2), forcing=forcing)
    with pytest.raises(EvaluationError, match="tau=%r .* index 1" % tau) as info:
        mild_solution(op, cfg, n_sub=4)
    assert (info.value.node, info.value.index) == (tau, 1)


def test_laplace_identity_diagonal():
    op = make_diagonal([0.5, 1.0, 5.0])
    cfg = cfg_with()
    x = np.ones(3)
    for lam in (1.0, 2.0):
        report = laplace_check(op, cfg, lam, x=x)
        assert report.rel_err <= 1e-3
        assert report.grid_delta <= 5e-4


def test_laplace_identity_zero_mode_rhs():
    # K(1) * (1^{alpha-1} + 0)^{-1} = B = 1, independent of quadrature
    op = make_diagonal([0.0])
    report = laplace_check(op, cfg_with(), 1.0, x=np.array([1.0]))
    assert abs(report.rhs[0] - 1.0) <= 1e-12


def test_laplace_check_unchanged_by_numpy_trapezoid(monkeypatch):
    """np.trapezoid, which spares the scipy.integrate import, gives the same report."""
    from scipy.integrate import trapezoid

    op = assemble_kimura(30)
    cfg = cfg_with()
    x = np.sin(np.pi * np.arange(1, 31) / 31.0)
    report = laplace_check(op, cfg, 2.0, x=x)
    monkeypatch.setattr(np, "trapezoid", trapezoid)
    before = laplace_check(op, cfg, 2.0, x=x)
    assert (report.rel_err, report.grid_delta) == (before.rel_err, before.grid_delta)
    assert np.array_equal(report.lhs, before.lhs)


def test_laplace_check_validation():
    op = make_diagonal([1.0])
    with pytest.raises(ConfigurationError):
        laplace_check(op, cfg_with(), 0.0, x=np.ones(1))
    with pytest.raises(ConfigurationError):
        laplace_check(op, cfg_with(), 1.0)  # no vector anywhere


def test_strong_continuity_ratio_ladder():
    op = assemble_kimura(40)
    u0 = np.sin(np.pi * np.arange(1, 41) / 41.0)
    cfg = cfg_with()
    scale = op.weighted_norm(u0)
    for t_center in (0.1, 1.0):
        base = resolvent_apply(op, cfg, t_center, u0)
        diffs = []
        for frac in (1e-2, 1e-3, 1e-4):
            moved = resolvent_apply(op, cfg, t_center * (1.0 + frac), u0)
            diffs.append(op.weighted_norm(moved - base) / scale)
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] <= 1e-3


def test_config_validation():
    with pytest.raises(ConfigurationError):
        cfg_with(gamma=1.0)
    with pytest.raises(ConfigurationError):
        cfg_with(times=(1.0, 0.5))
    with pytest.raises(ConfigurationError):
        cfg_with(times=())
    with pytest.raises(ConfigurationError):
        cfg_with(tol=0.0)
    with pytest.raises(ConfigurationError):
        cfg_with(forcing=3)
