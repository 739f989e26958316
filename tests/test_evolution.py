"""Evolution family checks against closed forms and independent oracles."""

import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad as adaptive_quad
from scipy.special import erfc

import fracresolvent.evolution
import fracresolvent.operators
from fracresolvent.contour import (
    ContourSpec,
    build_quadrature,
    default_contour_spec,
    invert_scalar,
    time_windows,
)
from fracresolvent.errors import (
    ConfigurationError,
    EvaluationError,
    NumericalError,
    RefinementNeededError,
)
from fracresolvent.evolution import (
    DEFAULT_CONV_SUBINTERVALS,
    LAPLACE_TOL,
    EvolutionConfig,
    _inverse_apply,
    laplace_check,
    mild_solution,
    resolvent_apply,
    scalar_mode_values,
    smoothed_apply,
    smoothed_norm,
)
from fracresolvent.kernels import KernelParams, eval_kernel, redirect
from fracresolvent.operators import (
    DiscreteOperator,
    assemble_bessel,
    assemble_kimura,
    make_diagonal,
    resolve,
)
from fracresolvent.tridiag import TridiagonalMatrix

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
    # alpha = 0.9 leaves (1 - alpha) * 3 pi / 4 = 0.236 < theta_A = pi / 8
    kernel = KernelParams(kind="abc", alpha=0.9)
    with pytest.raises(ConfigurationError, match="redirection"):
        resolvent_apply(make_diagonal([1.0]), cfg_with(kernel=kernel), 1.0, np.ones(1))


def test_config_refuses_unusable_pairing_when_made():
    """The pairing check runs once, when the config is made, before any operation."""
    with pytest.raises(ConfigurationError, match="diagnostic"):
        EvolutionConfig(kernel=KernelParams(kind="caputo_probe", alpha=0.5), contour=BASE_SPEC)
    with pytest.raises(ConfigurationError, match="redirection"):
        EvolutionConfig(kernel=KernelParams(kind="abc", alpha=0.9), contour=ContourSpec())


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


def test_resolvent_apply_refuses_complex_x():
    """A complex x is refused, not cut to its real part."""
    with pytest.raises(ConfigurationError, match="x must be real"):
        resolvent_apply(make_diagonal([1.0, 2.0]), cfg_with(), 1.0, np.array([1 + 1j, 1 + 1j]))


def test_smoothing_scalar_scaling():
    # single eigenvalue 4: A^{1/2} multiplies the mode by exactly 2
    op = make_diagonal([4.0])
    x = np.ones(1)
    plain = smoothed_apply(op, cfg_with(gamma=0.0), 1.0, x)
    half = smoothed_apply(op, cfg_with(gamma=0.5), 1.0, x)
    assert abs(half[0] - 2.0 * plain[0]) <= 1e-12 * abs(plain[0])


def spectral_smoothed(op, cfg, t, x):
    """A^gamma V(t) x with V(t) from the mode values: no shifted solve."""
    lam = op.spectrum()
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


@pytest.mark.parametrize("gamma", (0.0, 0.5))
def test_smoothed_norm_refuses_a_complex_state(gamma):
    """The gamma = 1/2 form sums u^T S u without conjugating, so a complex u is refused."""
    with pytest.raises(ConfigurationError, match="u must be real"):
        smoothed_norm(make_diagonal([1.0, 2.0]), gamma, np.array([1.0, 1j]))


@pytest.mark.parametrize("gamma", (-0.5, 1.0))
def test_smoothed_norm_refuses_gamma_out_of_range(gamma):
    """smoothed_norm holds gamma to the [0, 1) that EvolutionConfig enforces."""
    with pytest.raises(ConfigurationError, match=r"gamma must lie in \[0, 1\)"):
        smoothed_norm(make_diagonal([0.0, 1.0]), gamma, np.ones(2))


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


def test_configs_are_frozen():
    """check_pairing runs when a config is made, so no field may change after.

    A probe kernel swapped into a mutable config used to reach
    resolvent_apply, which returned 0.1366 instead of refusing it.
    """
    cfg = cfg_with(times=(1.0,))
    probe = KernelParams(kind="caputo_probe", alpha=0.5)
    with pytest.raises(FrozenInstanceError):
        cfg.kernel = probe
    with pytest.raises(FrozenInstanceError):
        cfg.kernel.alpha = 0.95
    with pytest.raises(FrozenInstanceError):
        cfg.contour.theta = 2.0
    with pytest.raises(ConfigurationError, match="probe"):
        replace(cfg, kernel=probe)


NOT_PSD = DiscreteOperator(stiffness=TridiagonalMatrix(np.array([-50.0, 0.3, 7.0]), np.zeros(2)),
                           lumped_mass=np.ones(3))
_PSD_ROUTES = {
    "resolvent_apply": lambda cfg: resolvent_apply(NOT_PSD, cfg, 1.0, np.ones(3)),
    "smoothed_apply": lambda cfg: smoothed_apply(NOT_PSD, cfg, 1.0, np.ones(3)),
    "unforced_windows": lambda cfg: next(fracresolvent.evolution.unforced_windows(NOT_PSD, cfg)),
    "mild_solution": lambda cfg: mild_solution(NOT_PSD, cfg),
    "mild_solution_forced": lambda cfg: mild_solution(
        NOT_PSD, replace(cfg, forcing=lambda tau: np.ones(3))),
    "smoothed_norm": lambda cfg: smoothed_norm(NOT_PSD, cfg.gamma, np.ones(3)),
    "laplace_check": lambda cfg: laplace_check(NOT_PSD, cfg, 1.0),
}


@pytest.mark.parametrize("gamma", (0.0, 0.5, 0.25))
@pytest.mark.parametrize("route", sorted(_PSD_ROUTES))
def test_every_route_refuses_a_pencil_that_is_not_psd(monkeypatch, route, gamma):
    """The pencil with eigenvalues (-50, 0.3, 7) is refused by one Sturm count on every
    route and at every gamma, 0 included, before any solve or eigendecomposition; unchecked,
    resolvent_apply at t = 1 and gamma = 0 returns the decaying -50 mode (-0.0176)."""
    def refuse(*args):
        raise AssertionError("solved or decomposed a pencil that is not PSD")

    monkeypatch.setattr(fracresolvent.evolution, "resolve", refuse)
    monkeypatch.setattr(fracresolvent.operators, "eigh_tridiagonal", refuse)
    cfg = cfg_with(gamma=gamma, u0=np.ones(3))
    with pytest.raises(NumericalError, match=r"eigenvalue -50 below .* not PSD"):
        _PSD_ROUTES[route](cfg)


def test_unforced_windows_refuse_a_missing_u0():
    """The refusal names u0 before any Sturm count, rule or solve is made."""
    cfg = cfg_with(times=(0.5, 1.0), gamma=0.5)
    with pytest.raises(ConfigurationError, match="requires u0"):
        next(fracresolvent.evolution.unforced_windows(assemble_kimura(48), cfg))


def test_mild_homogeneous_equals_family():
    """A lone output time runs resolvent_apply's rule, bit for bit."""
    op = make_diagonal([0.5, 2.0])
    u0 = np.array([1.0, -1.0])
    for t in (0.5, 1.0):
        cfg = cfg_with(times=(t,), u0=u0)
        res = mild_solution(op, cfg)
        assert np.array_equal(res.states[0], resolvent_apply(op, cfg, t, u0))
        assert np.all(np.isfinite(res.smoothed_norms))


def test_mild_window_shares_one_contour():
    """Times 0.5 and 1 form one window: its states are the inversions on the
    contour sized for [0.5, 1], and within tol of each time's own rule."""
    op = make_diagonal([0.5, 2.0])
    u0 = np.array([1.0, -1.0])
    cfg = cfg_with(times=(0.5, 1.0), u0=u0)
    assert time_windows(cfg.contour, cfg.times, cfg.tol) == [slice(0, 2)]
    res = mild_solution(op, cfg)
    quad = build_quadrature(cfg.contour, cfg.times, cfg.tol)
    lam = np.array([0.5, 2.0])
    for i, t in enumerate(cfg.times):
        modes = scalar_mode_values(quad, cfg.kernel, lam, float(t))
        assert np.allclose(res.states[i], modes * u0, rtol=1e-13, atol=0.0)
        own = resolvent_apply(op, cfg, float(t), u0)
        assert np.max(np.abs(res.states[i] - own) / np.abs(own)) <= cfg.tol


def _per_node_inversion(op, cfg, times, rows):
    """The window's rows summed one node at a time, as the inversion did before
    its solves were stacked: -2 Re sum_j F[:, j] y_j, y_j solved for rows[j]."""
    times = np.asarray(times, dtype=np.float64)
    quad = build_quadrature(cfg.contour, times, cfg.tol)
    acc = np.zeros((times.size, op.n), dtype=np.complex128)
    for s, w, b in zip(quad.nodes, quad.weights, rows, strict=True):
        y = resolve(op, -redirect(s, cfg.kernel.alpha), b)
        acc -= (w * np.exp(s * times) * eval_kernel(cfg.kernel, s))[:, None] * y
    return 2.0 * acc.real


KIMURA_60, BESSEL_60 = assemble_kimura(60), assemble_bessel(0.25, 20.0, 60)
W_HALF = KernelParams(kind="w", alpha=0.5, beta=0.8)


@pytest.mark.parametrize("op, kernel, chunked, distinct", (
    pytest.param(KIMURA_60, ABC_HALF, False, False, id="kimura-abc"),
    pytest.param(KIMURA_60, W_HALF, False, False, id="kimura-w"),
    pytest.param(BESSEL_60, ABC_HALF, False, False, id="bessel-abc"),
    pytest.param(BESSEL_60, W_HALF, False, False, id="bessel-w"),
    pytest.param(BESSEL_60, W_HALF, True, False, id="bessel-w-chunked"),
    pytest.param(BESSEL_60, W_HALF, False, True, id="bessel-w-rows"),
    pytest.param(BESSEL_60, W_HALF, True, True, id="bessel-w-rows-chunked"),
))
def test_inverse_apply_is_the_sum_over_nodes(monkeypatch, op, kernel, chunked, distinct):
    """The matrix products of a window equal the per-node sum, for a window of
    four unforced times: in one chunk, and with the chunk budget cut to the
    8-row floor, so that the window's nodes split into at least 3 chunks.  The
    distinct cases give _node_solves a right-hand side of each node's own, complex
    rows and real ones mixed, as a forced time's lag 0 and later lags do."""
    rng = np.random.default_rng(23)
    u0 = rng.standard_normal(op.n)
    cfg = cfg_with(kernel=kernel, times=(0.1, 0.2, 0.5, 1.0), u0=u0)
    assert time_windows(cfg.contour, cfg.times, cfg.tol) == [slice(0, 4)]
    quad = build_quadrature(cfg.contour, cfg.times, cfg.tol)
    if chunked:
        monkeypatch.setattr(fracresolvent.evolution, "_CHUNK_BYTES", 0)
        assert quad.nodes.size > 2 * 8
    if distinct:
        m, s = quad.nodes.size, quad.nodes
        rows = [*rng.standard_normal((m, op.n))]
        rows[::2] = [b + 1j * rng.standard_normal(op.n) for b in rows[::2]]
        factor = quad.weights * np.exp(s * cfg.times[:, None]) * eval_kernel(kernel, s)
        got = fracresolvent.evolution._node_solves(op, redirect(s, kernel.alpha), factor, rows)
    else:
        rows = [u0] * quad.nodes.size
        got = _inverse_apply(op, cfg, cfg.times, u0)
    want = _per_node_inversion(op, cfg, cfg.times, rows)
    assert got.shape == want.shape == (4, op.n)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_window_in_one_chunk_is_one_matrix_product():
    """A window whose solves fit in one chunk returns the bytes of -2 Re(F @ Y),
    with all of its node solves stacked as the rows of Y."""
    op = assemble_kimura(1000)
    u0 = np.sin(np.pi * np.arange(1, op.n + 1) / (op.n + 1))
    cfg = cfg_with(times=np.logspace(-3.0, -2.0, 9), u0=u0)
    quad = build_quadrature(cfg.contour, cfg.times, cfg.tol)
    assert quad.nodes.size <= fracresolvent.evolution._CHUNK_BYTES // (16 * op.n)
    factor = quad.weights * np.exp(quad.nodes * cfg.times[:, None]) * eval_kernel(cfg.kernel,
                                                                                 quad.nodes)
    ys = np.array([resolve(op, -redirect(s, cfg.kernel.alpha), u0) for s in quad.nodes])
    want = -2.0 * np.real(factor @ ys)
    assert _inverse_apply(op, cfg, cfg.times, u0).tobytes() == want.tobytes()


def test_window_solves_are_not_stacked():
    """A 9-time window on a 20,000-node mesh traces a peak below the M n 16 bytes
    that stacking its M complex node solves would take."""
    op = assemble_kimura(20_000)
    u0 = np.sin(np.pi * np.arange(1, op.n + 1) / (op.n + 1))
    cfg = cfg_with(times=np.logspace(-3.0, -2.0, 9), u0=u0)
    stack = build_quadrature(cfg.contour, cfg.times, cfg.tol).nodes.size * op.n * 16
    tracemalloc.start()
    try:
        _inverse_apply(op, cfg, cfg.times, u0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack


def test_window_rows_are_summed_in_place():
    """_node_solves on a 33-time window on a 20,000-node mesh traces a peak below its
    (33, n) rows, its 8-row chunk buffer and one solve's temporaries, give or take 16 KiB
    of interpreter objects: each chunk is added into the rows in place.  Forming each
    chunk's product as a (33, n) complex array took 10.6 MB more."""
    op = assemble_kimura(20_000)
    u0 = np.sin(np.pi * np.arange(1, op.n + 1) / (op.n + 1))
    times = np.logspace(-2.0, 1.0, 33)
    quad = build_quadrature(BASE_SPEC, times, 1e-8)
    factor = quad.weights * np.exp(quad.nodes * times[:, None]) * eval_kernel(ABC_HALF,
                                                                              quad.nodes)
    z, rows = redirect(quad.nodes, ABC_HALF.alpha), [u0] * quad.nodes.size
    resolve(op, -z[0], u0)  # any first-call allocation is made before tracing
    tracemalloc.start()
    try:
        resolve(op, -z[0], u0)
        solve = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        fracresolvent.evolution._node_solves(op, z, factor, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < times.size * op.n * 8 + 8 * op.n * 16 + solve + 2**14


def _exact_energy(op, u) -> Fraction:
    """u^T S u summed exactly in rationals from the float entries of S and u."""
    d, e = (list(map(Fraction, band.tolist())) for band in (op.stiffness.diag,
                                                           op.stiffness.off))
    v = list(map(Fraction, u.tolist()))
    return (sum(di * vi * vi for di, vi in zip(d, v))
            + 2 * sum(ei * a * b for ei, a, b in zip(e, v[:-1], v[1:])))


def _norm_of_one_state(op, gamma, u):
    """||A^gamma u||_M for one state through the eigenbasis."""
    if gamma > 0.0:
        u = op.apply_spectral(op.spectrum() ** gamma, u)
    return op.weighted_norm(u)


@pytest.mark.parametrize("gamma", (0.1, 0.25, 0.75, 0.9))
@pytest.mark.parametrize("make", (lambda: assemble_kimura(200),
                                  lambda: assemble_bessel(0.25, 20.0, 200)),
                         ids=("kimura", "bessel"))
def test_fractional_norm_needs_no_back_transform(monkeypatch, make, gamma):
    """At gamma not in {0, 1/2}, ||A^gamma u||_M is the 2-norm of lam^gamma times u's
    eigen-coefficients: with apply_spectral refused, it is within 1e-13 of the
    M-norm of the back-transformed A^gamma u."""
    op = make()
    u = np.random.default_rng(3).standard_normal(op.n)
    want = op.weighted_norm(op.apply_spectral(op.spectrum() ** gamma, u))

    def refuse(self, values, x):
        raise AssertionError("the norm back-transformed A^gamma u")

    monkeypatch.setattr(DiscreteOperator, "apply_spectral", refuse)
    assert smoothed_norm(op, gamma, u) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.fixture(scope="module")
def kimura_4000():
    n = 4000
    return assemble_kimura(n), np.sin(np.pi * np.arange(1, n + 1) / (n + 1))


@pytest.mark.parametrize("gamma", (0.0, 0.5, 0.25))
def test_mild_norms_equal_the_norm_of_each_state(kimura_4000, gamma):
    """All rows' norms in one pass equal each state's own norm to 1e-14, and
    the norms by another route: to 1e-14 through the eigenbasis, and at
    gamma = 1/2 the squared norm to 1e-12 of the exact rational u^T S u.

    At these early times u^T S u is about 2e7 times smaller than sum d u^2,
    so a form that adds the bands' signed products loses digits to
    cancellation: forming S u first missed the exact value by up to 3.8e-11.
    """
    op, u0 = kimura_4000
    cfg = cfg_with(times=np.logspace(-3.0, -1.0, 9), u0=u0, gamma=gamma)
    res = mild_solution(op, cfg)
    for u, got in zip(res.states, res.smoothed_norms):
        assert got == pytest.approx(smoothed_norm(op, gamma, u), rel=1e-14, abs=0.0)
        if gamma == 0.5:
            assert Fraction(got) ** 2 == pytest.approx(_exact_energy(op, u), rel=1e-12, abs=0)
        else:
            assert got == pytest.approx(_norm_of_one_state(op, gamma, u), rel=1e-14, abs=0.0)


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


@pytest.mark.parametrize("times, forcing, solves, eliminations", (
    ((0.1, 1.0), lambda tau: np.ones(50), 1920, 30),
    ((0.1, 1.0), None, 30, 30),
    (np.logspace(-3.0, 1.0, 33), None, 92, 92),
), ids=("forced", "free", "sweep"))
def test_mild_solve_counts(monkeypatch, times, forcing, solves, eliminations):
    """Forced: 15 nodes per lag at tol = 1e-8, and per output time one pass of
    n_sub 15 solves, lag 0's for V(t) u0 and the lag-0 forcing terms together, each
    later lag's for its real slope-jump row.  A forcing constant in tau has zero
    slope jumps after lag 0, so only lag 0's 15 solves per output time reach zgtsv.  Unforced: one
    inversion per window, whose contour serves [t0, t1]: 30 nodes for (0.1, 1);
    28 and 64 for the windows of 8 and 25 times of the 33-time sweep, grown back
    from its last time to the node budget, where windows of at most a decade made
    114 and one inversion per time made 495."""
    calls = {"solve": 0, "zgtsv": 0}

    def counted(module, name, key):
        f = getattr(module, name)

        def g(*args):
            calls[key] += 1
            return f(*args)

        monkeypatch.setattr(module, name, g)

    counted(fracresolvent.operators, "solve_tridiagonal", "solve")
    counted(scipy.linalg.lapack, "zgtsv", "zgtsv")
    cfg = cfg_with(times=times, u0=np.ones(50), forcing=forcing)
    mild_solution(assemble_kimura(50), cfg, n_sub=64)
    assert (calls["solve"], calls["zgtsv"]) == (solves, eliminations)


def _per_lag_mild(op, cfg, n_sub):
    """Forced states with a contour of each lag's own: build_quadrature(spec, [t - j h], tol)
    and one resolve per node, for every lag j of every output time."""
    states = []
    for t in cfg.times:
        h = t / n_sub
        f = np.array([cfg.forcing(j * h) for j in range(n_sub + 1)])
        slopes = np.diff(f, axis=0) / h
        jumps = slopes - np.vstack([np.zeros(op.n), slopes[:-1]])
        u = np.zeros(op.n)
        for j in range(n_sub):
            lag = t - j * h
            quad = build_quadrature(cfg.contour, [lag], cfg.tol)
            for s, w in zip(quad.nodes, quad.weights):
                b = jumps[j] / s**2 + (cfg.u0 + f[0] / s if j == 0 else 0.0)
                y = resolve(op, -redirect(s, cfg.kernel.alpha), b)
                u = u - 2.0 * np.real(w * np.exp(s * lag) * eval_kernel(cfg.kernel, s) * y)
        states.append(u)
    return np.array(states)


@pytest.mark.parametrize("n_sub", (2, 64))
@pytest.mark.parametrize("kernel", (ABC_HALF, KernelParams(kind="w", alpha=0.5, beta=0.8)),
                         ids=("abc", "w"))
@pytest.mark.parametrize("op", (assemble_kimura(40), assemble_bessel(0.25, 20.0, 40)),
                         ids=("kimura", "bessel"))
def test_mild_lags_share_the_unit_rule(op, kernel, n_sub):
    """The unit-time rule scaled by 1 / lag gives each lag's own contour: the
    states equal the per-lag reference to 1e-12 relative."""
    x = np.linspace(0.0, 1.0, op.n)
    cfg = cfg_with(kernel=kernel, times=(0.1, 1.0), u0=np.sin(np.pi * x),
                   forcing=lambda tau: np.sin(5.0 * tau) + 0.5 + x)
    got = mild_solution(op, cfg, n_sub=n_sub).states
    want = _per_lag_mild(op, cfg, n_sub)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_forced_run_builds_one_rule(monkeypatch):
    """A forced run builds one quadrature per call and evaluates the kernel once
    per output time, on the (n_sub, M) nodes of all of its lags."""
    build, kernel = fracresolvent.evolution.build_quadrature, fracresolvent.evolution.eval_kernel
    built, shapes = [], []

    def counted_build(spec, t, tol):
        built.append(t)
        return build(spec, t, tol)

    def counted_kernel(params, s):
        shapes.append(np.shape(s))
        return kernel(params, s)

    monkeypatch.setattr(fracresolvent.evolution, "build_quadrature", counted_build)
    monkeypatch.setattr(fracresolvent.evolution, "eval_kernel", counted_kernel)
    cfg = cfg_with(times=(0.1, 0.5, 1.0), u0=np.ones(20), forcing=lambda tau: np.ones(20))
    mild_solution(assemble_kimura(20), cfg, n_sub=8)
    assert built == [1.0]
    assert shapes == [(8, 15)] * 3


def test_forced_time_is_one_solve_pass(monkeypatch):
    """A forced call makes one _node_solves call per output time, over all of its
    (lag, node) pairs.  Lag 0's rows u0 + f(0)/s + sigma_0/s^2 are complex; every
    later lag solves its real slope-jump row and carries 1/s^2 in its factor."""
    node_solves, resolve_ = fracresolvent.evolution._node_solves, fracresolvent.evolution.resolve
    sizes, real = [], []

    def counted_node_solves(op, z, factor, b):
        sizes.append(z.size)
        return node_solves(op, z, factor, b)

    def recorded_resolve(op, z, b):
        real.append(not np.iscomplexobj(b))
        return resolve_(op, z, b)

    monkeypatch.setattr(fracresolvent.evolution, "_node_solves", counted_node_solves)
    monkeypatch.setattr(fracresolvent.evolution, "resolve", recorded_resolve)
    x = np.linspace(0.0, 1.0, 20)
    cfg = cfg_with(times=(0.1, 1.0), u0=np.sin(np.pi * x),
                   forcing=lambda tau: np.sin(5.0 * tau) + 0.5 + x)
    mild_solution(assemble_kimura(20), cfg, n_sub=8)
    m = build_quadrature(cfg.contour, 1.0, cfg.tol).nodes.size
    assert sizes == [8 * m] * 2
    assert real == ([False] * m + [True] * 7 * m) * 2


def test_complex_u0_is_refused():
    """A complex u0 is refused, not cast to its real part."""
    with pytest.raises(ConfigurationError, match="u0 must be real"):
        cfg_with(u0=(1.0 + 1.0j) * np.ones(3))


def test_complex_forcing_is_refused_at_its_tau():
    """A forcing that turns complex at tau = 0.5 is refused there, not cast to its real part."""
    op = make_diagonal([1.0, 2.0])
    forcing = lambda tau: np.ones(2) * (1.0j if tau >= 0.5 else 1.0)
    cfg = cfg_with(times=(1.0,), u0=np.zeros(2), forcing=forcing)
    with pytest.raises(ConfigurationError, match=r"tau=0\.5 returned complex128 .* expected real"):
        mild_solution(op, cfg, n_sub=4)


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


def test_laplace_check_builds_one_quadrature_per_window(monkeypatch):
    """The fine log grid over [1e-10, 40] (1,115 times at lam = 1, the coarse grid
    every other one of them) is grouped into time windows: 4 contours, where two
    grids made 8, windows of at most a decade made 24 and one per time 1,673."""
    build = fracresolvent.evolution.build_quadrature
    sizes = []

    def counted(spec, t, tol):
        sizes.append(np.size(t))
        return build(spec, t, tol)

    monkeypatch.setattr(fracresolvent.evolution, "build_quadrature", counted)
    op = assemble_kimura(30)
    report = laplace_check(op, cfg_with(), 1.0, x=np.sin(np.pi * np.arange(1, 31) / 31.0))
    assert report.rel_err <= 1e-3
    assert (len(sizes), sum(sizes)) == (4, 1115)


def test_laplace_check_coarse_integral_is_every_other_fine_sample(monkeypatch):
    """One pass of mode values over one log grid serves both integrals: the coarse
    one is the trapezoid, with its power-law sliver, on every other fine sample."""
    modes, apply = fracresolvent.evolution.scalar_mode_values, DiscreteOperator.apply_spectral
    ts, vals, applied = [], [], []

    def recorded_modes(quad, kernel, lam, t):
        ts.append(t[:, 0])
        vals.append(modes(quad, kernel, lam, t))
        return vals[-1]

    def recorded_apply(self, values, x):
        applied.append(values)
        return apply(self, values, x)

    monkeypatch.setattr(fracresolvent.evolution, "scalar_mode_values", recorded_modes)
    monkeypatch.setattr(DiscreteOperator, "apply_spectral", recorded_apply)
    lam = 2.0
    laplace_check(assemble_kimura(30), cfg_with(), lam, x=np.sin(np.pi * np.arange(1, 31) / 31.0))
    t, v = np.concatenate(ts), np.concatenate(vals)
    assert t.size % 2 == 1 and np.all(np.diff(t) > 0.0)  # one grid, each time once
    (integrals,) = applied
    for row, step in ((0, 2), (1, 1)):
        tt, vv = t[::step], v[::step]
        f = np.exp(-lam * tt)[:, None] * vv * tt[:, None]
        p = np.log(vv[0] / vv[1]) / math.log(tt[1] / tt[0])
        want = np.trapezoid(f, x=np.log(tt), axis=0) + f[0] / (1.0 - p)
        assert np.allclose(integrals[row], want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("alpha, beta", [(0.5, 0.8), (0.3, 0.5)])
def test_laplace_check_w_kernel_sliver(alpha, beta):
    """The w modes grow like t^(-alpha) near 0; the [0, 1e-10] sliver is integrated
    as that power law.  At LAPLACE_T_MIN = 1e-6 the power law's next term left
    6.4e-4 at alpha = 1/2, which grid_delta (6.7e-6) did not see; at 1e-10 the
    rel_err is 6.0e-8 and 6.0e-11."""
    kernel = KernelParams(kind="w", alpha=alpha, beta=beta)
    cfg = cfg_with(contour=default_contour_spec(alpha, 1e-8), kernel=kernel)
    x = np.sin(np.pi * np.arange(1, 201) / 201.0)
    report = laplace_check(assemble_kimura(200), cfg, 1.0, x=x)
    assert report.rel_err <= 1e-6
    assert report.grid_delta <= 0.5 * LAPLACE_TOL


@pytest.mark.parametrize("values", [
    lambda t: t**-1.2 * np.ones(3),  # not integrable at 0
    lambda t: np.log(t / 1.01e-10) * np.ones(3),  # changes sign between the first samples
], ids=["nonintegrable", "sign-change"])
def test_laplace_check_refuses_a_sliver_that_is_not_an_integrable_power(monkeypatch, values):
    monkeypatch.setattr(fracresolvent.evolution, "scalar_mode_values",
                        lambda quad, kernel, lam, t: values(t))
    with pytest.raises(RefinementNeededError, match="not power laws"):
        laplace_check(make_diagonal([0.5, 1.0, 5.0]), cfg_with(), 1.0, x=np.ones(3))


def test_laplace_check_validation():
    op = make_diagonal([1.0])
    with pytest.raises(ConfigurationError):
        laplace_check(op, cfg_with(), 0.0, x=np.ones(1))
    with pytest.raises(ConfigurationError):
        laplace_check(op, cfg_with(), 1.0)  # no vector anywhere


def test_laplace_check_refuses_complex_x():
    """A complex x is refused, not cut to its real part: rhs was [0, 0] for x = [1j, 1j]."""
    with pytest.raises(ConfigurationError, match="x must be real"):
        laplace_check(make_diagonal([1.0, 2.0]), cfg_with(), 1.0, x=np.array([1j, 1j]))


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


@pytest.mark.parametrize("times", ((math.nan,), (math.nan, 1.0), (0.5, math.inf)))
def test_config_refuses_non_finite_times(times):
    with pytest.raises(ConfigurationError, match="finite"):
        cfg_with(times=times)


@pytest.mark.parametrize("t", (math.nan, math.inf))
def test_resolvent_apply_refuses_non_finite_time(t):
    """A non-finite t is a configuration error, not a failed solve or a branch cut."""
    with pytest.raises(ConfigurationError, match="finite"):
        resolvent_apply(make_diagonal([0.5, 2.0]), cfg_with(), t, np.ones(2))
