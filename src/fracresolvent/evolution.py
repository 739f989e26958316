"""Evolution family V(t), fractional smoothing, and mild solutions.

The family acts through the inversion integral of K(s) (s^(alpha-1) I + A)^(-1)
along the hyperbolic contour of contour.py.  The spectral shift is
s^(alpha-1), mapping small Laplace frequencies to large spectral
parameters, which is what makes almost sectorial generators (no resolvent
control near 0) usable: the contour stays a distance mu (1 - sin phi) / t0
from the origin, t0 the first time of the window it serves or the lag of a
forced term, so it never asks for the resolvent near the spectral origin.

Note the resolvent sign: A is assembled positive semidefinite and the
dynamics is u' (fractional) + A u = f, so every evaluation solves
(s^(alpha-1) M + S) y = M x.  These systems are nonsingular on the contour
because every node has |arg s| < theta < pi, so s^(alpha-1) stays off the
negative real axis whatever the angle condition's lower bound.

Every product is one inversion, _invert, of rows 2 Re sum_j w_j e^(s_j t) K(s_j)
s_j^(-p) (s_j^(alpha-1) I + A)^(-1) b_j, with two backends: banded solves of the pencil
for V(t), and division by s^(alpha-1) + lambda on the eigenvalues for scalar_mode_values.
Its node solves are added into the rows of all of a window's times in place, two real
matrix products per 512 KiB chunk, and a forced time's lags are one such inversion.
Spectral questions go to the operator: every route runs op.require_psd before its first
solve, at any gamma, and A^gamma takes op.spectrum() and its norms op.power_norms(gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.blas import dgemm

from fracresolvent.contour import (
    DEFAULT_THETA_A,
    ContourQuadrature,
    ContourSpec,
    angle_condition,
    build_quadrature,
    check_times,
    min_theta,
    time_windows,
)
from fracresolvent.errors import ConfigurationError, EvaluationError, RefinementNeededError
from fracresolvent.kernels import CAPUTO_PROBE, KernelParams, eval_kernel, redirect
from fracresolvent.operators import DiscreteOperator, resolve

DEFAULT_CONV_SUBINTERVALS = 64
LAPLACE_T_MIN = 1e-10
LAPLACE_TAIL_FACTOR = 40.0
LAPLACE_TOL = 1e-3
LAPLACE_POINTS_PER_DECADE = 48
_CHUNK_BYTES = 2**19  # node solves held at once by _invert, at least 8 rows


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma < 1.0:
        raise ConfigurationError("gamma must lie in [0, 1), got %r" % gamma)


def _real(x, name: str) -> np.ndarray:
    if np.iscomplexobj(x):  # a float cast would keep only the real part
        raise ConfigurationError("%s must be real, got complex values" % name)
    return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class EvolutionConfig:
    """Everything a run needs besides the operator; made only with a usable kernel/angle pair."""

    kernel: KernelParams
    contour: ContourSpec
    gamma: float = 0.0
    times: Sequence[float] = field(default_factory=lambda: (1.0,))
    u0: np.ndarray | None = None
    forcing: Callable[[float], np.ndarray] | None = None
    tol: float = 1e-8

    def __post_init__(self):
        _check_gamma(self.gamma)
        if not 0.0 < self.tol < 1.0:
            raise ConfigurationError("tol must lie in (0, 1), got %r" % self.tol)
        object.__setattr__(self, "times", check_times(self.times))
        object.__setattr__(self, "u0", None if self.u0 is None else _real(self.u0, "u0"))
        if self.forcing is not None and not callable(self.forcing):
            raise ConfigurationError("forcing must be callable or None")
        check_pairing(self)


@dataclass
class EvolutionResult:
    """mild_solution's states u(t) and their A^gamma norms, one row per cfg.times."""

    states: np.ndarray
    smoothed_norms: np.ndarray


@dataclass
class LaplaceReport:
    """Two-sided check of the transform identity at a single frequency."""

    lhs: np.ndarray
    rhs: np.ndarray
    rel_err: float
    grid_delta: float


def check_pairing(cfg: EvolutionConfig) -> None:
    """Reject kernel/contour pairs the framework cannot drive.

    EvolutionConfig calls it when it is made.  Every operator is a
    symmetric pencil with spectrum in [0, inf), so one sector angle,
    DEFAULT_THETA_A, serves them all.
    """
    if cfg.kernel.kind == CAPUTO_PROBE:
        raise ConfigurationError(
            "the probe kernel evaluates the resolvent at the spectral origin, "
            "which almost sectorial generators do not control; it is a "
            "diagnostic, not a dynamics"
        )
    alpha = cfg.kernel.alpha
    if not angle_condition(alpha, cfg.contour.theta, DEFAULT_THETA_A):
        raise ConfigurationError(
            "contour angle %g violates the redirection condition for alpha=%g: "
            "need theta >= %g to clear the operator sector"
            % (cfg.contour.theta, alpha, min_theta(alpha))
        )


def scalar_mode_values(quad: ContourQuadrature, kernel: KernelParams, lam: np.ndarray,
                       t) -> np.ndarray:
    """v(lambda, t) for every eigenvalue at once, at a time t or one row per time of a column t.

    v is the scalar inversion of K(s) / (s^(alpha-1) + lambda), _invert's spectral backend:
    the denominator stays away from zero for lambda >= 0 because every node has
    |arg s| < theta < pi, so |arg s^(alpha-1)| < (1 - alpha) pi.
    """
    lam, s = np.asarray(lam, dtype=np.float64), quad.nodes
    v = _invert(lambda z, b: b / (z - lam), lam.size, kernel, s, quad.weights * np.exp(s * t),
                [np.ones(lam.size)] * s.size)
    return v if np.ndim(t) else v[0]


def resolvent_apply(op: DiscreteOperator, cfg: EvolutionConfig, t: float, x) -> np.ndarray:
    """V(t) x by one banded solve per contour node, on a pencil op.require_psd passes."""
    x = op.check_vector(_real(x, "x"))
    op.require_psd()
    return _inverse_apply(op, cfg, [t], x)[0]


def _inverse_apply(op: DiscreteOperator, cfg: EvolutionConfig, times, x) -> np.ndarray:
    """V(t) x, the inverse transform of K(s) (s^(alpha-1) I + A)^(-1) x, at each of a
    window of times; the window's times share each node's solve."""
    times = np.asarray(times, dtype=np.float64)
    quad = build_quadrature(cfg.contour, times, cfg.tol)
    s = quad.nodes
    return _invert(partial(resolve, op), op.n, cfg.kernel, s,
                   quad.weights * np.exp(s * times[:, None]), [x] * s.size)


def _invert(solve, n: int, kernel: KernelParams, s, wexp, b, squared=None) -> np.ndarray:
    """The one inversion: rows 2 Re sum_j F_j (z_j I + A)^(-1) b[j], z = s^(alpha-1) and
    F = wexp K(s), wexp = w e^(s t).  A window's s is (M,) and wexp (T, M), a row per time;
    a forced time's are (n_sub, M), lag by lag, summed into one row, with F / s^2 on
    s[squared], the lags after lag 0.  solve(z, b) = (z I - A)^(-1) b of width n is the
    backend: partial(resolve, op) solves the banded pencil, b / (z - lam) is the spectral one
    on the eigenvalues lam.  Y_j = solve(-z_j, b[j]) is taken max(8, _CHUNK_BYTES // (16 n))
    rows at a time, each chunk added as -2 Re F Re Y + 2 Im F Im Y into the (T, n) rows in
    place (dgemm, beta = 1)."""
    factor = wexp * eval_kernel(kernel, s)
    if squared is not None:
        factor[squared] /= s[squared] ** 2
    z, factor = redirect(s, kernel.alpha).ravel(), factor.reshape(-1, np.size(s))
    rows = max(8, _CHUNK_BYTES // (16 * n))
    ys = np.empty((min(rows, z.size), n), dtype=np.complex128)
    out = np.zeros((factor.shape[0], n))
    for lo in range(0, z.size, rows):
        for j, (zj, bj) in enumerate(zip(z[lo:lo + rows], b[lo:lo + rows])):
            ys[j] = solve(-zj, bj)
        for y, f, scale in ((ys.real, factor.real, -2.0), (ys.imag, factor.imag, 2.0)):
            dgemm(scale, y[:j + 1].T, f[:, lo:lo + j + 1].T, 1.0, out.T, overwrite_c=True)
    return out


def smoothed_apply(op: DiscreteOperator, cfg: EvolutionConfig, t: float, x) -> np.ndarray:
    """A^gamma V(t) x: V(t) x by shifted solves, then A^gamma through the eigenbasis."""
    v = resolvent_apply(op, cfg, t, x)
    return v if cfg.gamma == 0.0 else op.apply_spectral(op.spectrum() ** cfg.gamma, v)


def smoothed_norm(op: DiscreteOperator, gamma: float, u) -> float:
    """M-weighted norm of A^gamma u for a real u, gamma in [0, 1), by op.power_norms: at
    gamma == 1/2 ||A^(1/2) u||_M^2 = u^T S u from the stiffness bands, with no eigenvectors;
    any other gamma > 0 the 2-norm of lam^gamma times u's eigen-coefficients."""
    _check_gamma(gamma)
    return float(op.power_norms(gamma)(op.check_vector(_real(u, "u"))[None, :])[0])


def unforced_windows(op: DiscreteOperator, cfg: EvolutionConfig):
    """Each time_windows window of cfg.times, its V(t) u0 rows, unforced, and their norms."""
    if cfg.u0 is None:
        raise ConfigurationError("unforced_windows requires u0 in the configuration")
    norms = op.power_norms(cfg.gamma)  # the PSD check, before the first solve
    for window in time_windows(cfg.contour, cfg.times, cfg.tol):
        rows = _inverse_apply(op, cfg, cfg.times[window], cfg.u0)
        yield window, rows, norms(rows)
        del rows  # one window's rows are held at a time


def mild_solution(
    op: DiscreteOperator,
    cfg: EvolutionConfig,
    n_sub: int = DEFAULT_CONV_SUBINTERVALS,
) -> EvolutionResult:
    """u(t) = V(t) u0 + integral of V(t - tau) f(tau) over [0, t].

    The forcing is replaced by its piecewise-linear interpolant on the
    n_sub pieces of tau_j = j t / n_sub, which is convolved with V exactly
    (product integration):

        W1(t) f(0) + sum_{j < n_sub} (sigma_j - sigma_{j-1}) W2(t - tau_j),

    with sigma_j the slope on piece j, sigma_{-1} = 0, and W_k the inverse
    transform of K(s) s^(-k) (s^(alpha-1) I + A)^(-1).  The three lag-0
    terms share one right-hand side per node, u0 + f(0) / s + sigma_0 / s^2.
    A later lag solves its real jump row sigma_j - sigma_{j-1} itself and
    carries the 1 / s^2 in its factor, since each solve is linear in its
    right-hand side.  Only f is approximated, to second order in t / n_sub;
    the stiff modes' fast transients are integrated through the transform,
    and every lag is at least t / n_sub.  Every lag r runs the one unit-time
    rule of the call scaled by 1 / r, so e^(s r) is e^(unit node), and per
    output time all n_sub M (lag, node) solves are one _invert, in its bounded
    chunks, with one kernel evaluation.  Unforced, it stores the rows and
    norms that unforced_windows gives window by window.
    """
    if cfg.u0 is None:
        raise ConfigurationError("mild_solution requires u0 in the configuration")
    u0 = op.check_vector(cfg.u0)
    if int(n_sub) != n_sub or n_sub < 2:
        raise ConfigurationError("n_sub must be an integer >= 2, got %r" % n_sub)
    n_sub = int(n_sub)
    states, norms = np.zeros((len(cfg.times), op.n)), np.empty(len(cfg.times))
    if cfg.forcing is None:
        for window, states[window], norms[window] in unforced_windows(op, cfg):
            pass  # each window's rows and norms are stored in their slices
    else:
        norm_rows = op.power_norms(cfg.gamma)  # the PSD check, before the first solve
        unit = build_quadrature(cfg.contour, 1.0, cfg.tol)
        for it, t in enumerate(cfg.times.tolist()):
            h = t / n_sub
            f = np.array([_forcing_at(cfg.forcing, j * h, op.n) for j in range(n_sub + 1)])
            # slope jumps sigma_j - sigma_(j-1), with sigma_(-1) = 0
            jumps = np.diff(np.diff(f, axis=0) / h, axis=0, prepend=0.0)
            lags = (t - np.arange(n_sub) * h)[:, None]
            s = unit.nodes / lags  # row j: the nodes of lag t - j h
            c = s[0, :, None]
            b = [*(u0 + f[0] / c + jumps[0] / c**2)] + [row for row in jumps[1:] for _ in c]
            # lag j > 0 solves its real jump row, and its 1/s^2 rides in the factor
            states[it] = _invert(partial(resolve, op), op.n, cfg.kernel, s,
                                 unit.weights / lags * np.exp(unit.nodes), b, np.s_[1:])[0]
        norms[:] = norm_rows(states)
    return EvolutionResult(states=states, smoothed_norms=norms)


def _forcing_at(forcing, tau: float, n: int) -> np.ndarray:
    """f(tau) as a finite float vector of length n; failures name tau."""
    try:
        fval = np.asarray(forcing(tau))
        if not np.iscomplexobj(fval):  # a complex f is refused below, not cast to its real part
            fval = fval.astype(np.float64)
    except Exception as exc:
        raise EvaluationError("forcing evaluation failed at tau=%r: %s" % (tau, exc)) from exc
    if np.iscomplexobj(fval) or fval.shape != (n,):
        raise ConfigurationError("forcing at tau=%r returned %s values of shape %r, expected "
                                 "real (%d,)" % (tau, fval.dtype, fval.shape, n))
    if not np.all(np.isfinite(fval)):
        i = int(np.argmin(np.isfinite(fval)))
        raise EvaluationError("forcing at tau=%r has non-finite value %r at index %d"
                              % (tau, float(fval[i]), i), node=tau, index=i)
    return fval


def laplace_check(
    op: DiscreteOperator,
    cfg: EvolutionConfig,
    lam: float,
    x=None,
) -> LaplaceReport:
    """Verify the transform identity at frequency lam > 0.

    lhs integrates e^(-lam t) V(t) x over a log-spaced grid on
    [1e-10, 40/lam] (trapezoid in log t).  On the [0, 1e-10] sliver each mode
    is the power law t^(-p) through the first two grid samples, whose integral
    is T v(T) e^(-lam T) / (1 - p) at T = 1e-10; a p that is not finite or
    not below 1 is a refinement error.  The mode values are taken once, on the fine
    grid: LAPLACE_POINTS_PER_DECADE points plus their log-midpoints.  The integral on
    every other sample must be within LAPLACE_TOL / 2 of it or a refinement error is
    raised.  rhs is K(lam) (lam^(alpha-1) I + A)^(-1) x through the real banded solve,
    a separate code path from the spectral evaluation used for lhs.  The 40/lam
    truncation leaves an e^(-40) tail, far below any tolerance in play.
    """
    if lam <= 0.0:
        raise ConfigurationError("transform frequency must be positive, got %r" % lam)
    x = cfg.u0 if x is None else x
    if x is None:
        raise ConfigurationError("laplace_check needs a vector: pass x or set u0")
    x = op.check_vector(_real(x, "x"))
    coarse, fine = _transform_integral(op, cfg, lam, x, LAPLACE_TAIL_FACTOR / lam)
    scale = max(op.weighted_norm(fine), 1e-300)
    grid_delta = op.weighted_norm(fine - coarse) / scale
    if grid_delta > 0.5 * LAPLACE_TOL:
        raise RefinementNeededError(
            "time-grid doubling moved the transform by %.3e relative " % grid_delta
            + "(budget %.1e)" % (0.5 * LAPLACE_TOL),
            achieved=grid_delta,
        )
    shift = redirect(complex(lam, 0.0), cfg.kernel.alpha)
    kval = eval_kernel(cfg.kernel, complex(lam, 0.0))
    rhs = (-kval * resolve(op, -shift, x)).real
    rel_err = op.weighted_norm(fine - rhs) / max(op.weighted_norm(rhs), 1e-300)
    return LaplaceReport(lhs=fine, rhs=rhs, rel_err=float(rel_err), grid_delta=float(grid_delta))


def _transform_integral(op, cfg, lam, x, t_max) -> np.ndarray:
    """The coarse and fine lhs of laplace_check as two rows, from one pass of mode values."""
    decades = math.log10(t_max / LAPLACE_T_MIN)
    n = 2 * max(int(math.ceil(decades * LAPLACE_POINTS_PER_DECADE)), 8) + 1
    ts = np.logspace(math.log10(LAPLACE_T_MIN), math.log10(t_max), n)
    spectrum = op.spectrum()  # the PSD check, before the first solve
    vals = np.empty((n, op.n))
    for window in time_windows(cfg.contour, ts, cfg.tol):
        quad = build_quadrature(cfg.contour, ts[window], cfg.tol)
        vals[window] = scalar_mode_values(quad, cfg.kernel, spectrum, ts[window, None])
    integrand = np.exp(-lam * ts)[:, None] * vals * ts[:, None]
    acc = np.empty((2, op.n))
    for row, step in enumerate((2, 1)):  # the coarse grid is every other fine sample
        t, v, f = ts[::step], vals[::step], integrand[::step]
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.log(v[0] / v[1]) / math.log(t[1] / t[0])
        if not np.all(np.isfinite(p) & (p < 1.0)):
            raise RefinementNeededError("the modes are not power laws t^(-p), p < 1, on "
                                        "[0, %g]: p up to %r" % (LAPLACE_T_MIN, float(np.max(p))))
        acc[row] = np.trapezoid(f, x=np.log(t), axis=0) + f[0] / (1.0 - p)
    # apply_spectral is linear in its values: integrate the mode values, apply once
    return op.apply_spectral(acc, x)
