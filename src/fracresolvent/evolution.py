"""Evolution family V(t), fractional smoothing, and mild solutions.

The family acts through the inversion integral of K(s) (s^(alpha-1) I + A)^(-1)
along the hyperbolic contour of contour.py.  The spectral shift is
s^(alpha-1), mapping small Laplace frequencies to large spectral
parameters, which is what makes almost sectorial generators (no resolvent
control near 0) usable: the contour stays a distance mu (1 - sin phi) / t
from the origin, so it never asks for the resolvent near the spectral
origin.

Note the resolvent sign: A is assembled positive semidefinite and the
dynamics is u' (fractional) + A u = f, so every evaluation solves
(s^(alpha-1) M + S) y = M x.  These systems are uniformly nonsingular on
the contour because s^(alpha-1) stays a positive angle away from the
negative real axis whenever the angle condition holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from fracresolvent.contour import (
    ContourQuadrature,
    ContourSpec,
    angle_condition,
    build_quadrature,
    min_theta,
    redirect,
)
from fracresolvent.errors import (
    ConfigurationError,
    EvaluationError,
    NumericalError,
    RefinementNeededError,
)
from fracresolvent.kernels import CAPUTO_PROBE, KernelParams, eval_kernel
from fracresolvent.operators import DiscreteOperator, resolve
from fracresolvent.tridiag import EIGENVALUE_CLAMP

DEFAULT_CONV_SUBINTERVALS = 64
LAPLACE_T_MIN = 1e-6
LAPLACE_TAIL_FACTOR = 40.0


@dataclass
class EvolutionConfig:
    """Everything a run needs besides the operator itself."""

    kernel: KernelParams
    contour: ContourSpec
    gamma: float = 0.0
    times: Sequence[float] = field(default_factory=lambda: (1.0,))
    u0: np.ndarray | None = None
    forcing: Callable[[float], np.ndarray] | None = None
    tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigurationError("gamma must lie in [0, 1), got %r" % self.gamma)
        if not 0.0 < self.tol < 1.0:
            raise ConfigurationError("tol must lie in (0, 1), got %r" % self.tol)
        t = np.asarray(self.times, dtype=np.float64)
        if t.ndim != 1 or t.size == 0:
            raise ConfigurationError("times must be a nonempty 1-d sequence")
        if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
            raise ConfigurationError("times must be strictly increasing and positive")
        self.times = t
        if self.u0 is not None:
            self.u0 = np.asarray(self.u0, dtype=np.float64)
        if self.forcing is not None and not callable(self.forcing):
            raise ConfigurationError("forcing must be callable or None")


@dataclass
class EvolutionResult:
    """mild_solution's states u(t) and their A^gamma norms at cfg.times.

    node_counts counts the upper-half contour nodes of each time's rule,
    which is the number of shifted solves per inversion; the budget
    ContourSpec.n_nodes counts both halves.
    """

    times: np.ndarray
    states: np.ndarray
    smoothed_norms: np.ndarray
    node_counts: np.ndarray


@dataclass
class LaplaceReport:
    """Two-sided check of the transform identity at a single frequency."""

    lhs: np.ndarray
    rhs: np.ndarray
    rel_err: float
    grid_delta: float


def check_pairing(op: DiscreteOperator, cfg: EvolutionConfig) -> None:
    """Reject kernel/operator pairs the framework cannot drive."""
    if cfg.kernel.kind == CAPUTO_PROBE:
        raise ConfigurationError(
            "the probe kernel evaluates the resolvent at the spectral origin, "
            "which almost sectorial generators do not control; it is a "
            "diagnostic, not a dynamics"
        )
    alpha = cfg.kernel.alpha
    if not angle_condition(alpha, cfg.contour.theta, op.sector.theta_A):
        raise ConfigurationError(
            "contour angle %g violates the redirection condition for alpha=%g: "
            "need theta >= %g to clear the operator sector"
            % (cfg.contour.theta, alpha, min_theta(alpha, op.sector.theta_A))
        )


def scalar_mode_values(
    quad: ContourQuadrature, kernel: KernelParams, lam: np.ndarray, t: float
) -> np.ndarray:
    """v(lambda, t) for every eigenvalue at once.

    v is the scalar inversion of K(s) / (s^(alpha-1) + lambda); the
    denominator stays away from zero for lambda >= 0 because every node
    has |arg s| < theta < pi, so |arg s^(alpha-1)| < (1 - alpha) pi.
    """
    lam = np.asarray(lam, dtype=np.float64)
    s, factor = _node_factors(quad, kernel, t)
    denom = redirect(s, kernel.alpha)[:, None] + lam[None, :]
    return 2.0 * np.real(np.sum(factor[:, None] / denom, axis=0))


def _node_factors(quad: ContourQuadrature, kernel: KernelParams, t: float):
    """The contour nodes s and the factors w e^(st) K(s) every inversion shares."""
    s = quad.all_nodes()
    return s, quad.all_weights() * np.exp(s * t) * eval_kernel(kernel, s)


def _require_psd(op: DiscreteOperator) -> None:
    """Refuse a pencil whose lowest eigenvalue falls below EIGENVALUE_CLAMP."""
    lam_min = op.lowest_eigenvalue()
    if lam_min < EIGENVALUE_CLAMP:
        raise NumericalError(
            "eigenvalue %g below the clamp threshold %g: operator is not PSD"
            % (lam_min, EIGENVALUE_CLAMP)
        )


def _clamped_spectrum(op: DiscreteOperator) -> np.ndarray:
    """Eigenvalues of A for its fractional powers, roundoff negatives set to 0.

    _fractional_power and laplace_check's mode values take it from here.
    Eigenvalues below EIGENVALUE_CLAMP mean the pencil is not positive
    semidefinite and are refused.
    """
    lam = op.eigensystem().eigenvalues
    _require_psd(op)
    return np.maximum(lam, 0.0)


def resolvent_apply(op: DiscreteOperator, cfg: EvolutionConfig, t: float, x) -> np.ndarray:
    """V(t) x by one banded solve per contour node."""
    check_pairing(op, cfg)
    x = op.check_vector(np.asarray(x, dtype=np.float64))
    return _inverse_apply(op, cfg, t, x, 0)


def _inverse_apply(op: DiscreteOperator, cfg: EvolutionConfig, t: float, x, k: int):
    """Inverse transform of K(s) s^(-k) (s^(alpha-1) I + A)^(-1) x at t.

    k = 0 is V(t) x; k = 1 and k = 2 are its first and second integrals
    in time, whose extra pole at s = 0 the contour encloses.
    """
    s, factor = _node_factors(build_quadrature(cfg.contour, t, cfg.tol), cfg.kernel, t)
    factor = factor / s**k
    shifts = redirect(s, cfg.kernel.alpha)
    acc = np.zeros(op.n, dtype=np.complex128)
    for fj, zj in zip(factor, shifts):
        # (zj I + A)^{-1} x  ==  -(( -zj) I - A)^{-1} x
        acc += fj * (-resolve(op, -zj, x))
    return 2.0 * np.real(acc)


def _fractional_power(op: DiscreteOperator, gamma: float, u: np.ndarray) -> np.ndarray:
    """A^gamma u: u itself at gamma == 0, else through the eigenbasis."""
    if gamma == 0.0:
        return u
    return op.apply_spectral(_clamped_spectrum(op) ** gamma, u)


def smoothed_apply(op: DiscreteOperator, cfg: EvolutionConfig, t: float, x) -> np.ndarray:
    """A^gamma V(t) x: V(t) x by shifted solves, then A^gamma."""
    return _fractional_power(op, cfg.gamma, resolvent_apply(op, cfg, t, x))


def smoothed_norm(op: DiscreteOperator, gamma: float, u) -> float:
    """M-weighted norm of A^gamma u.

    gamma == 1/2 uses ||A^(1/2) u||_M^2 = <A u, u>_M = u^T S u on the
    stiffness bands and forms no eigenvectors; the pencil is still
    refused as not PSD when its lowest eigenvalue, found by bisection
    once per operator, falls below EIGENVALUE_CLAMP.  Any other gamma
    applies A^gamma as smoothed_apply does.
    """
    u = op.check_vector(np.asarray(u))
    if gamma == 0.5:
        _require_psd(op)
        # S is PSD, so a negative form is roundoff: clamped like the spectrum
        return math.sqrt(max(float(np.vdot(u, op.stiffness.matvec(u)).real), 0.0))
    return op.weighted_norm(_fractional_power(op, gamma, u))


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
    transform of K(s) s^(-k) (s^(alpha-1) I + A)^(-1).  Only f is
    approximated, to second order in t / n_sub; the stiff modes' fast
    transients are integrated through the transform, and every lag is at
    least t / n_sub.
    """
    check_pairing(op, cfg)
    if cfg.u0 is None:
        raise ConfigurationError("mild_solution requires u0 in the configuration")
    op.check_vector(cfg.u0)
    if int(n_sub) != n_sub or n_sub < 2:
        raise ConfigurationError("n_sub must be an integer >= 2, got %r" % n_sub)
    n_sub = int(n_sub)
    states = np.zeros((len(cfg.times), op.n))
    norms = np.zeros(len(cfg.times))
    # the node count depends on theta and tol, not on t
    n_nodes = build_quadrature(cfg.contour, float(cfg.times[0]), cfg.tol).all_nodes().size
    for it, t in enumerate(cfg.times):
        t = float(t)
        u = _inverse_apply(op, cfg, t, cfg.u0, 0)
        if cfg.forcing is not None:
            h = t / n_sub
            f = np.array([_forcing_at(cfg.forcing, j * h, op.n) for j in range(n_sub + 1)])
            # slope jumps sigma_j - sigma_(j-1), with sigma_(-1) = 0
            jumps = np.diff(np.diff(f, axis=0) / h, axis=0, prepend=0.0)
            u = u + _inverse_apply(op, cfg, t, f[0], 1)
            for j in range(n_sub):
                u = u + _inverse_apply(op, cfg, t - j * h, jumps[j], 2)
        states[it] = u
        norms[it] = smoothed_norm(op, cfg.gamma, u)
    return EvolutionResult(
        times=np.asarray(cfg.times, dtype=np.float64),
        states=states,
        smoothed_norms=norms,
        node_counts=np.full(len(cfg.times), n_nodes, dtype=np.int64),
    )


def _forcing_at(forcing, tau: float, n: int) -> np.ndarray:
    """f(tau) as a finite float vector of length n; failures name tau."""
    try:
        fval = np.asarray(forcing(tau), dtype=np.float64)
    except Exception as exc:
        raise EvaluationError("forcing evaluation failed at tau=%r: %s" % (tau, exc)) from exc
    if fval.shape != (n,):
        raise ConfigurationError(
            "forcing at tau=%r returned shape %r, expected (%d,)" % (tau, fval.shape, n)
        )
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
    tol: float = 1e-3,
    points_per_decade: int = 48,
) -> LaplaceReport:
    """Verify the transform identity at frequency lam > 0.

    lhs integrates e^(-lam t) V(t) x over a log-spaced grid on
    [1e-6, 40/lam] (trapezoid in log t), with the [0, 1e-6] sliver taken
    as a plateau rectangle; doubling the grid density must move lhs by
    less than tol/2 or a refinement error is raised.  rhs is
    K(lam) (lam^(alpha-1) I + A)^(-1) x through the real banded solve,
    an entirely separate code path from the spectral evaluation used for
    lhs.  The 40/lam truncation leaves an e^(-40) tail, far below any
    tolerance in play.
    """
    check_pairing(op, cfg)
    if lam <= 0.0:
        raise ConfigurationError("transform frequency must be positive, got %r" % lam)
    if x is None:
        x = cfg.u0
    if x is None:
        raise ConfigurationError("laplace_check needs a vector: pass x or set u0")
    x = op.check_vector(np.asarray(x, dtype=np.float64))
    t_max = LAPLACE_TAIL_FACTOR / lam
    coarse = _transform_integral(op, cfg, lam, x, t_max, points_per_decade)
    fine = _transform_integral(op, cfg, lam, x, t_max, 2 * points_per_decade)
    scale = max(op.weighted_norm(fine), 1e-300)
    grid_delta = op.weighted_norm(fine - coarse) / scale
    if grid_delta > 0.5 * tol:
        raise RefinementNeededError(
            "time-grid doubling moved the transform by %.3e relative " % grid_delta
            + "(budget %.1e)" % (0.5 * tol),
            achieved=grid_delta,
        )
    shift = redirect(complex(lam, 0.0), cfg.kernel.alpha)
    kval = eval_kernel(cfg.kernel, complex(lam, 0.0))
    rhs = (-kval * resolve(op, -shift, x)).real
    rel_err = op.weighted_norm(fine - rhs) / max(op.weighted_norm(rhs), 1e-300)
    return LaplaceReport(lhs=fine, rhs=rhs, rel_err=float(rel_err), grid_delta=float(grid_delta))


def _transform_integral(op, cfg, lam, x, t_max, points_per_decade) -> np.ndarray:
    decades = math.log10(t_max / LAPLACE_T_MIN)
    n = max(int(math.ceil(decades * points_per_decade)), 8) + 1
    ts = np.logspace(math.log10(LAPLACE_T_MIN), math.log10(t_max), n)
    spectrum = _clamped_spectrum(op)
    # apply_spectral is linear in its values: integrate the mode values, apply once
    vals = np.empty((n, op.n))
    for i, t in enumerate(ts):
        quad = build_quadrature(cfg.contour, float(t), cfg.tol)
        vals[i] = scalar_mode_values(quad, cfg.kernel, spectrum, float(t))
    integrand = np.exp(-lam * ts)[:, None] * vals * ts[:, None]
    acc = np.trapezoid(integrand, x=np.log(ts), axis=0)
    acc += vals[0] * LAPLACE_T_MIN * math.exp(-lam * LAPLACE_T_MIN)
    return op.apply_spectral(acc, x)
