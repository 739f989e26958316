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

# below this fraction of t, the convolution factor V(t - tau) is the identity
SMALL_ARGUMENT_FRACTION = 1e-8
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
    s = quad.all_nodes()
    factor = quad.all_weights() * np.exp(s * t) * eval_kernel(kernel, s)
    denom = redirect(s, kernel.alpha)[:, None] + lam[None, :]
    small = np.abs(denom) < 1e-300
    if np.any(small):
        i = int(np.argmax(np.any(small, axis=1)))
        raise EvaluationError(
            "resolvent denominator vanished at node %r" % s[i], node=s[i], index=i
        )
    return 2.0 * np.real(np.sum(factor[:, None] / denom, axis=0))


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

    Every spectral A^gamma goes through here: apply_spectral(lam**gamma, x).
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
    quad = build_quadrature(cfg.contour, t, cfg.tol)
    s = quad.all_nodes()
    factor = quad.all_weights() * np.exp(s * t) * eval_kernel(cfg.kernel, s)
    shifts = redirect(s, cfg.kernel.alpha)
    acc = np.zeros(op.n, dtype=np.complex128)
    for fj, zj in zip(factor, shifts):
        # (zj I + A)^{-1} x  ==  -(( -zj) I - A)^{-1} x
        acc += fj * (-resolve(op, -zj, x))
    return 2.0 * np.real(acc)


def smoothed_apply(
    op: DiscreteOperator,
    cfg: EvolutionConfig,
    t: float,
    x,
) -> np.ndarray:
    """A^gamma V(t) x.

    The route follows gamma: gamma == 0 goes through one shifted solve
    per contour node (resolvent_apply) and needs no eigendecomposition;
    gamma > 0 evaluates lambda^gamma v(lambda, t) on the pencil
    eigenvalues and assembles through the mass-symmetrized eigenbasis,
    one decomposition shared across all times.
    """
    check_pairing(op, cfg)
    if cfg.gamma == 0.0:
        return resolvent_apply(op, cfg, t, x)
    x = op.check_vector(np.asarray(x, dtype=np.float64))
    lam = _clamped_spectrum(op)
    quad = build_quadrature(cfg.contour, t, cfg.tol)
    values = lam**cfg.gamma * scalar_mode_values(quad, cfg.kernel, lam, t)
    return op.apply_spectral(values, x)


def smoothed_norm(op: DiscreteOperator, gamma: float, u) -> float:
    """M-weighted norm of A^gamma u; gamma picks the route.

    gamma == 0 is the plain weighted norm.  gamma == 1/2 uses
    ||A^(1/2) u||_M^2 = <A u, u>_M = u^T S u on the stiffness bands and
    forms no eigenvectors; the pencil is still refused as not PSD when
    its lowest eigenvalue, found by bisection once per operator, falls
    below EIGENVALUE_CLAMP.  Any other gamma applies lambda^gamma through
    the eigenbasis (one decomposition per operator).
    """
    if gamma == 0.0:
        return op.weighted_norm(u)
    u = op.check_vector(np.asarray(u))
    if gamma == 0.5:
        _require_psd(op)
        # S is PSD, so a negative form is roundoff: clamped like the spectrum
        return math.sqrt(max(float(np.vdot(u, op.stiffness.matvec(u)).real), 0.0))
    lam = _clamped_spectrum(op)
    return op.weighted_norm(op.apply_spectral(lam**gamma, u))


def mild_solution(
    op: DiscreteOperator,
    cfg: EvolutionConfig,
    n_sub: int = DEFAULT_CONV_SUBINTERVALS,
) -> EvolutionResult:
    """u(t) = V(t) u0 + integral of V(t - tau) f(tau) over [0, t].

    The convolution uses the composite trapezoid on a uniform tau grid;
    at tau within SMALL_ARGUMENT_FRACTION * t of the endpoint the factor
    V(t - tau) f(tau) is taken as f(tau) (the family's t = 0
    normalization), since the contour cannot be built at scale 0.
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
        u = resolvent_apply(op, cfg, float(t), cfg.u0)
        if cfg.forcing is not None:
            h = float(t) / n_sub
            acc = np.zeros(op.n)
            for j in range(n_sub + 1):
                tau = j * h
                try:
                    fval = np.asarray(cfg.forcing(tau), dtype=np.float64)
                except Exception as exc:
                    raise EvaluationError(
                        "forcing evaluation failed at tau=%r: %s" % (tau, exc)
                    ) from exc
                if fval.shape != (op.n,):
                    raise ConfigurationError(
                        "forcing at tau=%r returned shape %r, expected (%d,)"
                        % (tau, fval.shape, op.n)
                    )
                lag = float(t) - tau
                if lag < SMALL_ARGUMENT_FRACTION * float(t):
                    term = fval
                else:
                    term = resolvent_apply(op, cfg, lag, fval)
                weight = 0.5 * h if j in (0, n_sub) else h
                acc += weight * term
            u = u + acc
        states[it] = u
        norms[it] = smoothed_norm(op, cfg.gamma, u)
    return EvolutionResult(
        times=np.asarray(cfg.times, dtype=np.float64),
        states=states,
        smoothed_norms=norms,
        node_counts=np.full(len(cfg.times), n_nodes, dtype=np.int64),
    )


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
