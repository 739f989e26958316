"""Evolution family V(t), fractional smoothing, and mild solutions.

The family acts through the inversion integral of K(s) (s^(alpha-1) I + A)^(-1)
along the two-ray contour.  The spectral shift is s^(alpha-1), mapping
small Laplace frequencies to large spectral parameters, which is what
makes almost sectorial generators (no resolvent control near 0) usable:
the contour never asks for the resolvent near the spectral origin.

Note the resolvent sign: A is assembled positive semidefinite and the
dynamics is u' (fractional) + A u = f, so every evaluation solves
(s^(alpha-1) M + S) y = M x.  These systems are uniformly nonsingular on
the contour because s^(alpha-1) stays a positive angle away from the
negative real axis whenever the angle condition holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import trapezoid

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
    denominator stays away from zero for lambda >= 0 because the
    redirected nodes keep a fixed angle off the positive real axis.
    """
    lam = np.asarray(lam, dtype=np.float64)
    s = quad.all_nodes()
    w = quad.all_weights()
    factor = w * np.exp(s * t) * eval_kernel(kernel, s)
    denom = redirect(s, kernel.alpha)[:, None] + lam[None, :]
    small = np.abs(denom) < 1e-300
    if np.any(small):
        i = int(np.argmax(np.any(small, axis=1)))
        raise EvaluationError(
            "resolvent denominator vanished at node %r" % s[i], node=s[i], index=i
        )
    return 2.0 * np.real(np.sum(factor[:, None] / denom, axis=0))


def _clamped_spectrum(op: DiscreteOperator) -> np.ndarray:
    """Eigenvalues of A for its fractional powers, roundoff negatives set to 0.

    Every A^gamma goes through here: apply_spectral(lam**gamma, x).
    Eigenvalues below EIGENVALUE_CLAMP mean the pencil is not positive
    semidefinite and are refused.
    """
    lam = op.eigensystem().eigenvalues
    if float(lam.min(initial=0.0)) < EIGENVALUE_CLAMP:
        raise NumericalError(
            "eigenvalue %g below the clamp threshold %g: operator is not PSD"
            % (float(lam.min()), EIGENVALUE_CLAMP)
        )
    return np.maximum(lam, 0.0)


def resolvent_apply(
    op: DiscreteOperator,
    cfg: EvolutionConfig,
    t: float,
    x,
    verify: bool = False,
) -> np.ndarray:
    """V(t) x by one banded solve per contour node.

    With verify=True the integral is recomputed at doubled node count
    and the two results must agree to 10 * tol in the M-norm (relative);
    the refined value is returned.
    """
    check_pairing(op, cfg)
    x = op.check_vector(np.asarray(x, dtype=np.float64))
    u = _resolvent_apply_once(op, cfg.kernel, cfg.contour, cfg.tol, t, x)
    if not verify:
        return u
    refined_spec = replace(cfg.contour, n_nodes=2 * cfg.contour.n_nodes)
    u2 = _resolvent_apply_once(op, cfg.kernel, refined_spec, cfg.tol, t, x)
    scale = max(op.weighted_norm(u2), 1e-300)
    delta = op.weighted_norm(u2 - u) / scale
    if delta > 10.0 * cfg.tol:
        raise RefinementNeededError(
            "node doubling moved V(t)x by %.3e relative (tol %.1e)" % (delta, cfg.tol),
            suggested_n_nodes=4 * cfg.contour.n_nodes,
            achieved=delta,
        )
    return u2


def _resolvent_apply_once(op, kernel, contour_spec, tol, t, x) -> np.ndarray:
    quad = build_quadrature(contour_spec, t, tol)
    s = quad.all_nodes()
    w = quad.all_weights()
    factor = w * np.exp(s * t) * eval_kernel(kernel, s)
    shifts = redirect(s, kernel.alpha)
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
    method: str = "spectral",
) -> np.ndarray:
    """A^gamma V(t) x.

    The spectral route evaluates lambda^gamma v(lambda, t) on the pencil
    eigenvalues and assembles through the mass-symmetrized eigenbasis;
    one decomposition is shared across all times.  The solve route
    (cross-validation) applies the fractional power after the node-wise
    resolvent integral.
    """
    check_pairing(op, cfg)
    if cfg.gamma == 0.0:
        return resolvent_apply(op, cfg, t, x)
    x = op.check_vector(np.asarray(x, dtype=np.float64))
    lam = _clamped_spectrum(op)
    if method == "solve":
        u = resolvent_apply(op, cfg, t, x)
        return op.apply_spectral(lam**cfg.gamma, u)
    if method != "spectral":
        raise ConfigurationError("method must be 'spectral' or 'solve', got %r" % method)
    quad = build_quadrature(cfg.contour, t, cfg.tol)
    values = lam**cfg.gamma * scalar_mode_values(quad, cfg.kernel, lam, t)
    return op.apply_spectral(values, x)


def smoothed_norm(op: DiscreteOperator, gamma: float, u) -> float:
    """M-weighted norm of A^gamma u."""
    if gamma == 0.0:
        return op.weighted_norm(u)
    lam = _clamped_spectrum(op)
    return op.weighted_norm(op.apply_spectral(lam**gamma, np.asarray(u)))


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
    # the node count depends on the contour spec, not on t
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
    vals = np.empty((n, op.n))
    for i, t in enumerate(ts):
        quad = build_quadrature(cfg.contour, float(t), cfg.tol)
        v = scalar_mode_values(quad, cfg.kernel, spectrum, float(t))
        vals[i] = op.apply_spectral(v, x)
    integrand = np.exp(-lam * ts)[:, None] * vals * ts[:, None]
    acc = trapezoid(integrand, x=np.log(ts), axis=0)
    acc += vals[0] * LAPLACE_T_MIN * math.exp(-lam * LAPLACE_T_MIN)
    return acc
