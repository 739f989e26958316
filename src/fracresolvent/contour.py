"""Hyperbolic contour quadrature for Laplace inversion.

The contour is the hyperbola s(u) = mu (1 + sin(i u - phi)) / t, u real,
phi = theta - pi/2 (Weideman & Trefethen 2007, Math. Comp. 76;
Lopez-Fernandez & Palencia 2004, Appl. Numer. Math. 51).  Its asymptotes
are the rays at +/-theta, so the redirection gate on theta judges the
contour that is built.  It crosses the positive axis at mu (1 - sin phi) / t
and runs upwards, so F(s) = 1/s inverts to +1.  The midpoint rule
u_k = (k + 1/2) h takes the smallest node count whose a-priori error bound
meets the tolerance, with mu and h in closed form from that bound; nothing
is fitted or searched.

Conjugate symmetry is exploited throughout: only upper-half nodes are
stored and results are assembled as 2 Re(sum w_j e^(s_j t) f(s_j)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fracresolvent.errors import (
    BranchCutError,
    ConfigurationError,
    EvaluationError,
    RefinementNeededError,
)
from fracresolvent.kernels import principal_power

DEFAULT_THETA = 3.0 * math.pi / 4.0
DEFAULT_THETA_A = math.pi / 8.0
DEFAULT_R_MIN = 1e-14
DEFAULT_R_MAX = 55.0
# share of the analytic half-width min(phi, pi/2 - phi) used as the strip
# half-width d; at the full width the strip edge touches the branch cut
STRIP_FRACTION = 0.8
# share of the strip exponent 2 pi d / h that the growth of e^(s t) on the
# strip may use up (the theta of Weideman & Trefethen); the rest is the rate
GROWTH_SHARE = 0.35


@dataclass
class SectorSpec:
    """Sector around the positive real axis containing the spectrum."""

    theta_A: float = DEFAULT_THETA_A

    def __post_init__(self):
        if not 0.0 < self.theta_A < math.pi / 2.0:
            raise ConfigurationError("theta_A must lie in (0, pi/2), got %r" % self.theta_A)


@dataclass
class ContourSpec:
    """Angle and node budget of the inversion contour.

    theta is the asymptote angle of the hyperbola.  n_nodes is a budget:
    build_quadrature refuses a tolerance whose rule needs more nodes
    (both halves counted).  r_min and r_max no longer shape the contour;
    they are still validated, and a value other than the default draws
    a DeprecationWarning.
    """

    theta: float = DEFAULT_THETA
    n_nodes: int = 128
    r_min: float = DEFAULT_R_MIN
    r_max: float = DEFAULT_R_MAX

    def __post_init__(self):
        if not math.pi / 2.0 < self.theta < math.pi:
            raise ConfigurationError(
                "contour angle must lie in (pi/2, pi), got %r" % self.theta
            )
        if int(self.n_nodes) != self.n_nodes or self.n_nodes < 8:
            raise ConfigurationError("n_nodes must be an integer >= 8, got %r" % self.n_nodes)
        self.n_nodes = int(self.n_nodes)
        if not 0.0 < self.r_min < 1.0 < self.r_max:
            raise ConfigurationError(
                "radial truncations must satisfy 0 < r_min < 1 < r_max, got %r, %r"
                % (self.r_min, self.r_max)
            )
        if (self.r_min, self.r_max) != (DEFAULT_R_MIN, DEFAULT_R_MAX):
            warnings.warn("ContourSpec.r_min and r_max no longer shape the contour",
                          DeprecationWarning, stacklevel=3)


@dataclass
class ContourQuadrature:
    """Discretized contour at a fixed time scale.

    nodes holds the upper half of the hyperbola, outwards from its vertex
    on the positive real axis.  Weights absorb the 1/(2 pi i) prefactor,
    the step and the parametrization Jacobian, so an inversion is
    2 Re(sum w f(s) e^(s t)).
    """

    nodes: np.ndarray
    weights: np.ndarray

    def all_nodes(self) -> np.ndarray:
        return self.nodes

    def all_weights(self) -> np.ndarray:
        return self.weights


def min_theta(alpha: float, theta_A: float = DEFAULT_THETA_A) -> float:
    """Smallest contour angle compatible with the redirection condition."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1), got %r" % alpha)
    return theta_A / (1.0 - alpha)


def angle_condition(alpha: float, theta: float, theta_A: float) -> bool:
    """Redirection predicate: (1 - alpha) * theta >= theta_A.

    When it holds, the images of the asymptotes (rays at +/-theta) under
    s -> s^(alpha-1) lie at least theta_A off the positive real axis.
    """
    return (1.0 - alpha) * theta >= theta_A


def default_contour_spec(
    alpha: float,
    tol: float = 1e-8,
    n_nodes: int = 128,
    theta: float | None = None,
    theta_A: float = DEFAULT_THETA_A,
) -> ContourSpec:
    """Contour spec for kernel order alpha.

    theta defaults to 3 pi / 4, pushed out when the redirection condition
    demands more.  tol is validated but no longer shapes the spec: the
    tolerance of a run is passed to build_quadrature, which sizes the rule.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1), got %r" % alpha)
    if not 0.0 < tol < 1.0:
        raise ConfigurationError("tol must lie in (0, 1), got %r" % tol)
    if theta is None:
        theta = max(DEFAULT_THETA, min_theta(alpha, theta_A))
        if theta >= math.pi:
            raise ConfigurationError(
                "no contour angle below pi satisfies (1-alpha)*theta >= theta_A "
                "for alpha=%g, theta_A=%g" % (alpha, theta_A)
            )
    return ContourSpec(theta=theta, n_nodes=n_nodes)


def _hyperbola_rule(phi: float, psi: float, tol: float) -> tuple[int, float, float, float]:
    """(M, mu, h, roundoff bound) of the midpoint rule at t = 1, psi = pi/2 - phi.

    Bounds for a unit-size integrand (Weideman & Trefethen 2007, sec. 3):
    discretisation on the strip |Im u| <= d, e^(mu c - 2 pi d / h) with
    c = 1 - sin(phi - d); truncation at u = a = M h, e^(mu (1 - sin phi cosh a));
    roundoff, eps e^(mu (1 - sin phi)).  mu spends GROWTH_SHARE of the
    exponent 2 pi d / h, and a makes the truncation equal the discretisation
    error, so both fall like e^(-rate M) and M is the smallest count that
    takes each to tol / 3.  Written in psi so that theta near pi keeps its
    digits.
    """
    d = STRIP_FRACTION * min(phi, psi)
    c = 2.0 * math.sin((psi + d) / 2.0) ** 2
    c0 = 2.0 * math.sin(psi / 2.0) ** 2
    g = GROWTH_SHARE
    x = ((1.0 - g) / g * c + c0) / math.sin(phi)  # cosh(a) - 1
    a = math.log1p(x + math.sqrt(x * (2.0 + x)))
    rate = (1.0 - g) * 2.0 * math.pi * d / a
    m = math.ceil(math.log(3.0 / tol) / rate)
    mu = g * 2.0 * math.pi * d * m / (a * c)
    return m, mu, a / m, np.finfo(float).eps * math.exp(mu * c0)


def build_quadrature(spec: ContourSpec, t: float, tol: float) -> ContourQuadrature:
    """Discretize the hyperbola at time scale t for tolerance tol.

    The midpoint rule takes the smallest node count M whose error bound
    is at most tol; 2 M nodes (both halves) must fit in spec.n_nodes, or
    RefinementNeededError names the count that would.  A tol that the
    rule's roundoff alone exceeds is below its floor.
    """
    if t <= 0.0:
        raise ConfigurationError("time scale must be positive, got %r" % t)
    if not 0.0 < tol < 1.0:
        raise ConfigurationError("tol must lie in (0, 1), got %r" % tol)
    phi, psi = spec.theta - math.pi / 2.0, math.pi - spec.theta
    m, mu, h, roundoff = _hyperbola_rule(phi, psi, tol)
    if 3.0 * roundoff > tol:
        raise RefinementNeededError(
            "tol=%.1e is below the roundoff floor of the hyperbola rule: "
            "its roundoff bound there is %.1e" % (tol, 3.0 * roundoff),
            suggested_n_nodes=2 * m,
            achieved=3.0 * roundoff,
        )
    if 2 * m > spec.n_nodes:
        raise RefinementNeededError(
            "n_nodes=%d cannot reach tol=%.1e: the hyperbola rule needs %d nodes"
            % (spec.n_nodes, tol, 2 * m),
            suggested_n_nodes=2 * m,
        )
    u = (np.arange(m) + 0.5) * h
    # 1 + sin(i u - phi) and cos(i u - phi), free of cancellation near the vertex
    shape = 2.0 * math.sin(psi / 2.0) ** 2 * np.cosh(u) - 2.0 * np.sinh(u / 2.0) ** 2
    nodes = (mu / t) * (shape + 1j * math.sin(psi) * np.sinh(u))
    # ds = i mu cos(i u - phi) du / t, and i/(2 pi i) = 1/(2 pi)
    weights = (h * mu / (2.0 * math.pi * t)) * (
        math.sin(psi) * np.cosh(u) + 1j * math.sin(phi) * np.sinh(u)
    )
    return ContourQuadrature(nodes=nodes, weights=weights)


def _eval_on_nodes(f: Callable, s: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(f(s), dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise EvaluationError(
            "integrand failed on the node array of shape %r: %s" % (s.shape, exc)
        ) from exc
    if vals.shape != s.shape:
        raise EvaluationError(
            "integrand returned shape %r on the node array of shape %r"
            % (vals.shape, s.shape)
        )
    return vals


def invert_scalar(quad: ContourQuadrature, f: Callable, t: float) -> float:
    """Evaluate the inversion integral of f at time t on a built contour.

    f is called once, on the whole node array, and must return an array
    of the same shape.  Accuracy is engineered for t equal to the
    quadrature's time scale; other positive t are permitted for
    diagnostics.  The integral over the whole hyperbola is real for
    conjugate-symmetric f and is returned as a float.
    """
    if t <= 0.0:
        raise ConfigurationError("evaluation time must be positive, got %r" % t)
    s = quad.all_nodes()
    w = quad.all_weights()
    vals = _eval_on_nodes(f, s)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise EvaluationError(
            "integrand returned non-finite value %r at node %r (index %d)"
            % (vals[i], s[i], i),
            node=s[i],
            index=i,
        )
    return float(2.0 * np.real(np.sum(w * np.exp(s * t) * vals)))


def redirect(s, alpha: float):
    """Principal-branch spectral redirection s -> s^(alpha-1).

    Inputs on the branch cut (-inf, 0] are rejected.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1), got %r" % alpha)
    arr = np.asarray(s, dtype=np.complex128)
    on_cut = (arr.imag == 0.0) & (arr.real <= 0.0)
    if np.any(on_cut):
        raise BranchCutError(
            "redirection undefined on the branch cut (-inf, 0]: %r"
            % arr[on_cut].flat[0]
        )
    out = principal_power(arr, alpha - 1.0)
    if np.isscalar(s) or arr.ndim == 0:
        return complex(out)
    return out
