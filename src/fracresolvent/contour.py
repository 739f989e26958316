"""Left-sectorial contour quadrature for Laplace inversion.

The contour consists of two rays at angles +/-theta (pi/2 < theta < pi)
joined by a small circular junction arc of radius r_min around the
origin, traversed counterclockwise (incoming lower ray, arc, outgoing
upper ray).  The orientation is fixed by the unit-step oracle: applied
to F(s) = 1/s the quadrature must return 1, not -1.  The junction arc is
not optional: for integrands with a power singularity at the origin
(the known-transform family s^(-beta-1)) the two rays alone diverge and
only the ray+arc combination reproduces the transform pairs; for
integrands that vanish at the origin the arc contributes O(r_min).

Conjugate symmetry is exploited throughout: only upper-half nodes are
stored and results are assembled as 2 Re(sum w_j e^(s_j t) f(s_j)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from fracresolvent.errors import (
    BranchCutError,
    ConfigurationError,
    EvaluationError,
    RefinementNeededError,
)

DEFAULT_THETA = 3.0 * math.pi / 4.0
DEFAULT_THETA_A = math.pi / 8.0
RMIN_FLOOR = 1e-14
N_PANELS = 4


@dataclass
class SectorSpec:
    """Sector around the positive real axis containing the spectrum.

    Outside the sector (and outside radius R) the resolvent norm is
    bounded by M/|z|.
    """

    theta_A: float = DEFAULT_THETA_A
    M: float = 2.0
    R: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta_A < math.pi / 2.0:
            raise ConfigurationError("theta_A must lie in (0, pi/2), got %r" % self.theta_A)
        if self.M <= 0.0 or self.R <= 0.0:
            raise ConfigurationError("sector constants M, R must be positive")


@dataclass
class ContourSpec:
    """Geometry and resolution of the inversion contour.

    r_min and r_max are radial truncations in the unscaled s-plane at
    time scale 1; build_quadrature divides them by t.
    """

    theta: float = DEFAULT_THETA
    n_nodes: int = 128
    r_min: float = 1e-14
    r_max: float = 55.0

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


@dataclass
class ContourQuadrature:
    """Discretized contour at a fixed time scale.

    nodes holds the upper ray (arg s = theta, radii strictly increasing)
    followed by the junction arc of radius r_min/t at angles in
    (0, theta).  Weights absorb the 1/(2 pi i) prefactor, the
    parametrization Jacobians and the counterclockwise orientation, so
    an inversion is 2 Re(sum w f(s) e^(s t)).
    """

    nodes: np.ndarray
    weights: np.ndarray

    def all_nodes(self) -> np.ndarray:
        return self.nodes

    def all_weights(self) -> np.ndarray:
        return self.weights


@lru_cache(maxsize=64)
def _gauss_legendre(q: int):
    x, w = np.polynomial.legendre.leggauss(q)
    return x, w


def min_theta(alpha: float, theta_A: float = DEFAULT_THETA_A) -> float:
    """Smallest contour angle compatible with the redirection condition."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1), got %r" % alpha)
    return theta_A / (1.0 - alpha)


def angle_condition(alpha: float, theta: float, theta_A: float) -> bool:
    """Redirection predicate: (1 - alpha) * theta >= theta_A.

    When it holds, the image of the contour under s -> s^(alpha-1) stays
    at least theta_A away in angle from the positive real axis.
    """
    return (1.0 - alpha) * theta >= theta_A


def default_contour_spec(
    alpha: float,
    tol: float = 1e-8,
    n_nodes: int = 128,
    theta: float | None = None,
    theta_A: float = DEFAULT_THETA_A,
) -> ContourSpec:
    """Contour spec with truncation radii derived from alpha and tol.

    theta defaults to 3 pi / 4, pushed out when the redirection condition
    demands more; r_max makes the e^(cos(theta) rho) envelope tail fall
    below tol, r_min follows tol^(1/(1-alpha)) with a 1e-14 floor.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1), got %r" % alpha)
    if not 0.0 < tol < 1.0:
        raise ConfigurationError("tol must lie in (0, 1), got %r" % tol)
    if theta is None:
        theta = DEFAULT_THETA
        forced = min_theta(alpha, theta_A)
        if forced > theta:
            theta = forced
        if theta >= math.pi:
            raise ConfigurationError(
                "no contour angle below pi satisfies (1-alpha)*theta >= theta_A "
                "for alpha=%g, theta_A=%g" % (alpha, theta_A)
            )
    c = -math.cos(theta)
    r_max = (math.log(1.0 / tol) + 20.0) / c
    r_min = max(tol ** (1.0 / (1.0 - alpha)), RMIN_FLOOR)
    return ContourSpec(theta=theta, n_nodes=n_nodes, r_min=r_min, r_max=r_max)


def _suggested_per_panel(spec: ContourSpec, tol: float) -> int:
    """Calibrated lower bound on Gauss points per panel.

    Fitted on the known-transform family s^(-beta-1), beta in (0,1), and
    on kernel-resolvent integrands: the log-radial panel length and the
    total oscillation phase r_max*sin(theta) set the resolution floor,
    the tolerance adds digits.
    """
    ell = math.log(spec.r_max / spec.r_min) / N_PANELS
    phase = spec.r_max * math.sin(spec.theta)
    digits = -math.log10(tol)
    need = 2.32 * ell + 1.75 * digits + 0.2 * phase - 10.7
    return max(6, int(math.ceil(need - 1e-9)))


def build_quadrature(spec: ContourSpec, t: float, tol: float) -> ContourQuadrature:
    """Discretize the contour at time scale t.

    Composite Gauss-Legendre in log-radius over 4 panels on each ray
    (folded to the upper ray by conjugate symmetry) plus Gauss-Legendre
    in angle on the junction arc.  The substitution r = rho/t keeps the
    exponential factor e^(s t) = e^(rho e^(i theta)) uniform in t, so
    node radii scale exactly like 1/t.
    """
    if t <= 0.0:
        raise ConfigurationError("time scale must be positive, got %r" % t)
    if not 0.0 < tol < 1.0:
        raise ConfigurationError("tol must lie in (0, 1), got %r" % tol)
    q = spec.n_nodes // N_PANELS
    q_req = _suggested_per_panel(spec, tol)
    if q < q_req:
        raise RefinementNeededError(
            "n_nodes=%d cannot reach tol=%.1e on this contour; need >= %d"
            % (spec.n_nodes, tol, N_PANELS * q_req),
            suggested_n_nodes=N_PANELS * (q_req + 4),
        )
    u_lo = math.log(spec.r_min)
    u_hi = math.log(spec.r_max)
    edges = np.linspace(u_lo, u_hi, N_PANELS + 1)
    gx, gw = _gauss_legendre(q)
    u = np.concatenate(
        [0.5 * (a + b) + 0.5 * (b - a) * gx for a, b in zip(edges[:-1], edges[1:])]
    )
    du = np.concatenate(
        [0.5 * (b - a) * gw for a, b in zip(edges[:-1], edges[1:])]
    )
    rho = np.exp(u)
    eitheta = cmath.exp(1j * spec.theta)
    ray = (rho / t) * eitheta
    # outgoing upper ray carries +1/(2 pi i) = -i/(2 pi); dr = rho du / t
    ray_w = (-0.5j / math.pi) * du * (rho / t) * eitheta
    # junction arc, counterclockwise from the lower ray to the upper ray;
    # ds = i s d(phi), and i/(2 pi i) = 1/(2 pi)
    n_arc = max(12, min(32, q))
    ax, aw = _gauss_legendre(n_arc)
    phi = 0.5 * spec.theta * (ax + 1.0)
    dphi = 0.5 * spec.theta * aw
    arc = (spec.r_min / t) * np.exp(1j * phi)
    arc_w = dphi * arc / (2.0 * math.pi)
    return ContourQuadrature(
        nodes=np.concatenate([ray, arc]), weights=np.concatenate([ray_w, arc_w])
    )


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
    diagnostics.  The result of the full two-ray-plus-arc integral is
    real for conjugate-symmetric f and is returned as a float.
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

    Evaluated in polar form so that |result| = |s|^(alpha-1) and
    arg(result) = (alpha-1) arg(s) hold to a few ulp.  Inputs on the
    branch cut (-inf, 0] are rejected.
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
    r = np.abs(arr)
    phi = np.angle(arr)
    out = r ** (alpha - 1.0) * np.exp(1j * (alpha - 1.0) * phi)
    if np.isscalar(s) or arr.ndim == 0:
        return complex(out)
    return out
