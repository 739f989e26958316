"""Hyperbolic contour quadrature for Laplace inversion.

The contour is the hyperbola s(u) = mu (1 + sin(i u - phi)) / t0, u real,
phi = theta - pi/2 (Weideman & Trefethen 2007, Math. Comp. 76;
Lopez-Fernandez & Palencia 2004, Appl. Numer. Math. 51).  Its asymptotes
are the rays at +/-theta, so the redirection gate on theta judges the
contour that is built.  It crosses the positive axis at mu (1 - sin phi) / t0
and runs upwards, so F(s) = 1/s inverts to +1.  The midpoint rule
u_k = (k + 1/2) h takes the smallest node count whose a-priori error bound
meets the tolerance, with mu and h in closed form from that bound; nothing
is fitted or searched.  The contour depends on t only through the scale t0, so a
rule bounded over a window [t0, t1] serves every time in it, on a node count that grows
only like log(t1 / t0) (Weideman & Trefethen, sec. 4): windows run to the node budget.

Conjugate symmetry is exploited throughout: only upper-half nodes are
stored and results are assembled as 2 Re(sum w_j e^(s_j t) f(s_j)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fracresolvent.errors import ConfigurationError, EvaluationError, RefinementNeededError
from fracresolvent.kernels import DEFAULT_THETA, redirect  # re-exported; kernels.py is their home

DEFAULT_THETA_A = math.pi / 8.0
DEFAULT_R_MIN = 1e-14
DEFAULT_R_MAX = 55.0
# share of the analytic half-width min(phi, pi/2 - phi) used as the strip
# half-width d; at the full width the strip edge touches the branch cut
STRIP_FRACTION = 0.8
# share of the strip exponent 2 pi d / h that the growth of e^(s t) on the
# strip may use up (the theta of Weideman & Trefethen); the rest is the rate
GROWTH_SHARE = 0.35


@dataclass(frozen=True)
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
        object.__setattr__(self, "n_nodes", int(self.n_nodes))
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
    """Discretized contour at the time scale t0 of its window.

    nodes holds the upper half of the hyperbola, outwards from its vertex
    on the positive real axis.  Weights absorb the 1/(2 pi i) prefactor,
    the step and the parametrization Jacobian, so an inversion is
    2 Re(sum w f(s) e^(s t)).
    """

    nodes: np.ndarray
    weights: np.ndarray

    def all_nodes(self) -> np.ndarray:
        return self.nodes


def min_theta(alpha: float, theta_A: float = DEFAULT_THETA_A) -> float:
    """Smallest contour angle compatible with the redirection condition."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1), got %r" % alpha)
    return theta_A / (1.0 - alpha)


def angle_condition(alpha: float, theta: float, theta_A: float) -> bool:
    """Redirection predicate: theta >= min_theta(alpha, theta_A) = theta_A / (1 - alpha).

    When it holds, the images of the asymptotes (rays at +/-theta) under
    s -> s^(alpha-1) lie at least theta_A off the positive real axis.  It is
    min_theta's own quotient, not the product (1 - alpha) theta, which can round
    below theta_A at theta = min_theta: the default angle then passes its own check.
    """
    return theta >= min_theta(alpha, theta_A)


def default_contour_spec(
    alpha: float,
    tol: float = 1e-8,
    n_nodes: int = 128,
    theta: float | None = None,
) -> ContourSpec:
    """Contour spec for kernel order alpha.

    theta defaults to 3 pi / 4, pushed out when the redirection condition
    at theta_A = DEFAULT_THETA_A demands more.  tol is validated but no
    longer shapes the spec: the tolerance of a run is passed to
    build_quadrature, which sizes the rule.
    """
    floor = min_theta(alpha)  # refuses an alpha outside (0, 1)
    if not 0.0 < tol < 1.0:
        raise ConfigurationError("tol must lie in (0, 1), got %r" % tol)
    if theta is None:
        theta = max(DEFAULT_THETA, floor)
        if theta >= math.pi:
            raise ConfigurationError("no contour angle below pi satisfies theta >= theta_A / "
                                     "(1 - alpha) for alpha=%g, theta_A=%g"
                                     % (alpha, DEFAULT_THETA_A))
    return ContourSpec(theta=theta, n_nodes=n_nodes)


def _hyperbola_rule(phi: float, psi: float, tol: float,
                    ratio: float) -> tuple[int, float, float, float]:
    """(M, mu, h, roundoff bound) of the midpoint rule for t in [1, ratio], psi = pi/2 - phi.

    Bounds for a unit-size integrand (Weideman & Trefethen 2007, secs. 3-4):
    discretisation on the strip |Im u| <= d, e^(ratio mu c - 2 pi d / h) with
    c = 1 - sin(phi - d); truncation at u = a = M h, e^(mu (1 - sin phi cosh a));
    roundoff, eps e^(ratio mu (1 - sin phi)); each at its worst t.  mu spends
    GROWTH_SHARE of the exponent 2 pi d / h, and a makes the truncation
    equal the discretisation error, so both fall like e^(-rate M) and M is
    the smallest count that takes each to tol / 3.  Written in psi so that
    theta near pi keeps its digits.
    """
    d = STRIP_FRACTION * min(phi, psi)
    c = 2.0 * math.sin((psi + d) / 2.0) ** 2
    c0 = 2.0 * math.sin(psi / 2.0) ** 2
    g = GROWTH_SHARE
    x = ((1.0 - g) / g * (ratio * c) + c0) / math.sin(phi)  # cosh(a) - 1
    a = math.log1p(x + math.sqrt(x * (2.0 + x)))
    rate = (1.0 - g) * 2.0 * math.pi * d / a
    m = math.ceil(math.log(3.0 / tol) / rate)
    mu = g * 2.0 * math.pi * d * m / (a * (ratio * c))
    return m, mu, a / m, np.finfo(float).eps * math.exp(ratio * mu * c0)


def check_times(t) -> np.ndarray:
    """t as a float array, refused unless a nonempty 1-d sequence of finite,
    positive, strictly increasing times (a NaN fails every comparison)."""
    t = np.asarray(t, dtype=np.float64)
    if not (t.ndim == 1 and t.size > 0 and 0.0 < t[0] and t[-1] < math.inf
            and (t[1:] > t[:-1]).all()):
        raise ConfigurationError("times must be a nonempty 1-d sequence of finite, positive, "
                                 "strictly increasing values, got %r" % (t,))
    return t


def time_windows(spec: ContourSpec, times: np.ndarray, tol: float) -> list[slice]:
    """Windows of consecutive times, built backwards from the last: each takes earlier times
    while its rule fits spec.n_nodes and its roundoff floor lies below tol.  A rule errs most
    at its first time, so the widest window starts early, where decaying outputs are largest.
    A time that fits with no neighbour is a lone window, for build_quadrature to run or refuse."""
    times = check_times(times)
    phi, psi = spec.theta - math.pi / 2.0, math.pi - spec.theta
    windows, j = [], len(times)
    while j > 0:
        i = j - 1
        while i > 0:
            m, _, _, roundoff = _hyperbola_rule(phi, psi, tol, times[j - 1] / times[i - 1])
            if 2 * m > spec.n_nodes or 3.0 * roundoff > tol:
                break
            i -= 1
        windows.insert(0, slice(i, j))
        j = i
    return windows


def build_quadrature(spec: ContourSpec, t, tol: float) -> ContourQuadrature:
    """Discretize the hyperbola for time t, or an increasing window of times, at tolerance tol.

    A window's rule is sized for every time in [t[0], t[-1]], its nodes
    scaled by t0 = t[0].  The midpoint rule takes the smallest node count M
    whose error bound is at most tol; 2 M nodes (both halves) must fit in
    spec.n_nodes, or RefinementNeededError names the count that would.  A
    tol that the rule's roundoff alone exceeds is below its floor.
    """
    window = check_times(np.array(t, dtype=np.float64, ndmin=1))
    if not 0.0 < tol < 1.0:
        raise ConfigurationError("tol must lie in (0, 1), got %r" % tol)
    t0 = float(window[0])
    phi, psi = spec.theta - math.pi / 2.0, math.pi - spec.theta
    m, mu, h, roundoff = _hyperbola_rule(phi, psi, tol, float(window[-1]) / t0)
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
    nodes = (mu / t0) * (shape + 1j * math.sin(psi) * np.sinh(u))
    # ds = i mu cos(i u - phi) du / t0, and i/(2 pi i) = 1/(2 pi)
    weights = (h * mu / (2.0 * math.pi * t0)) * (
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
    of the same shape.  Accuracy is engineered for t in the window [t0, t1]
    the quadrature was built for; other positive t are permitted for
    diagnostics.  The integral over the whole hyperbola is real for
    conjugate-symmetric f and is returned as a float.
    """
    if t <= 0.0:
        raise ConfigurationError("evaluation time must be positive, got %r" % t)
    s, w = quad.nodes, quad.weights
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
