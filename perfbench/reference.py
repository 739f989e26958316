"""Independent references for the benchmark's outputs.

Nothing here imports the package under test.  The discrete pencil is
rebuilt from the problem definition, its eigenpairs come straight from
``scipy.linalg.eigh_tridiagonal``, and the scalar modes of the inversion
are evaluated without the package's contour:

* ``abc`` kernel, alpha = 1/2, B = 1: closed form
  ``v(lam, t) = 2/(lam - 1) * (erfcx(sqrt t) - erfcx(sqrt(t)/lam)/lam)``;
* its time integral (constant forcing) through
  ``int_0^t erfcx(a sqrt tau) dtau = (erfcx(a sqrt t) - 1 + 2a sqrt(t/pi)) / a^2``;
* any kernel: a fixed cotangent Talbot contour (Trefethen, Weideman and
  Schmelzer 2006; Weideman and Trefethen 2007), vectorised over the
  eigenvalues.  The workloads check it against the closed form.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.special import erfcx, gamma as gamma_fn, xlogy

TALBOT_NODES = 32
# below this distance of a from 1 the divided differences are integrated
_DIVDIFF_NEAR = 0.05
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
_SERIES_CUT = 0.5
_SERIES_TERMS = np.arange(2, 40)
_SERIES_DEN = gamma_fn(1.0 + _SERIES_TERMS / 2.0)


# --- pencils ----------------------------------------------------------------

def kimura_pencil(n: int):
    """Stiffness bands and lumped mass of the Kimura operator on (0, 1).

    P1 elements on the uniform mesh x_j = j/(n+1) with Dirichlet ends;
    stiffness weight x(1-x) (integrated exactly), mass weight 1/(x(1-x))
    integrated exactly against the hat functions.
    """
    h = 1.0 / (n + 1)
    x = np.linspace(0.0, 1.0, n + 2)
    prim = lambda z: z**2 / 2.0 - z**3 / 3.0
    w = (prim(x[1:]) - prim(x[:-1])) / h**2        # one per element
    diag = w[:-1] + w[1:]
    off = -w[1:-1]
    a, b, c = x[:-2], x[1:-1], x[2:]
    rising = (xlogy(a, a) + xlogy(1 - a, 1 - a) - xlogy(a, b) - xlogy(1 - a, 1 - b)) / h
    falling = (xlogy(c, c) + xlogy(1 - c, 1 - c) - xlogy(c, b) - xlogy(1 - c, 1 - b)) / h
    return diag, off, rising + falling


def bessel_pencil(nu: float, r_max: float, n: int):
    """Radial operator with weight r^(2 nu + 1) on (0, r_max).

    Mesh r_j = j h, h = r_max/n; r = 0 is an unknown, r_max is Dirichlet.
    Stiffness and lumped mass integrate the weight with the 4-point
    Gauss-Legendre rule on each element, as the discretisation defines.
    """
    h = r_max / n
    r = np.linspace(0.0, r_max, n + 1)
    p = 2.0 * nu + 1.0
    lo, hi = r[:-1, None], r[1:, None]
    pts = 0.5 * (lo + hi) + 0.5 * h * _GL4_X[None, :]
    wt = np.abs(pts) ** p * (0.5 * h * _GL4_W[None, :])
    w = wt.sum(axis=1) / h**2                       # one per element
    rising = (wt * (pts - lo) / h).sum(axis=1)      # hat of the right node
    falling = (wt * (hi - pts) / h).sum(axis=1)     # hat of the left node
    mass = falling.copy()
    mass[1:] += rising[:-1]
    diag = w.copy()
    diag[1:] += w[:-1]
    off = -w[:-1]
    return diag, off, mass


class Eigenbasis:
    """Eigenpairs of the mass-symmetrised pencil M^-1/2 S M^-1/2."""

    def __init__(self, diag, off, mass):
        self.sqrt_mass = np.sqrt(mass)
        d = self.sqrt_mass
        self.lam, self.q = scipy.linalg.eigh_tridiagonal(diag / mass, off / (d[:-1] * d[1:]))
        self.lam = np.maximum(self.lam, 0.0)

    def coeffs(self, x):
        """Coefficients of M^1/2 x in the orthonormal eigenbasis."""
        return self.q.T @ (self.sqrt_mass * np.asarray(x, dtype=np.float64))

    def state(self, coeffs):
        return (self.q @ coeffs) / self.sqrt_mass


# --- closed forms for the abc kernel at alpha = 1/2, B = 1 --------------------

def _divided(f, fprime, a):
    """(f(a) - f(1)) / (a - 1) elementwise, without cancellation near a = 1."""
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    near = np.abs(a - 1.0) < _DIVDIFF_NEAR
    far = ~near
    out[far] = (f(a[far]) - f(np.ones(1))) / (a[far] - 1.0)
    if np.any(near):
        d = a[near] - 1.0
        theta = 0.5 * (_GL_X + 1.0)
        pts = 1.0 + theta[None, :] * d[:, None]
        out[near] = fprime(pts) @ (0.5 * _GL_W)
    return out


def _g(x):
    """erfcx(x) - 1 + 2x/sqrt(pi), by its power series where it cancels."""
    x = np.asarray(x, dtype=np.float64)
    out = erfcx(x) - 1.0 + 2.0 * x / math.sqrt(math.pi)
    small = x < _SERIES_CUT
    if np.any(small):
        xs = x[small]
        out[small] = (np.power.outer(-xs, _SERIES_TERMS) / _SERIES_DEN).sum(axis=1)
    return out


def abc_modes(lam, t: float) -> np.ndarray:
    """v(lam, t) for the abc kernel (alpha = 1/2, B = 1).

    With a = 1/lam, h(a) = a erfcx(a sqrt t) gives v = 2a (h(a) - h(1))/(a - 1);
    lam = 0 takes the limit 2 (1/sqrt(pi t) - erfcx(sqrt t)).
    """
    lam = np.asarray(lam, dtype=np.float64)
    rt = math.sqrt(t)
    out = np.empty_like(lam)
    zero = lam == 0.0
    out[zero] = 2.0 * (1.0 / math.sqrt(math.pi * t) - erfcx(rt))
    a = 1.0 / lam[~zero]
    h = lambda a: a * erfcx(a * rt)
    dh = lambda a: erfcx(a * rt) * (1.0 + 2.0 * a * a * t) - 2.0 * a * rt / math.sqrt(math.pi)
    out[~zero] = 2.0 * a * _divided(h, dh, a)
    return out


def abc_mode_integrals(lam, t: float) -> np.ndarray:
    """Integral of v(lam, s) over s in [0, t] for the abc kernel (alpha = 1/2).

    With a = 1/lam and H(a) = a J(a), J(a) = int_0^t erfcx(a sqrt s) ds
    = t g(x)/x^2 (x = a sqrt t), the integral is 2a (H(a) - H(1))/(a - 1);
    lam = 0 takes the limit 2 (2 sqrt(t/pi) - J(1)).
    """
    lam = np.asarray(lam, dtype=np.float64)
    rt = math.sqrt(t)
    out = np.empty_like(lam)
    zero = lam == 0.0
    out[zero] = 2.0 * (2.0 * rt / math.sqrt(math.pi) - float(_g(np.array([rt]))[0]))
    a = 1.0 / lam[~zero]
    big_h = lambda a: rt * _g(a * rt) / (a * rt)
    d_big_h = lambda a: t * (2.0 * erfcx(a * rt) - _g(a * rt) / (a * rt) ** 2)
    out[~zero] = 2.0 * a * _divided(big_h, d_big_h, a)
    return out


# --- second inversion: fixed Talbot contour ----------------------------------

def _principal_power(s, p):
    return np.abs(s) ** p * np.exp(1j * p * np.angle(s))


def kernel_symbol(kind: str, alpha: float, beta: float, b: float, s):
    sa1 = _principal_power(s, alpha - 1.0)
    if kind == "abc":
        c = alpha / (1.0 - alpha)
        return (b / (1.0 - alpha)) * sa1 / (_principal_power(s, alpha) + c)
    if kind == "w":
        return b * sa1 / np.exp(beta * np.log(1.0 + (1.0 - alpha) * sa1))
    raise ValueError("no reference for kernel %r" % kind)


def talbot_modes(kind, alpha, beta, b, lam, t: float, n_nodes: int = TALBOT_NODES):
    """v(lam, t) = inverse transform of K(s)/(s^(alpha-1) + lam), Talbot rule.

    Midpoint rule in theta on z(theta) = N (0.5017 theta cot(0.6407 theta)
    - 0.6122 + 0.2645 i theta), s = z/t; conjugate symmetry halves the nodes.
    """
    lam = np.asarray(lam, dtype=np.float64)
    theta = (np.arange(n_nodes // 2) + 0.5) * (2.0 * math.pi / n_nodes)
    c1, c2, c3, c4 = 0.5017, 0.6407, 0.6122, 0.2645
    z = n_nodes * (c1 * theta / np.tan(c2 * theta) - c3 + 1j * c4 * theta)
    dz = n_nodes * (c1 / np.tan(c2 * theta)
                    - c1 * c2 * theta / np.sin(c2 * theta) ** 2 + 1j * c4)
    s = z / t
    weight = np.exp(z) * kernel_symbol(kind, alpha, beta, b, s) * dz
    shift = _principal_power(s, alpha - 1.0)
    terms = weight[:, None] / (shift[:, None] + lam[None, :])
    return (2.0 / (n_nodes * t)) * np.imag(terms.sum(axis=0))


def has_closed_form(kind: str, alpha: float, b: float) -> bool:
    return kind == "abc" and alpha == 0.5 and b == 1.0


def mode_values(kind, alpha, beta, b, lam, t: float) -> np.ndarray:
    """The closed form where there is one, the Talbot rule otherwise."""
    if has_closed_form(kind, alpha, b):
        return abc_modes(lam, t)
    return talbot_modes(kind, alpha, beta, b, lam, t)
