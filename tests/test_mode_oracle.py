"""scalar_mode_values and the forced mild_solution against the 30-digit mpmath oracle, on a
grid of both production kernels, three alpha, four lambda over four decades and three times.

Each point is judged by its absolute error against 10 tol (10 tol |exact| above 1 for a forced
point), with the contour of default_contour_spec(alpha) sized by build_quadrature at tol.  The
points marked xfail are known faults of that rule: at t = 1e-3 and lambda = 0 its a-priori
bound, written for integrands of unit size, does not hold the error of the abc alpha = 0.1
mode or of the w modes.  The forced points solve from u0 = 1 under f(tau) = 1 + tau / 2, which
the product rule's interpolant reproduces, so only the contour's error is left; the one w
alpha = 0.1 point the u0 term carries over 10 tol is marked there too.
"""

import functools
import itertools

import numpy as np
import pytest
from oracle import forced_value, mode_value

from fracresolvent.contour import build_quadrature, default_contour_spec
from fracresolvent.evolution import EvolutionConfig, mild_solution, scalar_mode_values
from fracresolvent.kernels import KernelParams
from fracresolvent.operators import make_diagonal

TOL = 1e-8
W_BETA = 0.8
LAMBDAS, TIMES = (0.0, 1.0, 1e2, 1e4), (1e-3, 1.0, 10.0)
U0, F0, SLOPE = 1.0, 1.0, 0.5
# (kind, alpha, lambda, t) -> the error measured where the rule overshoots 10 tol
KNOWN_FAULTS = {
    ("abc", 0.1, 0.0, 1e-3): 1.4e-7,
    ("w", 0.1, 0.0, 1e-3): 4.9e-7,
    ("w", 0.5, 0.0, 1e-3): 4.9e-7,
    ("w", 0.85, 0.0, 1e-3): 2.2e-7,
}
FORCED_FAULTS = {("w", 0.1, 0.0, 1e-3): 4.9e-7}


def _grid(faults):
    for point in itertools.product(("abc", "w"), (0.1, 0.5, 0.85), LAMBDAS, TIMES):
        if point in faults:
            reason = "%.1e off the oracle, over 10 tol" % faults[point]
            yield pytest.param(*point, marks=pytest.mark.xfail(strict=True, reason=reason))
        else:
            yield point


def _kernel(kind, alpha):
    return KernelParams(kind=kind, alpha=alpha, beta=W_BETA if kind == "w" else 1.0)


@pytest.mark.parametrize("kind, alpha, lam, t", _grid(KNOWN_FAULTS))
def test_mode_value_matches_the_oracle(kind, alpha, lam, t):
    kernel = _kernel(kind, alpha)
    rule = build_quadrature(default_contour_spec(alpha), t, TOL)
    got = float(scalar_mode_values(rule, kernel, np.array([lam]), t)[0])
    assert abs(got - mode_value(kind, alpha, lam, t, beta=kernel.beta)) <= 10.0 * TOL


@functools.cache
def _forced_states(kind, alpha):
    """mild_solution's (time, lambda) states on make_diagonal(LAMBDAS), one call per kernel."""
    cfg = EvolutionConfig(kernel=_kernel(kind, alpha), contour=default_contour_spec(alpha),
                          times=TIMES, tol=TOL, u0=np.full(len(LAMBDAS), U0),
                          forcing=lambda tau: np.full(len(LAMBDAS), F0 + SLOPE * tau))
    return mild_solution(make_diagonal(LAMBDAS), cfg).states


@pytest.mark.parametrize("kind, alpha, lam, t", _grid(FORCED_FAULTS))
def test_forced_value_matches_the_oracle(kind, alpha, lam, t):
    got = _forced_states(kind, alpha)[TIMES.index(t), LAMBDAS.index(lam)]
    exact = forced_value(kind, alpha, lam, t, U0, F0, SLOPE, beta=_kernel(kind, alpha).beta)
    assert abs(got - exact) <= 10.0 * TOL * max(1.0, abs(exact))
