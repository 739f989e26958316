"""scalar_mode_values against the 30-digit mpmath oracle, on a grid of both production
kernels, three alpha, four lambda over four decades and three times.

Each point is judged by its absolute error against 10 tol, with the contour of
default_contour_spec(alpha) sized by build_quadrature at tol.  The four points marked
xfail are known faults of that rule: at t = 1e-3 and lambda = 0 its a-priori bound, written
for integrands of unit size, does not hold the error of the abc alpha = 0.1 mode or of the w
modes.
"""

import itertools

import numpy as np
import pytest
from oracle import mode_value

from fracresolvent.contour import build_quadrature, default_contour_spec
from fracresolvent.evolution import scalar_mode_values
from fracresolvent.kernels import KernelParams

TOL = 1e-8
W_BETA = 0.8
# (kind, alpha, lambda, t) -> the error measured where the rule overshoots 10 tol
KNOWN_FAULTS = {
    ("abc", 0.1, 0.0, 1e-3): 1.4e-7,
    ("w", 0.1, 0.0, 1e-3): 4.9e-7,
    ("w", 0.5, 0.0, 1e-3): 4.9e-7,
    ("w", 0.85, 0.0, 1e-3): 2.2e-7,
}


def _grid():
    for point in itertools.product(("abc", "w"), (0.1, 0.5, 0.85), (0.0, 1.0, 1e2, 1e4),
                                   (1e-3, 1.0, 10.0)):
        if point in KNOWN_FAULTS:
            reason = "%.1e off the oracle, over 10 tol" % KNOWN_FAULTS[point]
            yield pytest.param(*point, marks=pytest.mark.xfail(strict=True, reason=reason))
        else:
            yield point


@pytest.mark.parametrize("kind, alpha, lam, t", _grid())
def test_mode_value_matches_the_oracle(kind, alpha, lam, t):
    beta = W_BETA if kind == "w" else 1.0
    kernel = KernelParams(kind=kind, alpha=alpha, beta=beta)
    rule = build_quadrature(default_contour_spec(alpha), t, TOL)
    got = float(scalar_mode_values(rule, kernel, np.array([lam]), t)[0])
    assert abs(got - mode_value(kind, alpha, lam, t, beta=beta)) <= 10.0 * TOL
