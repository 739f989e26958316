"""A 30-digit oracle for the scalar modes v(lambda, t), the inverse Laplace transform of
F(s) = K(s) / (s^(alpha-1) + lambda) with the kernel multipliers of kernels.py, and for the
forced mode u(t) = v(t) u0 + (v * f)(t) of a forcing f(tau) = f0 + slope tau, the inverse
of F(s) (u0 + f0 / s + slope / s^2).

mpmath inverts F at mp.dps = 30 by Talbot's method and again by de Hoog's; a point where
the two differ by more than AGREE is refused, not judged.  De Hoog runs at degree 28, not
its default 40 at 30 digits: on the grid of test_mode_oracle.py the two methods then agree
to 2.3e-23, and the check costs half as much.  It shares no code with the package's contour
or kernels.
"""

import mpmath

DIGITS = 30
AGREE = 1e-20
DEHOOG_DEGREE = 28


def _transform(kind: str, alpha: float, beta: float, b: float, lam: float):
    a = mpmath.mpf(alpha)

    def f(s):
        redirected = mpmath.power(s, a - 1)
        if kind == "abc":
            k = b / (1 - a) * redirected / (mpmath.power(s, a) + a / (1 - a))
        elif kind == "w":
            k = b * redirected / mpmath.power(1 + (1 - a) * redirected, beta)
        else:
            raise ValueError("no oracle for kernel kind %r" % kind)
        return k / (redirected + lam)

    return f


def _inverse(f, t: float, where: str) -> float:
    with mpmath.workdps(DIGITS):
        talbot = mpmath.invertlaplace(f, t, method="talbot")
        dehoog = mpmath.invertlaplace(f, t, method="dehoog", degree=DEHOOG_DEGREE)
        gap = abs(talbot - dehoog)
    if not gap <= AGREE:
        raise ValueError("Talbot and de Hoog differ by %s at %s" % (mpmath.nstr(gap, 3), where))
    return float(talbot)


def mode_value(kind: str, alpha: float, lam: float, t: float, beta: float = 1.0,
               b: float = 1.0) -> float:
    """v(lambda, t) to about 20 digits, or ValueError where Talbot and de Hoog disagree."""
    return _inverse(_transform(kind, alpha, beta, b, lam), t,
                    "%s alpha=%g lambda=%g t=%g" % (kind, alpha, lam, t))


def forced_value(kind: str, alpha: float, lam: float, t: float, u0: float, f0: float,
                 slope: float, beta: float = 1.0, b: float = 1.0) -> float:
    """u(t) for the forcing f0 + slope tau from u0, as mode_value."""
    mode = _transform(kind, alpha, beta, b, lam)

    def f(s):
        inv = 1 / s  # one complex division, not two, per node
        return mode(s) * (u0 + inv * (f0 + slope * inv))

    return _inverse(f, t, "%s alpha=%g lambda=%g t=%g forced" % (kind, alpha, lam, t))
