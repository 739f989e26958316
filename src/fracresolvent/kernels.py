"""Kernel multipliers on the contour and their admissibility envelopes.

Two production multipliers are provided, both analytic on the cut plane
and conjugate-symmetric:

  abc:  K(s) = (B/(1-alpha)) s^(alpha-1) / (s^alpha + c),  c = alpha/(1-alpha)
  w:    K(s) = B s^(alpha-1) / (1 + (1-alpha) s^(alpha-1))^beta,  0 < beta <= 1

plus a probe multiplier K(s) = s^(alpha-1), the numerator of the
classical constant-order inversion integrand.  The probe exists only so
the admissibility report can demonstrate why that route fails; evolution
operations refuse it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fracresolvent.errors import BranchCutError, ConfigurationError, NumericalError

ABC = "abc"
W = "w"
CAPUTO_PROBE = "caputo_probe"
_KINDS = (ABC, W, CAPUTO_PROBE)

_DENOM_FLOOR = 1e-300
# sampling range for admissibility: deep on the small side so that slow
# transients (abc with small alpha) flatten out while a genuine power
# divergence keeps its slope all the way down
_GRID_LOW_DECADE = -20
_GRID_HIGH_DECADE = 8


@dataclass
class KernelParams:
    """Multiplier kind and parameters.

    beta is meaningful only for kind "w"; b is the overall amplitude
    (the kernel normalization constant), positive.
    """

    kind: str
    alpha: float
    beta: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(
                "unknown kernel kind %r (expected one of %s)" % (self.kind, ", ".join(_KINDS))
            )
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("alpha must lie in (0, 1), got %r" % self.alpha)
        if self.kind == W and not 0.0 < self.beta <= 1.0:
            raise ConfigurationError(
                "w kernel requires beta in (0, 1]; beta=%r falls outside the "
                "regime the envelope bounds cover" % self.beta
            )
        if self.b <= 0.0:
            raise ConfigurationError("amplitude b must be positive, got %r" % self.b)


@dataclass
class AdmissibilityReport:
    """Sampled envelope constants along the contour rays.

    c0_hat is the raw maximum of |K| over |s| <= 1; cinf_hat the maximum
    of |K(s)|/|s|^(alpha-1) over |s| >= 1.  passed reflects the envelope
    appropriate to the kind (see estimate_admissibility); worst_s is the
    sample attaining the binding ratio, small_s_exponent the fitted
    log-log slope of |K| over the two smallest sampled decades.
    """

    c0_hat: float
    cinf_hat: float
    theta: float
    passed: bool
    worst_s: complex
    small_s_exponent: float
    message: str = ""


def principal_power(s: np.ndarray, p: float) -> np.ndarray:
    """Principal-branch s^p in polar form: |s|^p and p arg(s) hold to a few ulp."""
    r = np.abs(s)
    phi = np.angle(s)
    return r**p * np.exp(1j * p * phi)


def eval_kernel(params: KernelParams, s):
    """Evaluate the multiplier at points off the branch cut.

    Accepts scalars or arrays; principal-branch powers throughout.
    """
    arr = np.asarray(s, dtype=np.complex128)
    on_cut = (arr.imag == 0.0) & (arr.real <= 0.0)
    if np.any(on_cut):
        raise BranchCutError(
            "kernel undefined on the branch cut (-inf, 0]: %r" % arr[on_cut].flat[0]
        )
    a = params.alpha
    salpham1 = principal_power(arr, a - 1.0)
    if params.kind == ABC:
        c = a / (1.0 - a)
        denom = principal_power(arr, a) + c
        _check_denominator(denom)
        out = (params.b / (1.0 - a)) * salpham1 / denom
    elif params.kind == W:
        base = 1.0 + (1.0 - a) * salpham1
        _check_denominator(base)
        denom = np.exp(params.beta * np.log(base))
        out = params.b * salpham1 / denom
    else:  # caputo probe: bare numerator, no taming denominator
        out = salpham1
    if np.isscalar(s) or arr.ndim == 0:
        return complex(out)
    return out


def _check_denominator(denom: np.ndarray) -> None:
    if np.any(np.abs(denom) < _DENOM_FLOOR):
        raise NumericalError("kernel denominator vanished below 1e-300")


def estimate_admissibility(
    params: KernelParams, theta: float = 3.0 * math.pi / 4.0, n_samples: int = 256
) -> AdmissibilityReport:
    """Sample the admissibility envelope along both contour rays.

    Samples |s| log-uniformly over [1e-20, 1e+8] at angles +/-theta.  The
    reported constants follow the envelope split at |s| = 1: c0_hat is
    the raw maximum of |K| inside, cinf_hat the maximum of
    |K(s)| / |s|^(alpha-1) outside.

    The pass decision tracks what the inversion integral actually
    consumes.  For the production kinds the redirected resolvent factor
    supplies |s|^(1-alpha) of decay near the origin, so the small-|s|
    check is on |K(s)| * |s|^(1-alpha); the large-|s| check is on
    |K(s)| / |s|^(alpha-1).  Both curves must show no growth trend at
    their grid extreme, detected from the per-decade log-log slope: a
    slope that stays put decade over decade signals a power divergence,
    while a slope that keeps shrinking signals approach to a finite
    limit.  The probe kind has no redirection to lean on and is checked
    against a constant envelope near the origin, which it fails with |K|
    growing like |s|^(alpha-1); the fitted exponent is reported.
    """
    if not math.pi / 2.0 < theta < math.pi:
        raise ConfigurationError("theta must lie in (pi/2, pi), got %r" % theta)
    if n_samples < 16:
        raise ConfigurationError("n_samples must be >= 16, got %r" % n_samples)
    radii = np.logspace(_GRID_LOW_DECADE, _GRID_HIGH_DECADE, n_samples)
    a = params.alpha
    absk = np.zeros(n_samples)
    for sign in (1.0, -1.0):
        s = radii * np.exp(sign * 1j * theta)
        vals = np.abs(eval_kernel(params, s))
        absk = np.maximum(absk, vals)
    small = radii <= 1.0
    large = radii >= 1.0
    c0_hat = float(np.max(absk[small]))
    ratio_large = absk[large] / radii[large] ** (a - 1.0)
    cinf_hat = float(np.max(ratio_large))

    # fitted small-|s| slope of log|K| over the two smallest decades
    fit = radii <= radii[0] * 100.0
    slope = float(
        np.polyfit(np.log10(radii[fit]), np.log10(np.maximum(absk[fit], 1e-300)), 1)[0]
    )

    if params.kind == CAPUTO_PROBE:
        curve_small = absk[small]
    else:
        curve_small = absk[small] * radii[small] ** (1.0 - a)
    ok_small = not _grows_at_extreme(radii[small], curve_small, outer="low")
    ok_large = not _grows_at_extreme(radii[large], ratio_large, outer="high")
    passed = bool(
        ok_small and ok_large and np.isfinite(c0_hat) and np.isfinite(cinf_hat)
    )
    if passed:
        message = "admissible: envelope ratios bounded on the sampled grid"
        worst_r = float(radii[large][int(np.argmax(ratio_large))])
    elif params.kind == CAPUTO_PROBE:
        message = (
            "not admissible: unbounded at |s| -> 0 relative to the constant "
            "small-|s| envelope (fitted exponent %.3f)" % slope
        )
        worst_r = float(radii[0])
    else:
        message = "not admissible: envelope ratio grows at a grid extreme"
        worst_r = float(radii[0] if not ok_small else radii[-1])
    return AdmissibilityReport(
        c0_hat=c0_hat,
        cinf_hat=cinf_hat,
        theta=theta,
        passed=passed,
        worst_s=complex(worst_r * np.exp(1j * theta)),
        small_s_exponent=slope,
        message=message,
    )


def _grows_at_extreme(radii: np.ndarray, curve: np.ndarray, outer: str) -> bool:
    """Detect a power-law growth trend toward one end of a sampled curve.

    Compares log-log slopes over the outermost and next decade pairs.
    A genuine |s|^p divergence keeps the slope constant; a curve heading
    to a finite limit has a slope collapsing toward zero.
    """
    logr = np.log10(radii)
    logc = np.log10(np.maximum(curve, 1e-300))
    if outer == "low":
        p_outer = _decade_slope(logr, logc, logr[0], logr[0] + 2.0)
        p_prev = _decade_slope(logr, logc, logr[0] + 2.0, logr[0] + 4.0)
        # growth toward small radii means curve increasing as r decreases
        p_outer, p_prev = -p_outer, -p_prev
    else:
        p_outer = _decade_slope(logr, logc, logr[-1] - 2.0, logr[-1])
        p_prev = _decade_slope(logr, logc, logr[-1] - 4.0, logr[-1] - 2.0)
    return p_outer > 0.05 and p_outer >= 0.75 * p_prev


def _decade_slope(logr, logc, lo, hi) -> float:
    sel = (logr >= lo - 1e-12) & (logr <= hi + 1e-12)
    return float(np.polyfit(logr[sel], logc[sel], 1)[0])


def tabulate_abc_w_ratio(
    alpha: float, b: float = 1.0, theta: float = 3.0 * math.pi / 4.0, n_samples: int = 33
):
    """Ratio of the abc multiplier to the w multiplier at beta = 1 along
    the upper ray.

    The two do not coincide algebraically (at s = 1, abc gives B while
    w at beta = 1 gives B/(2 - alpha)); this table makes the discrepancy
    inspectable instead of hiding one kernel behind the other.
    """
    abc = KernelParams(kind=ABC, alpha=alpha, b=b)
    w1 = KernelParams(kind=W, alpha=alpha, beta=1.0, b=b)
    radii = np.logspace(-4, 4, n_samples)
    s = radii * np.exp(1j * theta)
    ratio = eval_kernel(abc, s) / eval_kernel(w1, s)
    return [(float(r), complex(v)) for r, v in zip(radii, ratio)]
