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
KINDS = (ABC, W, CAPUTO_PROBE)
# the contour's asymptotic angle unless a config or the redirection condition sets another
DEFAULT_THETA = 3.0 * math.pi / 4.0

# sampling range for admissibility: deep on the small side so that slow
# transients (abc with small alpha) flatten out while a genuine power
# divergence keeps its slope all the way down
_GRID_LOW_DECADE = -20
_GRID_HIGH_DECADE = 8


@dataclass(frozen=True)
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
        if self.kind not in KINDS:
            raise ConfigurationError(
                "unknown kernel kind %r (expected one of %s)" % (self.kind, ", ".join(KINDS))
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
    """Sampled envelope constants along the contour ray.

    c0_hat is the raw maximum of |K| over |s| <= 1; cinf_hat the maximum
    of |K(s)|/|s|^(alpha-1) over |s| >= 1.  passed reflects the envelope
    appropriate to the kind (see estimate_admissibility); worst_s is the
    sample attaining the binding ratio, small_s_exponent the fitted
    log-log slope of |K| over the two smallest sampled decades.  radii and
    abs_k are the samples |s| and |K(|s| e^(i theta))| all of these rest on.
    """

    c0_hat: float
    cinf_hat: float
    theta: float
    passed: bool
    worst_s: complex
    small_s_exponent: float
    radii: np.ndarray
    abs_k: np.ndarray
    message: str = ""


def principal_power(s: np.ndarray, p: float) -> np.ndarray:
    """Principal-branch s^p in polar form: |s|^p and p arg(s) hold to a few ulp."""
    r = np.abs(s)
    phi = np.angle(s)
    return r**p * np.exp(1j * p * phi)


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


def eval_kernel(params: KernelParams, s):
    """Evaluate the multiplier at points off the branch cut.

    Accepts scalars or arrays; principal-branch powers throughout, with
    s^(alpha-1) and the branch-cut refusal taken from redirect.  Off the cut no
    denominator vanishes (|arg s^alpha| < alpha pi, |arg s^(alpha-1)| < (1 - alpha) pi);
    a K that is not finite, as when a large amplitude b overflows, is refused by its s.
    """
    arr = np.asarray(s, dtype=np.complex128)
    a = params.alpha
    salpham1 = redirect(arr, a)
    if params.kind == ABC:
        scale, denom = params.b / (1.0 - a), principal_power(arr, a) + a / (1.0 - a)
    elif params.kind == W:
        scale, denom = params.b, np.exp(params.beta * np.log(1.0 + (1.0 - a) * salpham1))
    else:  # caputo probe: bare numerator, no taming denominator
        scale, denom = 1.0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        out = scale * salpham1 / denom
    if not np.all(np.isfinite(out)):
        i = np.argmin(np.isfinite(out))
        raise NumericalError("kernel value at s=%r is not finite (amplitude b=%g)"
                             % (complex(arr.flat[i]), params.b))
    if np.isscalar(s) or arr.ndim == 0:
        return complex(out)
    return out


def estimate_admissibility(
    params: KernelParams, theta: float = DEFAULT_THETA, n_samples: int = 256
) -> AdmissibilityReport:
    """Sample the admissibility envelope along the contour ray arg s = theta.

    Samples |s| log-uniformly over [1e-20, 1e+8] on the upper ray; the
    kernels are conjugate-symmetric, so |K| on the lower ray is the same.  The
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
    absk = np.abs(eval_kernel(params, radii * np.exp(1j * theta)))
    small = radii <= 1.0
    large = radii >= 1.0
    c0_hat = float(np.max(absk[small]))
    ratio_large = absk[large] / radii[large] ** (a - 1.0)
    cinf_hat = float(np.max(ratio_large))

    # fitted small-|s| slope of log|K| over the two smallest decades
    logr = np.log10(radii)
    slope = _decade_slope(logr, np.log10(np.maximum(absk, 1e-300)), logr[0], logr[0] + 2.0)

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
        radii=radii,
        abs_k=absk,
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
    """Least-squares slope of logc against logr over the samples with lo <= logr <= hi."""
    sel = (logr >= lo - 1e-12) & (logr <= hi + 1e-12)
    return float(np.polyfit(logr[sel], logc[sel], 1)[0])
