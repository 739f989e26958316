"""Property tests over accepted alpha, t in [1e-3, 1e2] and lambda in [0, 1e6].

The mode oracle collapses the Bromwich integral onto the branch cut,
v(lambda, t) = -(1/pi) int_0^inf e^(-r t) Im F(r e^(i pi)) dr with
F(s) = K(s) / (s^(alpha-1) + lambda), and integrates it with adaptive
scipy quadrature; it shares no code with the package's contour.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from fracresolvent.cli import main
from fracresolvent.contour import build_quadrature, default_contour_spec, min_theta
from fracresolvent.evolution import (
    EvolutionConfig,
    resolvent_apply,
    scalar_mode_values,
)
from fracresolvent.experiments import _KEY_TABLE, MODES, U0_PROFILES, ExperimentConfig
from fracresolvent.kernels import KernelParams
from fracresolvent.operators import assemble_kimura

# accepted at the default theta_A = pi/8: min_theta(alpha) < pi
alphas = st.floats(0.05, 0.95).filter(lambda a: min_theta(a) < math.pi)
times = st.floats(1e-3, 1e2)
lambdas = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))


def _cut_power(r, p):
    """(r e^(i pi))^p, the principal power on the upper side of the cut."""
    return r**p * complex(math.cos(math.pi * p), math.sin(math.pi * p))


def _symbol_on_cut(kind, alpha, beta, lam, r):
    z = _cut_power(r, alpha - 1.0)
    if kind == "abc":
        k = z / (_cut_power(r, alpha) + alpha / (1.0 - alpha)) / (1.0 - alpha)
    else:
        k = z / (1.0 + (1.0 - alpha) * z) ** beta
    return k / (z + lam)


def _cut_integrals(kind, alpha, beta, lam, t):
    """(v(lambda, t), the same integral of |Im F|), on unit panels in log r."""
    def density(x):
        r = math.exp(x)
        return r * math.exp(-r * t) * _symbol_on_cut(kind, alpha, beta, lam, r).imag / math.pi

    edges = np.arange(math.log(1e-16 / t), math.log(60.0 / t) + 1.0, 1.0)
    value = mass = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            value -= quad(density, a, b, epsabs=0.0, epsrel=1e-13, limit=100)[0]
            mass += quad(lambda x: abs(density(x)), a, b, epsrel=1e-8, limit=100)[0]
    return value, mass


@given(
    alpha=alphas, t=times, lam=lambdas,
    kind=st.sampled_from(("abc", "w")), beta=st.floats(0.05, 1.0),
)
def test_mode_values_match_quad_oracle(alpha, t, lam, kind, beta):
    kernel = KernelParams(kind=kind, alpha=alpha, beta=beta if kind == "w" else 1.0)
    quad_rule = build_quadrature(default_contour_spec(alpha), t, 1e-8)
    got = float(scalar_mode_values(quad_rule, kernel, np.array([lam]), t)[0])
    ref, mass = _cut_integrals(kind, alpha, kernel.beta, lam, t)
    # w modes change sign, so the error is measured against |v|'s bound
    # (1/pi) int e^(-r t) |Im F| dr, which is |v| itself where v keeps a sign
    assert abs(got - ref) <= 1e-6 * mass


@example(alpha=0.835667030440112, t=1.0)  # its default angle once failed its own check
@given(alpha=alphas, t=times)
def test_solve_route_matches_spectral_route(alpha, t):
    op = assemble_kimura(24)
    x = np.sin(np.pi * np.arange(1, 25) / 25.0)
    cfg = EvolutionConfig(
        kernel=KernelParams(kind="abc", alpha=alpha),
        contour=default_contour_spec(alpha),
        times=(t,),
    )
    solved = resolvent_apply(op, cfg, t, x)
    quad_rule = build_quadrature(cfg.contour, t, cfg.tol)
    spectral = op.apply_spectral(
        scalar_mode_values(quad_rule, cfg.kernel, op.spectrum(), t), x
    )
    scale = max(op.weighted_norm(spectral), 1e-300)
    assert op.weighted_norm(solved - spectral) / scale <= 1e-9


def _floats(low, high):
    return st.floats(low, high).map(repr)


# a run.u0 file holding the subnormal 1e-320 at every node: its norms underflow to zero
SUBNORMAL_U0 = "subnormal.txt"
# a run.u0 file holding words where numbers belong
MALFORMED_U0 = "malformed.txt"
# the byte 0xff, which no UTF-8 text holds: the config is written with surrogateescape
NOT_UTF8 = "\udcff"
# a value each key's parser accepts
_VALID = {
    "run.mode": st.sampled_from(MODES),
    "operator.kind": st.sampled_from(("kimura", "bessel")),
    "operator.n": st.integers(1, 30).map(str),
    "operator.nu": _floats(-0.45, 2.0),
    "operator.r_max": _floats(0.5, 50.0),
    "kernel.kind": st.sampled_from(("abc", "w", "caputo_probe")),
    "kernel.alpha": _floats(0.05, 0.95),
    "kernel.beta": _floats(0.05, 1.0),
    "kernel.B": _floats(0.1, 3.0),
    "contour.theta": _floats(1.6, 3.1),
    "contour.n_nodes": st.integers(8, 64).map(str),
    "contour.tol": st.floats(-12.0, -2.0).map(lambda e: repr(10.0**e)),
    "run.gamma": _floats(0.0, 0.95),
    "run.t_min": _floats(1e-4, 0.5),
    "run.t_max": _floats(1.0, 1e3),
    "run.t_count": st.integers(3, 5).map(str),
    "run.lambda": _floats(0.0, 1e3),
    "run.u0": st.sampled_from(U0_PROFILES + (SUBNORMAL_U0,)),
    "run.bump_center": _floats(-5.0, 1e3),
    "run.bump_width": _floats(0.01, 5.0),
    "output.svg": st.just("out.svg"),
}
# refused values: these for any key, and a few of a key's own
_BAD = ("0", "-1", "nan", "inf", "1e300", "x", NOT_UTF8)
_BAD_FOR = {
    "run.mode": ("other",),
    "operator.kind": ("heat",),
    "operator.n": ("2.5",),
    "contour.theta": ("1.57085", "3.1415926"),
    "run.u0": ("no_such_profile", MALFORMED_U0),
    "output.svg": ("no_dir/out.svg",),
}


@st.composite
def configs(draw):
    """Valid values for a subset of the keys, with at most one of them corrupted."""
    entries = draw(st.fixed_dictionaries({}, optional=_VALID))
    if entries and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(entries)))
        entries[key] = draw(st.sampled_from(_BAD + _BAD_FOR.get(key, ())))
    return entries


@example({"operator.n": "10", "run.u0": SUBNORMAL_U0, "output.svg": "out.svg"}, True)
@example({"operator.n": "2", "run.u0": MALFORMED_U0}, True)
@example({"run.t_count": NOT_UTF8}, True)
@example({"run.mode": "admissibility", "kernel.B": "1e300"}, True)
@given(configs(), st.booleans())
def test_fuzzed_configs_exit_cleanly(entries, keep_unread):
    """keep_unread False drops the keys the drawn mode does not read, so that
    such draws get past the mode's key check."""
    mode = entries.get("run.mode", "smoothing")
    if not keep_unread and mode in MODES:
        entries = {k: v for k, v in entries.items() if mode in _KEY_TABLE[k][2]}
    with tempfile.TemporaryDirectory() as tmp:
        entries = dict(entries, **{"output.csv": str(Path(tmp) / "out.csv")})
        if "output.svg" in entries:
            entries["output.svg"] = str(Path(tmp) / entries["output.svg"])
        if entries.get("run.u0") in (SUBNORMAL_U0, MALFORMED_U0):
            entries["run.u0"] = str(Path(tmp) / entries["run.u0"])
        n = entries.get("operator.n", str(ExperimentConfig().n))
        (Path(tmp) / SUBNORMAL_U0).write_text("1e-320\n" * (int(n) if n.isdigit() else 1))
        (Path(tmp) / MALFORMED_U0).write_text("hello\nworld\n")
        path = Path(tmp) / "fuzz.cfg"
        text = "".join("%s = %s\n" % kv for kv in entries.items())
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main(["run", str(path)]) in (0, 2, 3, 4)
