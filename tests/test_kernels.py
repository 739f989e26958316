"""Kernel multiplier values and admissibility envelope estimates."""

import math

import numpy as np
import pytest

import fracresolvent.kernels
from fracresolvent.errors import BranchCutError, ConfigurationError
from fracresolvent.kernels import KernelParams, estimate_admissibility, eval_kernel


def test_abc_value_at_one():
    # (B/(1-a)) * 1 / (1 + a/(1-a)) collapses to B
    for alpha in (0.2, 0.5, 0.8):
        k = eval_kernel(KernelParams(kind="abc", alpha=alpha, b=1.0), 1.0 + 0.0j)
        assert abs(k - 1.0) <= 1e-14
    k2 = eval_kernel(KernelParams(kind="abc", alpha=0.5, b=2.5), 1.0 + 0.0j)
    assert abs(k2 - 2.5) <= 1e-14


def test_w_value_at_one():
    for alpha, beta in ((0.5, 1.0), (0.3, 0.8)):
        k = eval_kernel(KernelParams(kind="w", alpha=alpha, beta=beta), 1.0 + 0.0j)
        assert abs(k - (2.0 - alpha) ** (-beta)) <= 1e-14


def test_homogeneity_in_amplitude():
    rng = np.random.default_rng(23)
    s = 10.0 ** rng.uniform(-4, 4, 64) * np.exp(1j * rng.uniform(0.1, 3.0, 64))
    for kind, beta in (("abc", 1.0), ("w", 0.6)):
        one = eval_kernel(KernelParams(kind=kind, alpha=0.4, beta=beta, b=1.0), s)
        two = eval_kernel(KernelParams(kind=kind, alpha=0.4, beta=beta, b=2.0), s)
        assert np.max(np.abs(two - 2.0 * one)) <= 1e-12 * np.max(np.abs(one))


def test_conjugate_symmetry():
    rng = np.random.default_rng(29)
    s = 10.0 ** rng.uniform(-3, 3, 50) * np.exp(1j * rng.uniform(0.05, math.pi - 0.05, 50))
    for kind in ("abc", "w", "caputo_probe"):
        params = KernelParams(kind=kind, alpha=0.5, beta=0.7)
        up = eval_kernel(params, s)
        down = eval_kernel(params, np.conj(s))
        assert np.max(np.abs(down - np.conj(up))) <= 1e-13 * np.max(np.abs(up))


def test_probe_is_bare_power():
    s = 2.0 * np.exp(1j * 2.0)
    k = eval_kernel(KernelParams(kind="caputo_probe", alpha=0.3), s)
    assert abs(k - s ** (-0.7)) <= 1e-14


def test_branch_cut_rejected():
    with pytest.raises(BranchCutError):
        eval_kernel(KernelParams(kind="abc", alpha=0.5), -2.0 + 0.0j)


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        KernelParams(kind="nope", alpha=0.5)
    with pytest.raises(ConfigurationError):
        KernelParams(kind="abc", alpha=1.0)
    with pytest.raises(ConfigurationError):
        KernelParams(kind="abc", alpha=0.5, b=0.0)


def test_w_beta_above_one_rejected_with_range():
    with pytest.raises(ConfigurationError, match=r"\(0, 1\]"):
        KernelParams(kind="w", alpha=0.5, beta=1.5)
    # beta = 1 is the boundary and stays legal
    KernelParams(kind="w", alpha=0.5, beta=1.0)


@pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9))
def test_abc_admissible_with_envelope_constant(alpha):
    report = estimate_admissibility(KernelParams(kind="abc", alpha=alpha))
    assert report.passed
    assert report.cinf_hat <= 1.0 / (1.0 - alpha) + 1e-9
    assert "admissible" in report.message


@pytest.mark.parametrize("beta", (0.2, 0.5, 1.0))
def test_w_admissible_with_envelope_constant(beta):
    alpha = 0.5
    report = estimate_admissibility(KernelParams(kind="w", alpha=alpha, beta=beta))
    assert report.passed
    assert report.cinf_hat <= 1.0 / alpha**beta + 1e-9


@pytest.mark.parametrize("alpha", (0.1, 0.5, 0.9))
def test_probe_inadmissible_with_fitted_exponent(alpha):
    report = estimate_admissibility(KernelParams(kind="caputo_probe", alpha=alpha))
    assert not report.passed
    assert abs(report.small_s_exponent - (alpha - 1.0)) <= 0.02
    assert "not admissible" in report.message


def test_c0_stable_under_density_refinement():
    params = KernelParams(kind="w", alpha=0.5, beta=0.8)
    a = estimate_admissibility(params, n_samples=256)
    b = estimate_admissibility(params, n_samples=512)
    assert abs(a.c0_hat - b.c0_hat) / a.c0_hat <= 1e-2
    assert abs(a.cinf_hat - b.cinf_hat) / a.cinf_hat <= 1e-2


def test_admissibility_samples_one_ray(monkeypatch):
    """|K| is conjugate-symmetric, so one report evaluates the kernel once."""
    calls = []

    def counting(params, s):
        calls.append(np.shape(s))
        return eval_kernel(params, s)

    monkeypatch.setattr(fracresolvent.kernels, "eval_kernel", counting)
    report = estimate_admissibility(KernelParams(kind="w", alpha=0.5, beta=0.8))
    assert calls == [(256,)]
    assert report.radii.shape == report.abs_k.shape == (256,)
    assert report.radii[0] == 1e-20 and report.radii[-1] == 1e8
    assert report.c0_hat == np.max(report.abs_k[report.radii <= 1.0])


@pytest.mark.parametrize("kind", ("abc", "w"))
@pytest.mark.parametrize("power, worst", ((-1.0, 1e-20), (0.5, 1e8)))
def test_growing_envelope_is_not_admissible(monkeypatch, kind, power, worst):
    """A production kind whose envelope ratio grows at a grid end is refused, worst at that
    end.  No valid KernelParams grows there (abc's ratios tend to constants, w's to 0 at
    small |s| and to B at large), so |K| = |s|^power stands in for the kernel: at
    alpha = 1/2, |s|^-1 grows at the small end and |s|^(1/2) at the large end."""
    monkeypatch.setattr(fracresolvent.kernels, "eval_kernel",
                        lambda params, s: np.abs(s) ** power + 0j)
    report = estimate_admissibility(KernelParams(kind=kind, alpha=0.5))
    assert not report.passed
    assert report.message == "not admissible: envelope ratio grows at a grid extreme"
    assert abs(report.worst_s) == pytest.approx(worst, rel=1e-12)


def test_admissibility_argument_validation():
    params = KernelParams(kind="abc", alpha=0.5)
    with pytest.raises(ConfigurationError):
        estimate_admissibility(params, theta=math.pi / 3.0)
    with pytest.raises(ConfigurationError):
        estimate_admissibility(params, n_samples=8)
