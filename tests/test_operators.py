"""Assembly oracles, resolvent application, and sectoriality estimates."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fracresolvent.errors import ConfigurationError, SingularMatrixError
from fracresolvent.operators import (
    DiscreteOperator,
    assemble_bessel,
    assemble_kimura,
    make_diagonal,
    resolve,
    sectoriality_check,
)
from fracresolvent.tridiag import TridiagonalMatrix


def test_kimura_single_node_analytic():
    """One interior node at x = 1/2: both matrix entries have closed forms."""
    op = assemble_kimura(1)
    assert abs(op.stiffness.diag[0] - 2.0 / 3.0) <= 1e-14
    assert abs(op.lumped_mass[0] - 4.0 * math.log(2.0)) <= 1e-13


def test_kimura_single_node_resolvent():
    a = (2.0 / 3.0) / (4.0 * math.log(2.0))
    op = assemble_kimura(1)
    x = resolve(op, -1.0, np.array([1.0]))
    assert abs(x[0] - 1.0 / (-1.0 - a)) <= 1e-12
    assert abs(x[0] - (-0.8061596)) <= 1e-6


def test_kimura_assembly_invariants():
    op = assemble_kimura(64)
    assert np.array_equal(op.stiffness.sub, op.stiffness.sup)
    assert np.all(op.lumped_mass > 0.0)
    lam = op.eigensystem().eigenvalues
    assert lam[0] >= -1e-10
    assert np.all(np.diff(lam) >= 0.0)
    with pytest.raises(ConfigurationError):
        assemble_kimura(0)


def _kimura_mass_oracle(n, nodes):
    """Lumped Kimura mass at the given nodes of the exact mesh j/(n+1), to 30 digits.

    With L_k = ln((k+1)/k), the hat at node j integrates 1/(x(1-x)) to
    (n+2-j) L_(n+1-j) + (j+1) L_j - (j-1) L_(j-1) - (n-j) L_(n-j),
    a term dropping out where its factor is 0.
    """
    big = n + 1
    with localcontext() as ctx:
        ctx.prec = 30

        def ln_ratio(k):
            return (Decimal(k + 1) / k).ln()

        out = []
        for j in nodes:
            m = (big - j + 1) * ln_ratio(big - j) + (j + 1) * ln_ratio(j)
            if j > 1:
                m -= (j - 1) * ln_ratio(j - 1)
            if j < n:
                m -= (big - j - 1) * ln_ratio(big - j - 1)
            out.append(float(m))
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 100_000])
def test_kimura_mass_matches_decimal_oracle(n):
    """The closed-form mass keeps its digits where the mesh is fine."""
    nodes = sorted({*range(1, n + 1, 97), (n + 1) // 2, n})
    got = assemble_kimura(n).lumped_mass[np.array(nodes) - 1]
    ref = _kimura_mass_oracle(n, nodes)
    assert np.max(np.abs(got - ref) / ref) <= 1e-11


def test_kimura_mesh_convergence():
    # discretization stability under refinement from 500 to 1000 interior
    # nodes.  In y = ln(x/(1-x)) the Kimura pencil is -d^2/dy^2 on the whole
    # line (spectrum [0, inf)), so lambda_min itself drifts to 0 like
    # (pi / (2 ln n + delta))^2: the interior nodes span y_n - y_1 = 2 ln n.
    # What must settle is delta(n) = pi/sqrt(lambda_min) - 2 ln n, the length
    # the two degenerate end cells add (< 1% movement).  A lambda_min that
    # stalled at a positive value would move delta by 2 ln 2 ~ 35% instead.
    def delta(n):
        lam = assemble_kimura(n).eigensystem().eigenvalues[0]
        return math.pi / math.sqrt(lam) - 2.0 * math.log(n), lam

    delta_500, lam_500 = delta(500)
    delta_1000, lam_1000 = delta(1000)
    change = abs(delta_1000 - delta_500) / delta_500
    assert change < 1e-2, (
        "end-cell length delta moved %.2f%% between n=500 (%.6f, "
        "lambda_min %.6f) and n=1000 (%.6f, lambda_min %.6f); the pencil is "
        "not converging to -d^2/dy^2 on the line"
        % (100.0 * change, delta_500, lam_500, delta_1000, lam_1000)
    )


def test_bessel_parameter_validation():
    assemble_bessel(0.25, 20.0, 16)  # reference parameter choice
    with pytest.raises(ConfigurationError, match="-1/2"):
        assemble_bessel(-0.5, 20.0, 16)
    with pytest.raises(ConfigurationError):
        assemble_bessel(0.25, -1.0, 16)
    with pytest.raises(ConfigurationError):
        assemble_bessel(0.25, 20.0, 0)


def test_bessel_flat_mode_in_interior():
    """Constants are in the kernel of the form away from the Dirichlet edge."""
    op = assemble_bessel(0.25, 20.0, 50)
    s = op.stiffness
    row = s.diag.copy()
    row[:-1] += s.sup
    row[1:] += s.sub
    assert np.max(np.abs(row[:-1])) <= 1e-10 * np.max(np.abs(s.diag))
    assert row[-1] > 0.0  # boundary row feels the constraint


def test_bessel_assembly_invariants():
    op = assemble_bessel(0.25, 20.0, 64)
    assert np.array_equal(op.stiffness.sub, op.stiffness.sup)
    assert np.all(op.lumped_mass > 0.0)
    assert op.eigensystem().eigenvalues[0] >= -1e-10


def test_diagonal_resolvent_hand_value():
    op = make_diagonal([1.0, 2.0])
    x = resolve(op, 3.0 + 0.0j, np.array([1.0, 1.0]))
    assert np.allclose(x, [0.5, 1.0], atol=1e-12)


def test_diagonal_zero_mode_unit_resolvent():
    # dist(-1, [0, inf)) = 1, so |z| * ||(zI-A)^{-1}|| = 1 at z = -1
    op = make_diagonal([0.0, 1.0, 2.0])
    b = np.array([1.0, 0.0, 0.0])
    x = resolve(op, -1.0, b)
    assert abs(op.weighted_norm(x) / op.weighted_norm(b) - 1.0) <= 1e-12


def test_diagonal_negative_rejected():
    with pytest.raises(ConfigurationError):
        make_diagonal([1.0, -0.5])


def test_resolve_matches_dense():
    op = assemble_kimura(25)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(25)
    z = 2.0 + 3.0j
    x = resolve(op, z, b)
    s = op.stiffness
    dense = np.diag(z * op.lumped_mass - s.diag).astype(np.complex128)
    dense -= np.diag(s.sup, 1)
    dense -= np.diag(s.sub, -1)
    oracle = np.linalg.solve(dense, op.lumped_mass * b)
    assert np.max(np.abs(x - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_resolvent_first_identity():
    op = assemble_kimura(30)
    rng = np.random.default_rng(19)
    b = rng.standard_normal(30)
    z1, z2 = 1.5 + 2.0j, -0.7 + 0.4j
    lhs = resolve(op, z1, b) - resolve(op, z2, b)
    rhs = (z2 - z1) * resolve(op, z1, resolve(op, z2, b))
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(np.max(np.abs(lhs)), 1.0)


def test_resolve_spectral_consistency():
    op = assemble_bessel(0.25, 20.0, 40)
    eig = op.eigensystem()
    rng = np.random.default_rng(31)
    for _ in range(100):
        z = complex(rng.uniform(-5, 5), rng.choice([-1, 1]) * 10 ** rng.uniform(-1, 1))
        b = rng.standard_normal(40)
        x = resolve(op, z, b)
        spectral = op.apply_spectral(1.0 / (z - eig.eigenvalues), b)
        assert np.max(np.abs(x - spectral)) <= 1e-8 * max(np.max(np.abs(x)), 1e-30)


def test_resolve_near_spectrum_rejected():
    op = make_diagonal([1.0, 2.0])
    with pytest.raises(SingularMatrixError):
        resolve(op, 1.0 + 0.0j, np.array([1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        resolve(op, 3.0, np.array([1.0]))  # wrong length


def test_apply_spectral_identity_and_norm():
    op = assemble_kimura(20)
    rng = np.random.default_rng(37)
    x = rng.standard_normal(20)
    back = op.apply_spectral(np.ones(20), x)
    assert np.max(np.abs(back - x)) <= 1e-10
    assert op.weighted_norm(x) == pytest.approx(
        math.sqrt(float(np.sum(op.lumped_mass * x**2))), rel=1e-15
    )


def test_sectoriality_obtuse_bound():
    theta = 3.0 * math.pi / 4.0
    for op in (assemble_kimura(80), assemble_bessel(0.25, 20.0, 80)):
        report = sectoriality_check(op, theta)
        assert report.passed
        assert report.m_theta_hat <= report.bound + 1e-9
        assert report.bound == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_sectoriality_narrower_angle():
    op = make_diagonal([0.0, 1.0, 2.0])
    report = sectoriality_check(op, 0.6 * math.pi)
    assert report.bound == pytest.approx(1.0 / math.sin(0.4 * math.pi), rel=1e-12)
    assert report.m_theta_hat <= report.bound + 1e-9
    with pytest.raises(ConfigurationError):
        sectoriality_check(op, math.pi / 4.0)


def test_sectoriality_fails_above_bound():
    """A negative eigenvalue pushes the resolvent growth past the sector bound."""
    stiff = TridiagonalMatrix(sub=np.zeros(0), diag=np.array([-0.5]), sup=np.zeros(0))
    op = DiscreteOperator(kind="negative", stiffness=stiff, lumped_mass=np.ones(1))
    report = sectoriality_check(op, 3.0 * math.pi / 4.0)
    assert report.m_theta_hat == pytest.approx(2.0, rel=1e-12)
    assert report.bound == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert not report.passed
