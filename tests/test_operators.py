"""Assembly oracles, resolvent application, and sectoriality estimates."""

import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

import fracresolvent.operators
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
    row[:-1] += s.off
    row[1:] += s.off
    assert np.max(np.abs(row[:-1])) <= 1e-10 * np.max(np.abs(s.diag))
    assert row[-1] > 0.0  # boundary row feels the constraint


def test_bessel_assembly_invariants():
    op = assemble_bessel(0.25, 20.0, 64)
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
    dense -= np.diag(s.off, 1) + np.diag(s.off, -1)
    oracle = np.linalg.solve(dense, op.lumped_mass * b)
    assert np.max(np.abs(x - oracle)) <= 1e-10 * np.max(np.abs(oracle))


@pytest.mark.parametrize("c", [1e-170, 1e-320])
def test_resolve_tiny_rhs_does_not_underflow(c):
    """A right-hand side whose norm underflows still gets c times the unit solve,
    to roundoff and the spacing of subnormals, not zeros."""
    op = assemble_kimura(10)
    unit = resolve(op, -1.0 + 1.0j, np.ones(10))
    x = resolve(op, -1.0 + 1.0j, c * np.ones(10))
    tol = 1e-15 * c * np.max(np.abs(unit)) + 4.0 * np.finfo(float).smallest_subnormal
    assert np.max(np.abs(x - c * unit)) <= tol


def test_resolve_huge_rhs_is_scaled_exactly():
    """2^900 b is solved at unit size and scaled back: 2^900 times b's answer, bit for bit,
    on both sides of the spectrum and on the axis."""
    op = assemble_kimura(200)
    b = np.sin(np.pi * op.coordinates)
    for z in (-1.0 + 1.0j, 2.5 - 0.1j, -30.0):
        with np.errstate(over="ignore"):  # the caller's, as in the sweep
            huge = resolve(op, z, 2.0**900 * b)
        assert np.array_equal(huge, 2.0**900 * resolve(op, z, b))


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


def test_resolve_at_an_eigenvalue_refuses_a_zero_rhs():
    """The spectral guard runs before the solve, so a zero right-hand side, which the
    solve would answer with zeros, is still refused on the spectrum."""
    op = assemble_kimura(8)
    for lam in op.eigensystem().eigenvalues[[0, 4]]:
        with pytest.raises(SingularMatrixError, match="lies within"):
            resolve(op, complex(lam), np.zeros(8))


def test_resolve_guard_reads_eigenvalues_only(monkeypatch):
    """The on-axis guard forms no eigenvectors (n^2 floats at large n): it still refuses z
    at an eigenvalue and solves z 1e-6 off the axis with eigh_tridiagonal refused."""
    op = assemble_kimura(48)
    lam = op.eigenvalues_in(-math.inf, 1.5)

    def refuse(m):
        raise AssertionError("the spectral guard decomposed the operator")

    monkeypatch.setattr(fracresolvent.operators, "eigh_tridiagonal", refuse)
    with pytest.raises(SingularMatrixError, match="lies within"):
        resolve(op, complex(lam[3]), np.ones(48))
    assert np.all(np.isfinite(resolve(op, complex(lam[3], 1e-6), np.ones(48))))


@pytest.mark.parametrize("make", (assemble_kimura, lambda n: assemble_bessel(0.25, 20.0, n)),
                         ids=("kimura", "bessel"))
@pytest.mark.parametrize("n", (48, 1000, 20_000))
def test_resolve_refuses_a_bisected_eigenvalue(no_whole_spectrum, make, n):
    """The guard bisects only around Re z: it refuses an eigenvalue that eigenvalues_in
    gives, with the whole spectrum refused, in under 0.1 s at n = 20,000."""
    op = make(n)
    lam = op.eigenvalues_in(-math.inf, 1.0)[2]
    start = time.perf_counter()
    with pytest.raises(SingularMatrixError, match="lies within"):
        resolve(op, lam, np.ones(n))
    assert time.perf_counter() - start < 0.1
    with pytest.raises(SingularMatrixError, match="lies within"):
        resolve(op, complex(lam + 5e-13, -5e-13), np.ones(n))


@pytest.mark.parametrize("lam", (1e-3, 0.3, 123.456, 3e5))
def test_resolve_guard_refuses_exactly_the_strip(lam):
    """z is refused exactly when |z - lam| <= 1e-12, whatever rounding does to the ends
    of Re z +- 1e-12, at 3e5 too, where 1e-12 is below half an ulp of Re z."""
    op = make_diagonal([lam])
    for d in np.linspace(-1.2e-12, 1.2e-12, 49):
        for z in (lam + d, complex(lam, d)):
            if abs(z - lam) <= 1e-12:
                with pytest.raises(SingularMatrixError, match="lies within"):
                    resolve(op, z, np.ones(1))
            else:
                assert np.isfinite(resolve(op, z, np.ones(1))[0])


def test_assembled_operators_carry_their_mesh():
    """The coordinates of the unknowns and the domain length: Kimura's interior nodes
    j h, h = 1 / (n+1), on [0, 1], Bessel's j h, h = r_max / n, on [0, r_max] from the
    origin node, bit for bit."""
    kimura, bessel = assemble_kimura(5), assemble_bessel(0.25, 20.0, 10)
    assert kimura.coordinates.tolist() == (np.arange(1, 6) * (1.0 / 6.0)).tolist()
    assert kimura.length == 1.0
    assert bessel.coordinates.tolist() == (np.arange(10) * 2.0).tolist()
    assert bessel.length == 20.0
    assert make_diagonal([1.0, 2.0]).coordinates is None


def test_weighted_norm_of_complex_rows():
    """A complex vector, and each complex row, is normed as sqrt(sum M |x|^2)."""
    op = assemble_kimura(20)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((3, 20)) + 1j * rng.standard_normal((3, 20))
    want = np.sqrt(np.sum(op.lumped_mass * np.abs(x) ** 2, axis=-1))
    assert np.allclose(op.weighted_norm(x), want, rtol=1e-15, atol=0.0)
    assert op.weighted_norm(x[0]) == pytest.approx(want[0], rel=1e-15)


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


@pytest.mark.parametrize("op, m_hat", (
    pytest.param(assemble_kimura(1000), 0.999999978054106, id="kimura"),
    pytest.param(assemble_bessel(0.25, 20.0, 1000), 0.999999986329280, id="bessel"),
))
def test_sectoriality_reads_eigenvalues_only(monkeypatch, op, m_hat):
    """The check needs the spectrum, not the n^2 eigenvector entries (80 GB at
    n = 10^5): it runs with eigh_tridiagonal refused, and its estimate at 3 pi / 4
    is the one the full eigendecomposition gives, to 15 digits."""
    def refuse(m):
        raise AssertionError("sectoriality_check decomposed the operator")

    monkeypatch.setattr(fracresolvent.operators, "eigh_tridiagonal", refuse)
    report = sectoriality_check(op, 3.0 * math.pi / 4.0)
    assert report.passed
    assert report.m_theta_hat == pytest.approx(m_hat, rel=1e-14, abs=0.0)


def _diagonal_pencil(*diag):
    """The pencil (diag, I), which may have negative eigenvalues (make_diagonal refuses them)."""
    return DiscreteOperator(stiffness=TridiagonalMatrix(np.array(diag), np.zeros(len(diag) - 1)),
                            lumped_mass=np.ones(len(diag)))


NOT_PSD = _diagonal_pencil(-50.0, 0.3, 7.0)


def test_resolve_guard_covers_every_pencil():
    """z within 1e-12 of a negative eigenvalue is refused as any other: the (-50, 0.3, 7)
    pencil once solved z = -50 + 1e-13 to a 1e13-size answer.  2e-12 off, it solves."""
    for z in (-50.0 + 1e-13, complex(-50.0, 1e-13), 0.3, complex(7.0, -1e-12)):
        with pytest.raises(SingularMatrixError, match="lies within"):
            resolve(NOT_PSD, z, np.ones(3))
    assert resolve(NOT_PSD, complex(-50.0, 2e-12), np.ones(3))[0] == pytest.approx(-5e11j)


def _m_hat_by_distance_matrix(op, theta):
    """The estimate from every sample's distance to every eigenvalue."""
    lam = op.eigensystem().eigenvalues
    zs = np.outer(np.exp(1j * np.linspace(theta, math.pi, fracresolvent.operators._SECTOR_ANGLES)),
                  fracresolvent.operators._SECTOR_RADII)
    ratio = np.abs(zs) / np.min(np.abs(zs[..., None] - lam), axis=-1)
    return ratio.max()


@pytest.mark.parametrize("op", (
    assemble_kimura(80),
    assemble_bessel(0.25, 20.0, 80),
    make_diagonal([0.0, 1.0, 2.0]),
    NOT_PSD,
), ids=("kimura", "bessel", "diagonal", "pencil"))
def test_sectoriality_reads_the_nearest_eigenvalues(op):
    """Each sample's distance comes from the two eigenvalues on either side of Re z,
    with no (samples, n) distance matrix; the estimate is the matrix's to rounding.
    On the pencil with eigenvalues (-50, 0.3, 7) the nearest is often not the smallest."""
    for theta in (0.6 * math.pi, 3.0 * math.pi / 4.0):
        report = sectoriality_check(op, theta)
        assert report.m_theta_hat == pytest.approx(_m_hat_by_distance_matrix(op, theta),
                                                   rel=1e-14, abs=0.0)
    if op is NOT_PSD:
        assert report.m_theta_hat == 9.020362070798647
        assert report.worst_z == complex(-56.23413251903491, 6.886695039226418e-15)
        assert not report.passed


def test_sectoriality_narrower_angle():
    op = make_diagonal([0.0, 1.0, 2.0])
    report = sectoriality_check(op, 0.6 * math.pi)
    assert report.bound == pytest.approx(1.0 / math.sin(0.4 * math.pi), rel=1e-12)
    assert report.m_theta_hat <= report.bound + 1e-9
    with pytest.raises(ConfigurationError):
        sectoriality_check(op, math.pi / 4.0)


def test_sectoriality_fails_above_bound():
    """A negative eigenvalue pushes the resolvent growth past the sector bound."""
    report = sectoriality_check(_diagonal_pencil(-0.5), 3.0 * math.pi / 4.0)
    assert report.m_theta_hat == pytest.approx(2.0, rel=1e-12)
    assert report.bound == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert not report.passed


def test_sectoriality_bisects_only_near_the_origin(monkeypatch, no_whole_spectrum):
    """Every sample has Re z < 0, so the check bisects the eigenvalues <= 0 and the lowest
    one above them: at n = 20,000 it runs in under 0.5 s with the whole spectrum refused
    (eigvalsh_tridiagonal's default routine took 6 s there), and its estimate at 3 pi / 4
    is 0.9999999876629684 to 1e-14, the value that full spectrum gives."""
    op = assemble_kimura(20_000)

    def refuse(m):
        raise AssertionError("sectoriality_check decomposed the operator")

    monkeypatch.setattr(fracresolvent.operators, "eigh_tridiagonal", refuse)
    start = time.perf_counter()
    report = sectoriality_check(op, 3.0 * math.pi / 4.0)
    assert time.perf_counter() - start < 0.5
    assert report.passed
    assert report.m_theta_hat == pytest.approx(0.9999999876629684, rel=1e-14, abs=0.0)
