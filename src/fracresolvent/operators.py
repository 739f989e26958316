"""Discrete generators: Kimura, Bessel, and synthetic diagonal operators.

Each operator is a symmetric positive-semidefinite pencil (S, M): S is the
P1 stiffness matrix of the quadratic form, M the lumped weighted mass.
The returned operator is A = M^{-1} S with spectrum in [0, inf); the
symmetrized form A~ = M^{-1/2} S M^{-1/2} shares the spectrum and feeds
the tridiagonal eigensolver.  Resolvent evaluation solves the banded
system (z M - S) x = M b directly, which keeps complex z cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fracresolvent.contour import SectorSpec
from fracresolvent.errors import ConfigurationError, SingularMatrixError
from fracresolvent.tridiag import (
    EigenDecomposition,
    TridiagonalMatrix,
    eigh_tridiagonal,
    lowest_eigenvalue,
    solve_tridiagonal,
)

KIMURA = "kimura"
BESSEL = "bessel"
DIAGONAL = "diagonal"

# spectrum of the pencil is real; "real" z means within this strip
_AXIS_GUARD = 1e-12
_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)


@dataclass
class DiscreteOperator:
    """Assembled pencil plus its lazily cached eigendecomposition."""

    kind: str
    stiffness: TridiagonalMatrix
    lumped_mass: np.ndarray
    sector: SectorSpec = field(default_factory=SectorSpec)

    def __post_init__(self):
        self.lumped_mass = np.asarray(self.lumped_mass, dtype=np.float64)
        if np.any(self.lumped_mass <= 0.0):
            raise ConfigurationError("lumped mass must be strictly positive")
        if not self.stiffness.is_symmetric():
            raise ConfigurationError("stiffness must be symmetric")
        self._eig = None
        self._lam_min = None
        self._sqrt_mass = None

    @property
    def n(self) -> int:
        return self.stiffness.n

    @property
    def sqrt_mass(self) -> np.ndarray:
        if self._sqrt_mass is None:
            self._sqrt_mass = np.sqrt(self.lumped_mass)
        return self._sqrt_mass

    def _symmetrized(self) -> TridiagonalMatrix:
        """A~ = M^{-1/2} S M^{-1/2}, the symmetric form sharing A's spectrum."""
        d = self.sqrt_mass
        off = self.stiffness.sub / (d[:-1] * d[1:])
        return TridiagonalMatrix(sub=off, diag=self.stiffness.diag / self.lumped_mass, sup=off)

    def eigensystem(self) -> EigenDecomposition:
        """Eigendecomposition of A~ = M^{-1/2} S M^{-1/2} (cached)."""
        if self._eig is None:
            self._eig = eigh_tridiagonal(self._symmetrized())
        return self._eig

    def lowest_eigenvalue(self) -> float:
        """Smallest eigenvalue of A~ (cached); by bisection if A~ is not decomposed."""
        if self._lam_min is None:
            self._lam_min = (float(self._eig.eigenvalues[0]) if self._eig is not None
                             else lowest_eigenvalue(self._symmetrized()))
        return self._lam_min

    def check_vector(self, x: np.ndarray) -> np.ndarray:
        """Return x unchanged, or refuse it unless it has shape (n,)."""
        if x.shape != (self.n,):
            raise ConfigurationError(
                "vector shape %r does not match operator size %d" % (x.shape, self.n)
            )
        return x

    def weighted_norm(self, x) -> float:
        """M-weighted norm, the discrete analogue of the weighted L2 norm."""
        x = np.asarray(x)
        return float(np.sqrt(np.sum(self.lumped_mass * np.abs(x) ** 2).real))

    def apply_spectral(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Apply g(A) given g's values on the spectrum of A~.

        Computes M^{-1/2} Q diag(values) Q^T M^{1/2} x, which represents
        g(A) because A = M^{-1/2} A~ M^{1/2}.
        """
        eig = self.eigensystem()
        d = self.sqrt_mass
        coeff = eig.eigenvectors.T @ (d * x)
        return (eig.eigenvectors @ (values * coeff)) / d


def _gauss4(edges: np.ndarray, integrand) -> np.ndarray:
    """Integral of integrand(x, lo, hi) over every element [lo, hi] of the mesh.

    4-point Gauss-Legendre per element, exact through cubics.
    """
    lo, hi = edges[:-1, None], edges[1:, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half[:, 0] * np.sum(_GL4_W * integrand(mid + half * _GL4_X, lo, hi), axis=1)


def _assemble_stiffness(edges: np.ndarray, weight, keep: np.ndarray) -> TridiagonalMatrix:
    """P1 stiffness for the form integral of weight * u' v'.

    edges are the n_el+1 mesh points; keep marks the mesh points that
    are unknowns (False for constrained Dirichlet points).
    """
    w = _gauss4(edges, lambda x, lo, hi: weight(x)) / np.diff(edges) ** 2
    total = np.pad(w, (1, 0)) + np.pad(w, (0, 1))  # each node sums its two elements
    off = -w[keep[:-1] & keep[1:]]
    return TridiagonalMatrix(sub=off, diag=total[keep], sup=off.copy())


def assemble_kimura(n: int, sector: SectorSpec | None = None) -> DiscreteOperator:
    """Degenerate diffusion on (0,1): form weight x(1-x), mass weight 1/(x(1-x)).

    Uniform mesh with h = 1/(n+1), homogeneous Dirichlet at both ends.
    The stiffness integrand is cubic per element, so the 4-point rule is
    exact; the mass weight is singular at the endpoints but the hat
    functions cancel the singularity, and M is integrated in closed form.
    """
    if int(n) != n or n < 1:
        raise ConfigurationError("interior node count must be an integer >= 1, got %r" % n)
    n = int(n)
    h = 1.0 / (n + 1)
    edges = np.linspace(0.0, 1.0, n + 2)
    keep = np.ones(n + 2, dtype=bool)
    keep[[0, -1]] = False
    stiff = _assemble_stiffness(edges, lambda x: x * (1.0 - x), keep)

    # integral of each hat against 1/x, times h: with y = h/b it is
    # (b - h) ln(1 - y) + (b + h) ln(1 + y) = b log1p(-y^2) + 2 h atanh(y),
    # two terms of size h^2/b that do not cancel; at the first node the
    # left element ends at 0, where (b - h) ln(1 - y) vanishes
    b = edges[1:-1]
    y = h / b[1:]
    f = np.concatenate(([2.0 * h * math.log(2.0)],
                        b[1:] * np.log1p(-y * y) + 2.0 * h * np.arctanh(y)))
    # 1/(x(1-x)) = 1/x + 1/(1-x), and the mesh maps onto itself under x -> 1 - x
    mass = (f + f[::-1]) / h
    return DiscreteOperator(
        kind=KIMURA,
        stiffness=stiff,
        lumped_mass=mass,
        sector=sector if sector is not None else SectorSpec(),
    )


def assemble_bessel(
    nu: float, r_max: float, n: int, sector: SectorSpec | None = None
) -> DiscreteOperator:
    """Radial diffusion with weight r^(2 nu + 1) on (0, r_max).

    Uniform mesh r_j = j h, h = r_max / n.  The origin node is an
    unknown (the weight enforces the no-flux condition naturally);
    r_max carries a homogeneous Dirichlet condition.  Both S and the
    lumped M integrate the weight with the 4-point rule per element.
    """
    if nu <= -0.5:
        raise ConfigurationError(
            "nu must exceed -1/2 for the weight r^(2 nu + 1) to be locally "
            "integrable, got %r" % nu
        )
    if r_max <= 0.0:
        raise ConfigurationError("r_max must be positive, got %r" % r_max)
    if int(n) != n or n < 1:
        raise ConfigurationError("node count must be an integer >= 1, got %r" % n)
    n = int(n)
    h = r_max / n
    edges = np.linspace(0.0, r_max, n + 1)
    keep = np.ones(n + 1, dtype=bool)
    keep[-1] = False
    power = 2.0 * nu + 1.0

    def weight(r):
        return np.abs(r) ** power

    stiff = _assemble_stiffness(edges, weight, keep)
    # each element's rising hat belongs to its right node, the falling hat to its left
    rising = _gauss4(edges, lambda x, lo, hi: (x - lo) / h * weight(x))
    falling = _gauss4(edges, lambda x, lo, hi: (hi - x) / h * weight(x))
    mass = np.pad(rising[:-1], (1, 0)) + falling
    return DiscreteOperator(
        kind=BESSEL,
        stiffness=stiff,
        lumped_mass=mass,
        sector=sector if sector is not None else SectorSpec(),
    )


def make_diagonal(
    eigenvalues, sector: SectorSpec | None = None
) -> DiscreteOperator:
    """Synthetic operator with S = diag(eigenvalues) and identity mass."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ConfigurationError("eigenvalues must be a nonempty 1-d sequence")
    if np.any(lam < 0.0):
        raise ConfigurationError(
            "diagonal operator requires nonnegative eigenvalues, got %r"
            % float(lam.min())
        )
    k = lam.size
    stiff = TridiagonalMatrix(sub=np.zeros(k - 1), diag=lam.copy(), sup=np.zeros(k - 1))
    return DiscreteOperator(
        kind=DIAGONAL,
        stiffness=stiff,
        lumped_mass=np.ones(k),
        sector=sector if sector is not None else SectorSpec(),
    )


def resolve(op: DiscreteOperator, z: complex, b) -> np.ndarray:
    """Resolvent application x = (z I - A)^{-1} b via (z M - S) x = M b.

    z may be complex; z on (or within 1e-12 of) the spectrum is refused.
    Only z hugging the nonnegative real axis can be near the spectrum,
    so the eigenvalue distance check is skipped elsewhere.
    """
    z = complex(z)
    b = op.check_vector(np.asarray(b))
    axis_dist = abs(z.imag) if z.real >= 0.0 else abs(z)
    if axis_dist <= _AXIS_GUARD:
        lam = op.eigensystem().eigenvalues
        gap = float(np.min(np.abs(z - lam)))
        if gap <= _AXIS_GUARD:
            raise SingularMatrixError(
                "spectral point z=%r lies within %g of an eigenvalue" % (z, _AXIS_GUARD)
            )
    m = op.lumped_mass
    s = op.stiffness
    shifted = TridiagonalMatrix(sub=-s.sub, diag=z * m - s.diag, sup=-s.sup)
    return solve_tridiagonal(shifted, m * b)


@dataclass
class SectorialityReport:
    """Outcome of the resolvent-growth sample sweep outside the sector."""

    m_theta_hat: float
    theta: float
    bound: float
    passed: bool
    worst_z: complex


def sectoriality_check(
    op: DiscreteOperator,
    theta: float,
    radii=None,
    n_angles: int = 9,
) -> SectorialityReport:
    """Estimate sup |z| ||(zI - A)^{-1}|| over sampled z outside angle theta.

    For the symmetric pencil the resolvent norm equals 1/dist(z, spectrum)
    exactly, so the estimate is a pure spectral-distance computation.
    Sampled z = rho e^{i theta'} with theta' in [theta, pi] and rho >= 1;
    the conjugate ray gives identical distances to the real spectrum and
    is not re-sampled.  The geometric bound is 1/sin(pi - theta);
    passed says the estimate is finite and at or below it.
    """
    if not math.pi / 2.0 < theta < math.pi:
        raise ConfigurationError("theta must lie in (pi/2, pi), got %r" % theta)
    if radii is None:
        radii = np.logspace(0.0, 6.0, 25)
    radii = np.asarray(radii, dtype=np.float64)
    radii = radii[radii >= 1.0]
    if radii.size == 0:
        raise ConfigurationError("no sample radii >= 1 supplied")
    lam = op.eigensystem().eigenvalues
    m_hat = 0.0
    worst = complex(0.0)
    for ang in np.linspace(theta, math.pi, n_angles):
        zs = radii * np.exp(1j * ang)
        dist = np.min(np.abs(zs[:, None] - lam[None, :]), axis=1)
        ratio = radii / dist
        i = int(np.argmax(ratio))
        if ratio[i] > m_hat:
            m_hat = float(ratio[i])
            worst = complex(zs[i])
    bound = 1.0 / math.sin(math.pi - theta)
    return SectorialityReport(
        m_theta_hat=m_hat,
        theta=theta,
        bound=bound,
        passed=bool(np.isfinite(m_hat) and m_hat <= bound),
        worst_z=worst,
    )
