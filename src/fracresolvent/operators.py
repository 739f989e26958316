"""Discrete generators: Kimura, Bessel, and synthetic diagonal operators.

Each operator is a symmetric positive-semidefinite pencil (S, M): S is the
P1 stiffness matrix of the quadratic form, M the lumped weighted mass.
The returned operator is A = M^{-1} S with spectrum in [0, inf); the
symmetrized form A~ = M^{-1/2} S M^{-1/2} shares the spectrum and feeds
the tridiagonal eigensolver.  Resolvent evaluation solves the banded
system (z M - S) x = M b directly, which keeps complex z cheap.  The
operator answers the spectral questions of the evolution code: require_psd
(one Sturm count) is the package's one PSD check, and spectrum and power_norms
(the A^gamma norms) run it first.  Partial spectra are one full-precision bisection,
eigenvalues_in; eigensystem() is the one full spectrum.  Assembly sets the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fracresolvent.errors import ConfigurationError, NumericalError, SingularMatrixError
from fracresolvent.tridiag import (
    EigenDecomposition,
    TridiagonalMatrix,
    eigenvalue_at,
    eigenvalues_in,
    eigh_tridiagonal,
    solve_tridiagonal,
)

# an eigenvalue of A~ below this is not roundoff: the pencil is refused as not PSD
EIGENVALUE_CLAMP = -1e-10
# spectrum of the pencil is real; "real" z means within this strip, relative above |z| = 1
_AXIS_GUARD = 1e-12
_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
# sectoriality_check's sample radii and number of rays
_SECTOR_RADII = np.logspace(0.0, 6.0, 25)
_SECTOR_ANGLES = 9


@dataclass
class DiscreteOperator:
    """Assembled pencil, its lazily cached eigendecomposition and, from assembly, its mesh:
    the coordinates of the unknowns on [0, length] (None on a synthetic operator)."""

    stiffness: TridiagonalMatrix
    lumped_mass: np.ndarray
    coordinates: np.ndarray | None = None
    length: float | None = None

    def __post_init__(self):
        self.lumped_mass = np.asarray(self.lumped_mass, dtype=np.float64)
        if np.any(self.lumped_mass <= 0.0):
            raise ConfigurationError("lumped mass must be strictly positive")
        self._eig = None
        self.sqrt_mass = np.sqrt(self.lumped_mass)

    @property
    def n(self) -> int:
        return self.stiffness.n

    def _symmetrized(self) -> TridiagonalMatrix:
        """A~ = M^{-1/2} S M^{-1/2}, the symmetric form sharing A's spectrum."""
        d = self.sqrt_mass
        return TridiagonalMatrix(self.stiffness.diag / self.lumped_mass,
                                 self.stiffness.off / (d[:-1] * d[1:]))

    def eigensystem(self) -> EigenDecomposition:
        """Eigendecomposition of A~ = M^{-1/2} S M^{-1/2} (cached)."""
        if self._eig is None:
            self._eig = eigh_tridiagonal(self._symmetrized())
        return self._eig

    def eigenvalues_in(self, lo: float, hi: float) -> np.ndarray:
        """Eigenvalues of A~ in (lo, hi], ascending, as tridiag.eigenvalues_in; no vectors."""
        return eigenvalues_in(self._symmetrized(), lo, hi)

    def require_psd(self) -> None:
        """Refuse the pencil when one Sturm count finds an eigenvalue below EIGENVALUE_CLAMP."""
        lam = self.eigenvalues_in(-math.inf, EIGENVALUE_CLAMP)
        if lam.size:
            raise NumericalError("eigenvalue %g below the clamp threshold %g: operator is not "
                                 "PSD" % (lam[0], EIGENVALUE_CLAMP))

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of A for A^gamma and mode values, roundoff negatives set to 0,
        once require_psd has passed."""
        self.require_psd()
        return np.maximum(self.eigensystem().eigenvalues, 0.0)

    def power_norms(self, gamma: float):
        """||A^gamma u||_M of each row u, as a function set up once behind require_psd.
        At gamma == 1/2, u^T S u is sum w (u_i - u_(i+1))^2 + sum r u_i^2, w = -off, r = S 1:
        on an assembled S each w >= 0 and r is 0 up to rounding but at a Dirichlet end, so
        nothing cancels.  Other gamma > 0: ||lam^gamma Q^T M^(1/2) u||_2, Q being orthogonal."""
        if gamma not in (0.0, 0.5):
            power = self.spectrum() ** gamma
            return lambda u: np.linalg.norm(power * self.spectral_coefficients(u), axis=-1)
        self.require_psd()
        if gamma == 0.0:
            return self.weighted_norm
        w, r = -self.stiffness.off, self.stiffness.matvec(np.ones(self.n))
        def norms(states):
            d = np.diff(states, axis=-1)
            form = np.einsum("ij,j,ij->i", d, w, d) + np.einsum("ij,j,ij->i", states, r, states)
            # S is PSD, so a negative form is roundoff: clamped like the spectrum
            return np.sqrt(np.maximum(form, 0.0))
        return norms

    def check_vector(self, x: np.ndarray) -> np.ndarray:
        """Return x unchanged, or refuse it unless it has shape (n,)."""
        if x.shape != (self.n,):
            raise ConfigurationError(
                "vector shape %r does not match operator size %d" % (x.shape, self.n)
            )
        return x

    def weighted_norm(self, x):
        """M-weighted norm, the discrete analogue of the weighted L2 norm, over x's last
        axis, in one pass: a float for a vector, an array of row norms for a 2-d x."""
        x = np.asarray(x)
        return np.sqrt(np.einsum("...i,i,...i->...", x.conj() if np.iscomplexobj(x) else x,
                                 self.lumped_mass, x).real)

    def spectral_coefficients(self, x: np.ndarray) -> np.ndarray:
        """Q^T M^{1/2} x, x's coefficients in the eigenbasis Q of A~; a 2-d x row by row."""
        return (self.sqrt_mass * x) @ self.eigensystem().eigenvectors

    def apply_spectral(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Apply g(A) given g's values on the spectrum of A~.

        Computes M^{-1/2} Q diag(values) Q^T M^{1/2} x, which represents
        g(A) because A = M^{-1/2} A~ M^{1/2}; a 2-d x is taken row by row, and
        2-d values give one row per row of values.
        """
        coeff = values * self.spectral_coefficients(x)
        return (coeff @ self.eigensystem().eigenvectors.T) / self.sqrt_mass


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
    return TridiagonalMatrix(total[keep], -w[keep[:-1] & keep[1:]])


def assemble_kimura(n: int) -> DiscreteOperator:
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
    return DiscreteOperator(stiff, mass, coordinates=edges[keep], length=edges[-1])


def assemble_bessel(nu: float, r_max: float, n: int) -> DiscreteOperator:
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
    return DiscreteOperator(stiff, mass, coordinates=edges[keep], length=edges[-1])


def make_diagonal(eigenvalues) -> DiscreteOperator:
    """Synthetic operator with S = diag(eigenvalues) and identity mass."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ConfigurationError("eigenvalues must be a nonempty 1-d sequence")
    if np.any(lam < 0.0):
        raise ConfigurationError(
            "diagonal operator requires nonnegative eigenvalues, got %r"
            % float(lam.min())
        )
    stiff = TridiagonalMatrix(lam.copy(), np.zeros(lam.size - 1))
    return DiscreteOperator(stiffness=stiff, lumped_mass=np.ones(lam.size))


def resolve(op: DiscreteOperator, z: complex, b) -> np.ndarray:
    """Resolvent application x = (z I - A)^{-1} b via (z M - S) x = M b.

    z may be complex; z within w = 1e-12 max(1, |z|) of an eigenvalue is refused, on any
    pencil: near the axis the eigenvalues in Re z +- 2w are bisected, two Sturm counts if
    there are none, so no rounding of the window's ends drops one within w.  The strip is
    relative because an eigenvalue above 1 is known only to a few ulps of its size.
    """
    z = complex(z)
    b = op.check_vector(np.asarray(b))
    strip = _AXIS_GUARD * max(1.0, abs(z))
    if abs(z.imag) <= strip:
        lam = op.eigenvalues_in(z.real - 2.0 * strip, z.real + 2.0 * strip)
        if np.any(np.abs(z - lam) <= strip):
            raise SingularMatrixError("spectral point z=%r lies within %g of an eigenvalue"
                                      % (z, strip))
    m, s = op.lumped_mass, op.stiffness
    return solve_tridiagonal(TridiagonalMatrix(z * m - s.diag, -s.off), m * b)


@dataclass
class SectorialityReport:
    """Outcome of the resolvent-growth sample sweep outside the sector."""

    m_theta_hat: float
    theta: float
    bound: float
    passed: bool
    worst_z: complex


def sectoriality_check(op: DiscreteOperator, theta: float) -> SectorialityReport:
    """Estimate sup |z| ||(zI - A)^{-1}|| over sampled z outside angle theta.

    For the symmetric pencil the resolvent norm equals 1/dist(z, spectrum)
    exactly, so the estimate is a pure spectral-distance computation.
    Sampled z = rho e^{i theta'} on the _SECTOR_ANGLES rays theta' in
    [theta, pi] at the _SECTOR_RADII rho in [1, 1e6]; the conjugate ray
    gives identical distances to the real spectrum and is not re-sampled.
    The nearest eigenvalue to z is one of the two on either side of Re z
    (np.searchsorted), so no (samples, n) distance matrix is formed; as Re z < 0,
    only the eigenvalues <= 0 and the lowest above them are bisected, not all n.
    The geometric bound is 1/sin(pi - theta); passed says the estimate is
    finite and at or below it.  A pencil that is not PSD is reported, not refused.
    """
    if not math.pi / 2.0 < theta < math.pi:
        raise ConfigurationError("theta must lie in (pi/2, pi), got %r" % theta)
    lam = op.eigenvalues_in(-math.inf, 0.0)
    if lam.size < op.n:
        lam = np.append(lam, eigenvalue_at(op._symmetrized(), lam.size))
    zs = np.exp(1j * np.linspace(theta, math.pi, _SECTOR_ANGLES))[:, None] * _SECTOR_RADII
    right = np.minimum(np.searchsorted(lam, zs.real), lam.size - 1)
    dist = np.minimum(np.abs(zs - lam[right]), np.abs(zs - lam[np.maximum(right - 1, 0)]))
    ratio = (_SECTOR_RADII / dist).ravel()
    i = int(np.argmax(ratio))  # the first worst sample, ray by ray
    bound = 1.0 / math.sin(math.pi - theta)
    return SectorialityReport(
        m_theta_hat=float(ratio[i]),
        theta=theta,
        bound=bound,
        passed=bool(np.isfinite(ratio[i]) and ratio[i] <= bound),
        worst_z=complex(zs.flat[i]),
    )
