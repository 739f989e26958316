"""Tridiagonal linear algebra: solves, symmetric eigendecompositions and bisection.

All contour evaluations reduce to shifted tridiagonal solves (zM - S) or,
on the spectral path, to scalar functions of the symmetrized eigenvalues,
so this module is the numerical floor of the package.  Each matrix is
symmetric by type: one off-diagonal band serves both sides.  Partial spectra are
bisected to full precision; eigh_tridiagonal's is the one full spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from fracresolvent.errors import (
    IllConditionedError,
    NumericalError,
    SingularMatrixError,
)

RESIDUAL_TARGET = 1e-10
_TINY_RHS, _HUGE_RHS = 2.0 ** -500, 2.0 ** 500  # a rhs normed outside is solved at unit size


@dataclass
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix: diag has length n, off (length n-1) is
    both the sub- and the super-diagonal.  Entries may be real or complex;
    solves promote to complex128.
    """

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        self.diag = np.asarray(self.diag)
        self.off = np.asarray(self.off)
        n = self.diag.shape[0]
        if n < 1:
            raise ValueError("empty matrix")
        if self.off.shape != (n - 1,):
            raise ValueError("off has shape %s, diag length %d" % (self.off.shape, n))

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.off * x[1:]
        y[1:] += self.off * x[:-1]
        return y


@dataclass
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def solve_tridiagonal(m: TridiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve m x = rhs by LAPACK gtsv (elimination with partial pivoting).

    The backward error ||r|| / (||m|| ||x|| + ||rhs||) of the solve must
    reach 1e-10 or it is rejected as ill-conditioned.  (A residual scaled
    by ||rhs|| alone would grow with the condition number even for a
    perfectly stable solve.)  An exactly zero pivot raises SingularMatrixError
    naming its row; an all-zero rhs returns zeros before LAPACK, even where
    m is singular.  A nonzero rhs normed outside [2^-500, 2^500], or to inf, is solved
    scaled by a power of 2 to unit size, so the gate's norms neither underflow nor
    overflow, and scaled back exactly (to inf where x overflows).
    """
    rhs = np.asarray(rhs)
    if rhs.shape != (m.n,):
        raise ValueError("rhs length %s does not match matrix order %d" % (rhs.shape, m.n))
    scale = np.linalg.norm(rhs)
    e = 0
    if not _TINY_RHS <= scale <= _HUGE_RHS:
        if not np.any(rhs):
            return np.zeros(m.n, dtype=np.complex128)
        e = int(np.frexp(np.max(np.abs(rhs)))[1])
        # np.ldexp refuses complex input, and 2.0**-e may overflow
        rhs = np.ldexp(rhs.astype(np.complex128).view(np.float64), -e).view(np.complex128)
        scale = np.linalg.norm(rhs)
    # the f2py wrapper rejects empty off-diagonals, so n = 1 passes a length-1 one
    off = m.off if m.n > 1 else np.zeros(1)
    _, _, _, x, info = scipy.linalg.lapack.zgtsv(off, m.diag, off, rhs)
    if info > 0:
        raise SingularMatrixError("zero pivot at row %d" % (info - 1), index=info - 1)
    r = rhs - m.matvec(x)
    row_sum = np.abs(m.diag).astype(np.float64)
    abs_off = np.abs(m.off)
    row_sum[:-1] += abs_off
    row_sum[1:] += abs_off
    denom = float(row_sum.max()) * float(np.linalg.norm(x)) + float(scale)
    residual = float(np.linalg.norm(r) / denom)
    if not np.isfinite(residual) or residual > RESIDUAL_TARGET:
        raise IllConditionedError(
            "backward error %.3e exceeds target %.1e" % (residual, RESIDUAL_TARGET),
            residual=residual,
        )
    return np.ldexp(x.view(np.float64), e).view(np.complex128) if e else x


def eigh_tridiagonal(m: TridiagonalMatrix) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric real tridiagonal matrix.

    Delegates to LAPACK's implicit-shift tridiagonal eigensolver.  The
    returned eigenvalues are ascending and the eigenvector matrix is
    orthogonal to the residual targets the tests pin (1e-10).
    """
    if np.iscomplexobj(m.diag) or np.iscomplexobj(m.off):
        raise ValueError("eigendecomposition requires a real symmetric matrix")
    try:
        w, v = scipy.linalg.eigh_tridiagonal(
            np.asarray(m.diag, dtype=float), np.asarray(m.off, dtype=float)
        )
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError("tridiagonal eigensolver did not converge: %s" % exc) from exc
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def eigenvalues_in(m: TridiagonalMatrix, lo: float, hi: float) -> np.ndarray:
    """The eigenvalues in (lo, hi], ascending, no vectors, bisected to full precision:
    one Sturm count at each end (O(n)) when there are none."""
    return _eigvalsh(m, select="v", select_range=(lo, hi))


def eigenvalue_at(m: TridiagonalMatrix, k: int) -> float:
    """The eigenvalue of ascending index k alone, bisected to full precision."""
    return float(_eigvalsh(m, select="i", select_range=(k, k))[0])


def _eigvalsh(m: TridiagonalMatrix, **select) -> np.ndarray:
    try:
        return scipy.linalg.eigvalsh_tridiagonal(
            np.asarray(m.diag, dtype=float), np.asarray(m.off, dtype=float),
            tol=2.0 * np.finfo(float).tiny, **select)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError("tridiagonal eigensolver did not converge: %s" % exc) from exc
