"""Tridiagonal linear algebra: solves and symmetric eigendecompositions.

All contour evaluations reduce to shifted tridiagonal solves (zM - S) or,
on the spectral path, to scalar functions of the symmetrized eigenvalues,
so this module is the numerical floor of the package.
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
EIGENVALUE_CLAMP = -1e-10


@dataclass
class TridiagonalMatrix:
    """Tridiagonal matrix stored as three bands.

    sub and sup have length n-1, diag has length n.  Entries may be real
    or complex; solves promote to complex128.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        self.sub = np.asarray(self.sub)
        self.diag = np.asarray(self.diag)
        self.sup = np.asarray(self.sup)
        n = self.diag.shape[0]
        if n < 1:
            raise ValueError("empty matrix")
        if self.sub.shape != (n - 1,) or self.sup.shape != (n - 1,):
            raise ValueError(
                "band lengths inconsistent: diag has %d, sub %s, sup %s"
                % (n, self.sub.shape, self.sup.shape)
            )

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] = y[:-1] + self.sup * x[1:]
        y[1:] = y[1:] + self.sub * x[:-1]
        return y

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.sub, -1) + np.diag(self.sup, 1)

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.sub, self.sup))


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
    perfectly stable solve.)  An exactly zero pivot raises
    SingularMatrixError naming its row.
    """
    rhs = np.asarray(rhs)
    if rhs.shape != (m.n,):
        raise ValueError("rhs length %s does not match matrix order %d" % (rhs.shape, m.n))
    # the f2py wrapper rejects empty off-diagonals, so n = 1 passes length-1 ones
    sub, sup = (m.sub, m.sup) if m.n > 1 else (np.zeros(1), np.zeros(1))
    _, _, _, x, info = scipy.linalg.lapack.zgtsv(sub, m.diag, sup, rhs)
    if info > 0:
        raise SingularMatrixError("zero pivot at row %d" % (info - 1), index=info - 1)
    r = rhs - m.matvec(x)
    scale = np.linalg.norm(rhs)
    if scale == 0.0:
        return np.zeros_like(x)
    row_sum = np.abs(m.diag).astype(np.float64)
    row_sum[:-1] += np.abs(m.sup)
    row_sum[1:] += np.abs(m.sub)
    denom = float(row_sum.max()) * float(np.linalg.norm(x)) + float(scale)
    residual = float(np.linalg.norm(r) / denom)
    if not np.isfinite(residual) or residual > RESIDUAL_TARGET:
        raise IllConditionedError(
            "backward error %.3e exceeds target %.1e" % (residual, RESIDUAL_TARGET),
            residual=residual,
        )
    return x


def eigh_tridiagonal(m: TridiagonalMatrix) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric real tridiagonal matrix.

    Delegates to LAPACK's implicit-shift tridiagonal eigensolver.  The
    returned eigenvalues are ascending and the eigenvector matrix is
    orthogonal to the residual targets the tests pin (1e-10).
    """
    if np.iscomplexobj(m.diag) or np.iscomplexobj(m.sub) or np.iscomplexobj(m.sup):
        raise ValueError("eigendecomposition requires a real symmetric matrix")
    if not m.is_symmetric():
        raise ValueError("matrix is not symmetric: sub and sup bands differ")
    try:
        w, v = scipy.linalg.eigh_tridiagonal(
            np.asarray(m.diag, dtype=float), np.asarray(m.sub, dtype=float)
        )
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError("tridiagonal eigensolver did not converge: %s" % exc) from exc
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def lowest_eigenvalue(m: TridiagonalMatrix) -> float:
    """Smallest eigenvalue of a symmetric real tridiagonal matrix, by bisection (O(n) memory)."""
    try:
        w = scipy.linalg.eigvalsh_tridiagonal(
            np.asarray(m.diag, dtype=float), np.asarray(m.sub, dtype=float),
            select="i", select_range=(0, 0),
        )
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError("tridiagonal eigensolver did not converge: %s" % exc) from exc
    return float(w[0])
