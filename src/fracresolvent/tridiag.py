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
        if self.sub.shape != (max(n - 1, 0),) or self.sup.shape != (max(n - 1, 0),):
            raise ValueError(
                "band lengths inconsistent: diag has %d, sub %s, sup %s"
                % (n, self.sub.shape, self.sup.shape)
            )

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        if self.n > 1:
            y[:-1] = y[:-1] + self.sup * x[1:]
            y[1:] = y[1:] + self.sub * x[:-1]
        return y

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        if self.n > 1:
            a += np.diag(self.sub, -1) + np.diag(self.sup, 1)
        return a

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.sub, self.sup))


@dataclass
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def solve_tridiagonal(m: TridiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve m x = rhs by elimination without pivoting.

    One step of iterative refinement follows the forward/backward sweep;
    the backward error ||r|| / (||m|| ||x|| + ||rhs||) must then reach
    1e-10 or the solve is rejected as ill-conditioned.  (A residual
    scaled by ||rhs|| alone would grow with the condition number even
    for a perfectly stable sweep.)  No pivoting is safe here because
    every shifted matrix the package produces is strictly diagonally
    dominant or has a complex diagonal shift bounded away from the
    off-diagonal bands; the backward-error check catches anything that
    slips through.
    """
    rhs = np.asarray(rhs)
    if rhs.shape != (m.n,):
        raise ValueError("rhs length %s does not match matrix order %d" % (rhs.shape, m.n))
    x = _thomas(m, rhs.astype(np.complex128))
    # one refinement step
    r = rhs - m.matvec(x)
    x = x + _thomas(m, r.astype(np.complex128))
    r = rhs - m.matvec(x)
    scale = np.linalg.norm(rhs)
    if scale == 0.0:
        return np.zeros_like(x)
    row_sum = np.abs(m.diag).astype(np.float64)
    if m.n > 1:
        row_sum[:-1] += np.abs(m.sup)
        row_sum[1:] += np.abs(m.sub)
    denom = float(row_sum.max()) * float(np.linalg.norm(x)) + float(scale)
    residual = float(np.linalg.norm(r) / denom)
    if not np.isfinite(residual) or residual > RESIDUAL_TARGET:
        raise IllConditionedError(
            "backward error %.3e exceeds target %.1e after refinement"
            % (residual, RESIDUAL_TARGET),
            residual=residual,
        )
    return x


def _thomas(m: TridiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    n = m.n
    sub = m.sub.astype(np.complex128).tolist() if n > 1 else []
    sup = m.sup.astype(np.complex128).tolist() if n > 1 else []
    diag = m.diag.astype(np.complex128).tolist()
    b = rhs.tolist()
    cp = [0.0j] * max(n - 1, 0)
    dp = [0.0j] * n
    piv = diag[0]
    if abs(piv) < 1e-300:
        raise SingularMatrixError("zero pivot at row 0", index=0)
    if n > 1:
        cp[0] = sup[0] / piv
    dp[0] = b[0] / piv
    for i in range(1, n):
        piv = diag[i] - sub[i - 1] * cp[i - 1]
        if abs(piv) < 1e-300:
            raise SingularMatrixError("zero pivot at row %d" % i, index=i)
        if i < n - 1:
            cp[i] = sup[i] / piv
        dp[i] = (b[i] - sub[i - 1] * dp[i - 1]) / piv
    x = [0.0j] * n
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return np.asarray(x, dtype=np.complex128)


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
        if m.n == 1:
            w = np.asarray([float(m.diag[0])])
            v = np.ones((1, 1))
        else:
            w, v = scipy.linalg.eigh_tridiagonal(
                np.asarray(m.diag, dtype=float), np.asarray(m.sub, dtype=float)
            )
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError("tridiagonal eigensolver did not converge: %s" % exc) from exc
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)

