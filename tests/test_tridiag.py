"""Banded solver, eigendecomposition, and spectral power checks."""

import numpy as np
import pytest

from fracresolvent.errors import NumericalError, SingularMatrixError
from fracresolvent.evolution import _clamped_spectrum
from fracresolvent.operators import DiscreteOperator
from fracresolvent.tridiag import (
    TridiagonalMatrix,
    eigh_tridiagonal,
    solve_tridiagonal,
)


def dense(m: TridiagonalMatrix) -> np.ndarray:
    d = np.diag(np.asarray(m.diag, dtype=np.complex128))
    if m.n > 1:
        d += np.diag(np.asarray(m.sup, dtype=np.complex128), 1)
        d += np.diag(np.asarray(m.sub, dtype=np.complex128), -1)
    return d


def test_solve_identity():
    m = TridiagonalMatrix(sub=np.zeros(2), diag=np.ones(3), sup=np.zeros(2))
    rhs = np.array([1.0, 2.0, 3.0])
    assert np.allclose(solve_tridiagonal(m, rhs), rhs, rtol=0, atol=1e-14)


def test_solve_two_by_two_hand_value():
    m = TridiagonalMatrix(sub=np.array([1.0]), diag=np.array([2.0, 2.0]), sup=np.array([1.0]))
    x = solve_tridiagonal(m, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-14)


def test_solve_matches_dense_oracle():
    """Random diagonally dominant complex systems against dense elimination."""
    rng = np.random.default_rng(42)
    for _ in range(8):
        n = int(rng.integers(2, 51))
        sub = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        sup = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        diag += 4.0 * np.sign(diag.real + 1e-9)  # keep rows dominant
        m = TridiagonalMatrix(sub=sub, diag=diag, sup=sup)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_tridiagonal(m, rhs)
        oracle = np.linalg.solve(dense(m), rhs)
        assert np.max(np.abs(x - oracle)) <= 1e-8
        residual = np.linalg.norm(dense(m) @ x - rhs) / np.linalg.norm(rhs)
        assert residual <= 1e-10


def test_solve_singular_pivot():
    m = TridiagonalMatrix(sub=np.zeros(0), diag=np.array([0.0]), sup=np.zeros(0))
    with pytest.raises(SingularMatrixError):
        solve_tridiagonal(m, np.array([1.0]))


def test_eigh_already_diagonal():
    m = TridiagonalMatrix(sub=np.zeros(2), diag=np.array([1.0, 2.0, 3.0]), sup=np.zeros(2))
    eig = eigh_tridiagonal(m)
    assert np.allclose(eig.eigenvalues, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)
    assert np.allclose(np.abs(eig.eigenvectors), np.eye(3), atol=1e-12)


def test_eigh_two_by_two_closed_form():
    m = TridiagonalMatrix(sub=np.array([1.0]), diag=np.zeros(2), sup=np.array([1.0]))
    eig = eigh_tridiagonal(m)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eigh_discrete_laplacian():
    n = 100
    m = TridiagonalMatrix(sub=-np.ones(n - 1), diag=2.0 * np.ones(n), sup=-np.ones(n - 1))
    eig = eigh_tridiagonal(m)
    k = np.arange(1, n + 1)
    exact = 2.0 - 2.0 * np.cos(k * np.pi / (n + 1))
    assert np.max(np.abs(eig.eigenvalues - exact)) <= 1e-10


def test_eigh_invariants_random():
    rng = np.random.default_rng(3)
    n = 40
    sub = rng.standard_normal(n - 1)
    m = TridiagonalMatrix(sub=sub, diag=rng.standard_normal(n), sup=sub.copy())
    eig = eigh_tridiagonal(m)
    a = dense(m).real
    # residual and orthogonality per the decomposition contract
    res = a @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues
    scale = np.maximum(1.0, np.abs(eig.eigenvalues))
    assert np.max(np.linalg.norm(res, axis=0) / scale) <= 1e-10
    gram = eig.eigenvectors.T @ eig.eigenvectors - np.eye(n)
    assert np.max(np.abs(gram)) <= 1e-10
    assert np.all(np.diff(eig.eigenvalues) >= 0.0)


def _identity_mass(m: TridiagonalMatrix) -> DiscreteOperator:
    """Operator A = m: with M = I the pencil eigenbasis is m's own."""
    return DiscreteOperator(kind="tridiagonal", stiffness=m, lumped_mass=np.ones(m.n))


def _power(op: DiscreteOperator, gamma: float, x: np.ndarray) -> np.ndarray:
    """A^gamma x through the clamped spectrum, as the evolution code applies it."""
    return op.apply_spectral(_clamped_spectrum(op) ** gamma, x)


def _psd_op(rng, n):
    sub = rng.uniform(-0.4, 0.4, n - 1)
    diag = rng.uniform(2.0, 4.0, n)
    return _identity_mass(TridiagonalMatrix(sub=sub, diag=diag, sup=sub.copy()))


def _single(*diag):
    k = len(diag)
    return _identity_mass(
        TridiagonalMatrix(sub=np.zeros(k - 1), diag=np.array(diag), sup=np.zeros(k - 1))
    )


def test_frac_power_endpoints():
    rng = np.random.default_rng(11)
    op = _psd_op(rng, 12)
    x = rng.standard_normal(12)
    a = op.stiffness.to_dense() @ x
    assert np.max(np.abs(_power(op, 1.0, x) - a)) <= 1e-12


def test_frac_power_known_scalar():
    assert np.allclose(_power(_single(4.0), 0.5, np.array([1.0])), [2.0], atol=1e-14)


def test_frac_power_semigroup():
    rng = np.random.default_rng(13)
    op = _psd_op(rng, 15)
    for g1, g2 in ((0.25, 0.5), (0.3, 0.7), (0.5, 0.5)):
        x = rng.standard_normal(15)
        two_step = _power(op, g1, _power(op, g2, x))
        one_step = _power(op, g1 + g2, x)
        assert np.max(np.abs(two_step - one_step)) <= 1e-9


def test_frac_power_zero_mode_annihilated():
    out = _power(_single(0.0, 2.0), 0.5, np.array([1.0, 0.0]))
    assert np.allclose(out, [0.0, 0.0], atol=1e-14)


def test_frac_power_rejects_negative_spectrum():
    with pytest.raises(NumericalError, match="not PSD"):
        _power(_single(-1.0), 0.5, np.array([1.0]))


def test_solve_spectral_consistency():
    """Shifted solves agree with the spectral evaluation for z above the spectrum."""
    rng = np.random.default_rng(17)
    n = 25
    sub = rng.uniform(-0.5, 0.5, n - 1)
    diag = rng.uniform(1.0, 3.0, n)
    m = TridiagonalMatrix(sub=sub, diag=diag, sup=sub.copy())
    eig = eigh_tridiagonal(m)
    z = float(eig.eigenvalues[-1]) + 2.0
    b = rng.standard_normal(n)
    shifted = TridiagonalMatrix(sub=-sub, diag=z - diag, sup=-sub.copy())
    x = solve_tridiagonal(shifted, b)
    spectral = eig.eigenvectors @ ((eig.eigenvectors.T @ b) / (z - eig.eigenvalues))
    assert np.max(np.abs(x - spectral)) <= 1e-8
