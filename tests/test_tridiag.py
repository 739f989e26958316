"""Banded solver, eigendecomposition, and spectral power checks."""

import numpy as np
import pytest
import scipy.linalg

from fracresolvent.errors import IllConditionedError, NumericalError, SingularMatrixError
from fracresolvent.evolution import smoothed_norm
from fracresolvent.operators import DiscreteOperator
from fracresolvent.tridiag import (
    TridiagonalMatrix,
    eigh_tridiagonal,
    solve_tridiagonal,
)


def dense(m: TridiagonalMatrix) -> np.ndarray:
    d = np.diag(np.asarray(m.diag, dtype=np.complex128))
    if m.n > 1:
        off = np.asarray(m.off, dtype=np.complex128)
        d += np.diag(off, 1) + np.diag(off, -1)
    return d


def test_solve_identity():
    m = TridiagonalMatrix(np.ones(3), np.zeros(2))
    rhs = np.array([1.0, 2.0, 3.0])
    assert np.allclose(solve_tridiagonal(m, rhs), rhs, rtol=0, atol=1e-14)


def test_solve_two_by_two_hand_value():
    m = TridiagonalMatrix(np.array([2.0, 2.0]), np.array([1.0]))
    x = solve_tridiagonal(m, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-14)


def test_solve_matches_dense_oracle():
    """Random diagonally dominant complex-symmetric systems, the kind resolve
    forms, against dense elimination."""
    rng = np.random.default_rng(42)
    for _ in range(8):
        n = int(rng.integers(2, 51))
        off = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        diag = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        diag += 4.0 * np.sign(diag.real + 1e-9)  # keep rows dominant
        m = TridiagonalMatrix(diag, off)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_tridiagonal(m, rhs)
        oracle = np.linalg.solve(dense(m), rhs)
        assert np.max(np.abs(x - oracle)) <= 1e-8
        residual = np.linalg.norm(dense(m) @ x - rhs) / np.linalg.norm(rhs)
        assert residual <= 1e-10


def _complex_system(n=30):
    rng = np.random.default_rng(5)
    diag = rng.standard_normal(n) + 1j * rng.standard_normal(n) + 4.0
    m = TridiagonalMatrix(diag, rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
    return m, rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_solve_tiny_rhs_is_the_scaled_unit_solve():
    """A right-hand side below 2^-500 is solved at unit size and scaled back by a
    power of 2, so the answer is the unit solve's bits, scaled; zero stays zero."""
    m, b = _complex_system()
    tiny = solve_tridiagonal(m, 2.0**-600 * b)
    assert np.array_equal(tiny, 2.0**-600 * solve_tridiagonal(m, b))
    assert np.array_equal(solve_tridiagonal(m, np.zeros(m.n)), np.zeros(m.n))


@pytest.mark.parametrize("scale", (2.0**900, 2.0**1000), ids=("2^900", "norm-overflows"))
def test_solve_huge_rhs_is_the_scaled_unit_solve(scale):
    """A right-hand side above 2^500, or whose norm overflows, is solved at unit size
    too, so the gate does not read inf / inf; the answer is the unit solve's bits, scaled."""
    m, b = _complex_system()
    with np.errstate(over="ignore"):  # the caller's: the norm of 2^1000 b overflows
        huge = solve_tridiagonal(m, scale * b)
    assert np.array_equal(huge, scale * solve_tridiagonal(m, b))


def test_solve_gate_refuses_a_nan_diagonal():
    """The backward-error gate is the solve's only IllConditionedError: a NaN diagonal
    passes elimination (no zero pivot) and leaves a NaN backward error."""
    m = TridiagonalMatrix(np.array([2.0, np.nan, 2.0]), np.full(2, 0.5))
    with pytest.raises(IllConditionedError, match="backward error nan exceeds target 1.0e-10"):
        solve_tridiagonal(m, np.ones(3))


def test_solve_singular_pivot():
    m = TridiagonalMatrix(np.array([0.0]), np.zeros(0))
    with pytest.raises(SingularMatrixError) as info:
        solve_tridiagonal(m, np.array([1.0]))
    assert info.value.index == 0
    # [[1, 1], [1, 1]]: the zero pivot appears only at the second row
    m = TridiagonalMatrix(np.ones(2), np.array([1.0]))
    with pytest.raises(SingularMatrixError) as info:
        solve_tridiagonal(m, np.array([1.0, 2.0]))
    assert info.value.index == 1


@pytest.mark.parametrize("m", (
    TridiagonalMatrix(np.array([2.0]), np.zeros(0)),
    TridiagonalMatrix(np.full(5, 4.0 + 1j), np.ones(4)),
    TridiagonalMatrix(np.ones(2), np.array([1.0])),  # zero pivot at row 1
), ids=("n1", "n5", "singular"))
def test_solve_zero_rhs_skips_lapack(monkeypatch, m):
    """An all-zero right-hand side is answered with complex zeros before LAPACK,
    even on [[1, 1], [1, 1]], whose zero pivot test_solve_singular_pivot pins."""
    monkeypatch.setattr(scipy.linalg.lapack, "zgtsv", None)  # a call raises TypeError
    x = solve_tridiagonal(m, np.zeros(m.n))
    assert x.dtype == np.complex128 and x.shape == (m.n,) and not np.any(x)


def test_solve_subnormal_rhs_is_not_zero(monkeypatch):
    """A one-entry 1e-320 right-hand side is nonzero: it takes the scaled solve."""
    zgtsv, calls = scipy.linalg.lapack.zgtsv, []

    def counted(*args):
        calls.append(1)
        return zgtsv(*args)

    monkeypatch.setattr(scipy.linalg.lapack, "zgtsv", counted)
    m = TridiagonalMatrix(np.array([2.0]), np.zeros(0))
    x = solve_tridiagonal(m, np.array([1e-320]))
    assert calls == [1] and x[0] == 0.5 * 1e-320


def test_solve_zero_diagonal_needs_pivoting():
    """[[0, 1], [1, 0]] is nonsingular; only a row swap gets past its zero diagonal."""
    m = TridiagonalMatrix(np.zeros(2), np.array([1.0]))
    x = solve_tridiagonal(m, np.array([1.0, 2.0]))
    assert np.allclose(x, [2.0, 1.0], rtol=0, atol=1e-14)


def test_eigh_already_diagonal():
    m = TridiagonalMatrix(np.array([1.0, 2.0, 3.0]), np.zeros(2))
    eig = eigh_tridiagonal(m)
    assert np.allclose(eig.eigenvalues, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)
    assert np.allclose(np.abs(eig.eigenvectors), np.eye(3), atol=1e-12)


def test_eigh_two_by_two_closed_form():
    m = TridiagonalMatrix(np.zeros(2), np.array([1.0]))
    eig = eigh_tridiagonal(m)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eigh_discrete_laplacian():
    n = 100
    m = TridiagonalMatrix(2.0 * np.ones(n), -np.ones(n - 1))
    eig = eigh_tridiagonal(m)
    k = np.arange(1, n + 1)
    exact = 2.0 - 2.0 * np.cos(k * np.pi / (n + 1))
    assert np.max(np.abs(eig.eigenvalues - exact)) <= 1e-10


def test_eigh_invariants_random():
    rng = np.random.default_rng(3)
    n = 40
    off = rng.standard_normal(n - 1)
    m = TridiagonalMatrix(rng.standard_normal(n), off)
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
    return DiscreteOperator(stiffness=m, lumped_mass=np.ones(m.n))


def _power(op: DiscreteOperator, gamma: float, x: np.ndarray) -> np.ndarray:
    """A^gamma x through the clamped spectrum, as the evolution code applies it."""
    return op.apply_spectral(op.spectrum() ** gamma, x)


def _psd_op(rng, n):
    off = rng.uniform(-0.4, 0.4, n - 1)
    diag = rng.uniform(2.0, 4.0, n)
    return _identity_mass(TridiagonalMatrix(diag, off))


def _single(*diag):
    return _identity_mass(TridiagonalMatrix(np.array(diag), np.zeros(len(diag) - 1)))


def test_frac_power_endpoints():
    rng = np.random.default_rng(11)
    op = _psd_op(rng, 12)
    x = rng.standard_normal(12)
    a = dense(op.stiffness).real @ x
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


def test_half_power_norm_rejects_negative_spectrum():
    """The u^T S u route of smoothed_norm refuses what the spectral route refuses,
    both against the -1e-10 clamp, naming the lowest eigenvalue."""
    with pytest.raises(NumericalError, match="not PSD"):
        smoothed_norm(_single(-1.0), 0.5, np.array([1.0]))
    slightly_negative = _single(2.0, -1e-9, 3.0)
    with pytest.raises(NumericalError, match=r"eigenvalue -1e-09 below .* not PSD"):
        smoothed_norm(slightly_negative, 0.5, np.ones(3))
    with pytest.raises(NumericalError, match=r"eigenvalue -1e-09 below .* not PSD"):
        slightly_negative.spectrum()
    # roundoff negatives above the clamp pass, and the spectrum clamps them to 0
    assert smoothed_norm(_single(4.0, -1e-12), 0.5, np.array([1.0, 0.0])) == 2.0
    assert _single(4.0, -1e-12).spectrum()[0] == 0.0


def test_eigenvalues_in_matches_full_solver():
    """The eigenvalues in (lo, hi]: below each midpoint of the spectrum, and the one
    between two neighbouring midpoints, bisected to the full solver's values; none in
    an interval below the spectrum."""
    rng = np.random.default_rng(19)
    op = _psd_op(rng, 40)
    lam = op.eigensystem().eigenvalues
    mid = 0.5 * (lam[:-1] + lam[1:])
    assert op.eigenvalues_in(-np.inf, 0.5 * lam[0]).size == 0
    for k, bound in enumerate(mid, start=1):
        below = op.eigenvalues_in(-np.inf, bound)
        assert below.size == k
        assert np.allclose(below, lam[:k], rtol=1e-12, atol=0.0)
    for k in range(1, 39):
        assert op.eigenvalues_in(mid[k - 1], mid[k]) == pytest.approx([lam[k]], rel=1e-12)


def test_solve_spectral_consistency():
    """Shifted solves agree with the spectral evaluation for z above the spectrum."""
    rng = np.random.default_rng(17)
    n = 25
    off = rng.uniform(-0.5, 0.5, n - 1)
    diag = rng.uniform(1.0, 3.0, n)
    m = TridiagonalMatrix(diag, off)
    eig = eigh_tridiagonal(m)
    z = float(eig.eigenvalues[-1]) + 2.0
    b = rng.standard_normal(n)
    shifted = TridiagonalMatrix(z - diag, -off)
    x = solve_tridiagonal(shifted, b)
    spectral = eig.eigenvectors @ ((eig.eigenvectors.T @ b) / (z - eig.eigenvalues))
    assert np.max(np.abs(x - spectral)) <= 1e-8
