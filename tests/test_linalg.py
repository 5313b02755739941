import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellmax.linalg import (
    NonHermitianError,
    TensorSizeError,
    hermitian_eig,
    hermitian_eigenvalues,
    sym3_eig,
    tensor,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def complex_matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_hermitian(rng, n):
    m = complex_matrix(rng, n, n)
    return 0.5 * (m + m.conj().T)


# ---------------------------------------------------------------- tensor

def test_tensor_identity():
    np.testing.assert_array_equal(tensor(I2, I2), np.eye(4))


def test_tensor_sigma_x_pair_is_antidiagonal():
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        expected[i, 3 - i] = 1.0
    np.testing.assert_array_equal(tensor(SX, SX), expected)


def test_tensor_projectors():
    p = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_array_equal(tensor(p, p), np.diag([1.0, 0, 0, 0]))


def test_tensor_block_ordering():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[5, 6], [7, 8]], dtype=complex)
    out = tensor(a, b)
    # coarse index from a, fine index from b
    assert out[0, 0] == 5 and out[0, 2] == 10
    assert out[2, 0] == 15 and out[3, 3] == 32


def test_tensor_size_cap():
    big = np.eye(100, dtype=complex)
    with pytest.raises(TensorSizeError, match="cap"):
        tensor(big, big)
    tensor(big, np.eye(40))  # 4000 <= 4096 is fine


def test_tensor_rejects_nonfinite():
    bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        tensor(bad, I2)


def test_tensor_associativity_and_trace_seeded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dims = rng.integers(1, 5, size=3)
        a, b, c = (complex_matrix(rng, d, d) for d in dims)
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.max(np.abs(left - right)) <= 1e-12
        lhs = np.trace(tensor(a, b))
        rhs = np.trace(a) * np.trace(b)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=8, max_size=8),
       st.lists(st.floats(-3, 3), min_size=8, max_size=8))
def test_tensor_trace_property(xs, ys):
    a = np.array(xs[:4]).reshape(2, 2) + 1j * np.array(xs[4:]).reshape(2, 2)
    b = np.array(ys[:4]).reshape(2, 2) + 1j * np.array(ys[4:]).reshape(2, 2)
    lhs = np.trace(tensor(a, b))
    rhs = np.trace(a) * np.trace(b)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


# --------------------------------------------------------- hermitian eig

def test_pauli_z_spectrum():
    np.testing.assert_allclose(hermitian_eigenvalues(SZ), [-1.0, 1.0], atol=1e-14)


def test_identity_spectrum():
    np.testing.assert_allclose(hermitian_eigenvalues(np.eye(4)), np.ones(4), atol=1e-14)


def test_sigma_xx_spectrum():
    # hand eigendecomposition of the 4x4 anti-diagonal: (e1 +- e4)/sqrt(2)
    # and (e2 +- e3)/sqrt(2) give eigenvalues +-1, each twice
    np.testing.assert_allclose(
        hermitian_eigenvalues(tensor(SX, SX)), [-1, -1, 1, 1], atol=1e-12
    )


def test_non_hermitian_rejected_with_asymmetry():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NonHermitianError, match="max asymmetry 1.000e"):
        hermitian_eigenvalues(m)


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_eigensum_matches_trace_and_residuals():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        m = random_hermitian(rng, n)
        values, vectors = hermitian_eig(m)
        scale = np.linalg.norm(m)
        assert abs(values.sum() - np.trace(m).real) <= 1e-8 * max(scale, 1.0)
        assert list(values) == sorted(values)
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12 * n
        for idx in range(n):
            residual = np.linalg.norm(m @ vectors[:, idx] - values[idx] * vectors[:, idx])
            assert residual <= 1e-8 * max(scale, 1.0)


def test_matches_lapack_reference():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 9, 16):
        m = random_hermitian(rng, n)
        np.testing.assert_allclose(
            hermitian_eigenvalues(m), np.linalg.eigvalsh(m), atol=1e-10
        )


def test_zero_matrix():
    np.testing.assert_array_equal(hermitian_eigenvalues(np.zeros((3, 3))), np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=18, max_size=18))
def test_eigensum_trace_property(xs):
    raw = np.array(xs[:9]).reshape(3, 3) + 1j * np.array(xs[9:]).reshape(3, 3)
    m = 0.5 * (raw + raw.conj().T)
    values = hermitian_eigenvalues(m)
    assert abs(values.sum() - np.trace(m).real) <= 1e-8 * max(np.linalg.norm(m), 1.0)


# ------------------------------------------------------------------ sym3

def test_sym3_diagonal_cases_exact():
    assert tuple(sym3_eig(np.eye(3))[0]) == (1.0, 1.0, 1.0)
    assert tuple(sym3_eig(np.diag([4.0, 1.0, 0.0]))[0]) == (4.0, 1.0, 0.0)


def test_sym3_rank_one():
    # all-ones matrix: rank one, trace 3, so spectrum (3, 0, 0)
    values = sym3_eig(np.ones((3, 3)))[0]
    np.testing.assert_allclose(values, (3.0, 0.0, 0.0), atol=1e-12)


def test_sym3_rejects_asymmetric():
    m = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        sym3_eig(m)


def test_sym3_gram_positivity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        r = rng.normal(size=(3, 3))
        values = sym3_eig(r.T @ r)[0]
        assert values[0] >= values[1] >= values[2] >= -1e-12


def test_sym3_eigenvectors():
    rng = np.random.default_rng(5)
    for _ in range(30):
        r = rng.normal(size=(3, 3))
        m = r.T @ r
        values, vectors = sym3_eig(m)
        assert values[0] >= values[1] >= values[2]
        assert np.max(np.abs(vectors.T @ vectors - np.eye(3))) <= 1e-12
        for idx in range(3):
            residual = np.linalg.norm(m @ vectors[:, idx] - values[idx] * vectors[:, idx])
            assert residual <= 1e-10 * max(np.linalg.norm(m), 1.0)
