"""Small dense complex linear algebra toolkit.

Matrices are plain numpy ``complex128`` arrays in row-major layout.
Eigenproblems go to LAPACK through ``numpy.linalg.eigh``/``eigvalsh``;
the wrappers here add the input checks (square, finite, Hermitian within
a tolerance) and fix the ordering of the results. Every function here
is pure and safe to call from multiple threads.
"""

from __future__ import annotations

import numpy as np

#: Result dimension cap for Kronecker products.
MAX_TENSOR_DIM = 4096

#: Elementwise tolerance for accepting a matrix as Hermitian.
HERMITIAN_ATOL = 1e-10

#: Elementwise tolerance for accepting a 3x3 matrix as symmetric.
SYM3_ATOL = 1e-12


class TensorSizeError(ValueError):
    """Kronecker product would exceed the configured dimension cap."""


class NonHermitianError(ValueError):
    """Input matrix fails the Hermitian symmetry test."""


def _as_matrix(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got {a.ndim} axes")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def tensor(a, b) -> np.ndarray:
    """Kronecker product ``a (x) b``, at most ``MAX_TENSOR_DIM`` on a side.

    The first factor sits on the coarse index:
    ``tensor(a, b)[i*p + k, j*q + l] == a[i, j] * b[k, l]`` for ``b`` of
    shape ``(p, q)``.
    """
    am = _as_matrix(a, "a")
    bm = _as_matrix(b, "b")
    rows = am.shape[0] * bm.shape[0]
    cols = am.shape[1] * bm.shape[1]
    if rows > MAX_TENSOR_DIM or cols > MAX_TENSOR_DIM:
        raise TensorSizeError(
            f"tensor result would be {rows}x{cols}, cap is {MAX_TENSOR_DIM}"
        )
    return np.kron(am, bm)


def _hermitian(m, atol: float) -> np.ndarray:
    """Validated square, finite, Hermitian input, symmetrised exactly."""
    a = _as_matrix(m, "matrix")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    asym = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if asym > atol:
        raise NonHermitianError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds {atol:.1e}"
        )
    return 0.5 * a + 0.5 * a.conj().T  # halve first: the sum may overflow


def hermitian_eig(m):
    """Eigen-decomposition of a Hermitian matrix.

    Returns ``(values, vectors)`` with real eigenvalues in ascending order
    and the matching orthonormal eigenvectors as columns of a unitary.
    """
    return np.linalg.eigh(_hermitian(m, HERMITIAN_ATOL))


def hermitian_eigenvalues(m, *, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix."""
    return np.linalg.eigvalsh(_hermitian(m, atol))


def sym3_eig(m):
    """Eigen-decomposition of a real symmetric 3x3 matrix.

    Returns ``(values, vectors)`` with eigenvalues in descending order and
    real orthonormal eigenvectors as columns. Exact for diagonal input.
    """
    a = np.asarray(m, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYM3_ATOL:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e}")
    values, vectors = np.linalg.eigh(0.5 * (a + a.T))
    return values[::-1], vectors[:, ::-1]

