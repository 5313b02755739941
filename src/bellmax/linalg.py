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


def _as_matrix(m, name: str, stack: bool = False) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 and not (stack and a.ndim > 2):
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


def _hermitian(m) -> np.ndarray:
    """Validated square, finite, Hermitian input or stack ``(..., n, n)``, symmetrised exactly."""
    a = _as_matrix(m, "matrix", stack=True)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    ah = a.conj().swapaxes(-1, -2)
    asym = float(np.max(np.abs(a - ah))) if a.size else 0.0
    if asym > HERMITIAN_ATOL:
        raise NonHermitianError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds {HERMITIAN_ATOL:.1e}"
        )
    return 0.5 * a + 0.5 * ah  # halve first: the sum may overflow


def hermitian_eig(m):
    """Eigen-decomposition of a Hermitian matrix, or of each of a stack.

    Returns ``(values, vectors)`` with real eigenvalues in ascending order
    and the matching orthonormal eigenvectors as columns of a unitary.
    """
    return np.linalg.eigh(_hermitian(m))


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix, or of each of a stack ``(..., n, n)``."""
    return np.linalg.eigvalsh(_hermitian(m))


def sym3_eig(m):
    """Eigen-decomposition of real symmetric 3x3 matrices, shape ``(..., 3, 3)``.

    Returns ``(values, vectors)``: each matrix's eigenvalues in descending
    order and its real orthonormal eigenvectors as columns, from one ``eigh``
    call that gives each matrix the bits it gets alone. Exact for diagonal
    input; one asymmetric matrix fails the whole stack."""
    a = np.asarray(m, dtype=float)
    if a.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    at = a.swapaxes(-1, -2)
    asym = float(np.abs(a - at).max()) if a.size else 0.0
    if asym > SYM3_ATOL:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e}")
    values, vectors = np.linalg.eigh(0.5 * (a + at))
    return values[..., ::-1], vectors[..., ::-1]
