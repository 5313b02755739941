"""Quantum state containers and JSON ingestion.

Three interchangeable descriptions of a bipartite state on an N x N
system: a real Schmidt coefficient list, a dense density matrix, and the
one-parameter isotropic noise family. Loading from JSON enforces every
structural invariant up front; each failure mode carries a distinct
error code so callers can react programmatically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import linalg

SCHMIDT_NORM_ATOL = 1e-10
DENSITY_HERMITIAN_ATOL = 1e-9
DENSITY_TRACE_ATOL = 1e-9
DENSITY_PSD_FLOOR = -1e-9


class StateValidationError(ValueError):
    """Base class for state construction and ingestion failures."""

    code = "invalid"


class SchemaError(StateValidationError):
    code = "schema"


class DomainError(StateValidationError):
    code = "domain"


class NormalizationError(StateValidationError):
    code = "normalization"


class HermiticityError(StateValidationError):
    code = "not-hermitian"


class PositivityError(StateValidationError):
    code = "not-psd"


@dataclass(frozen=True)
class SchmidtState:
    """Pure state with real coefficients on the diagonal basis |ii>."""

    dim: int
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError(f"dimension must be at least 2, got {self.dim}")
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) != self.dim:
            raise SchemaError(
                f"expected {self.dim} coefficients, got {len(coeffs)}"
            )
        if not all(math.isfinite(c) for c in coeffs):
            raise SchemaError("coefficients must be finite real numbers")
        norm_sq = sum(c * c for c in coeffs)
        if abs(norm_sq - 1.0) > SCHMIDT_NORM_ATOL:
            raise NormalizationError(
                f"squared coefficients must sum to 1, got {norm_sq!r}"
            )
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class IsotropicState:
    """Maximally entangled state mixed with white noise of weight ``x``."""

    dim: int
    x: float

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError(f"dimension must be at least 2, got {self.dim}")
        x = float(self.x)
        if not math.isfinite(x) or not 0.0 <= x <= 1.0:
            raise DomainError(f"noise weight must lie in [0, 1], got {x!r}")
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class DensityMatrix:
    """Dense bipartite density matrix; ``rho`` has shape (dim^2, dim^2).

    Construction checks shape, Hermiticity and unit trace. Positivity is
    verified at the JSON boundary (see ``load_state``); states built by
    the in-package constructors are positive by construction.
    """

    dim: int
    rho: np.ndarray

    def __post_init__(self):
        if self.dim < 2:
            raise DomainError(f"dimension must be at least 2, got {self.dim}")
        rho = np.asarray(self.rho, dtype=complex)
        n2 = self.dim * self.dim
        if rho.shape != (n2, n2):
            raise SchemaError(
                f"density matrix must have shape ({n2}, {n2}), got {rho.shape}"
            )
        if not np.isfinite(rho).all():
            raise SchemaError("density matrix contains non-finite entries")
        asym = float(np.max(np.abs(rho - rho.conj().T)))
        if asym > DENSITY_HERMITIAN_ATOL:
            raise HermiticityError(
                f"density matrix is not Hermitian: max asymmetry {asym:.3e}"
            )
        trace = complex(np.trace(rho))
        if abs(trace - 1.0) > DENSITY_TRACE_ATOL:
            raise NormalizationError(
                f"density matrix must have unit trace, got {trace.real!r}"
            )
        arr = rho.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "rho", arr)

    def assert_positive(self) -> None:
        """Reject states whose minimum eigenvalue falls below the floor.
        Construction has checked shape, finiteness and Hermiticity."""
        low = float(np.linalg.eigvalsh(0.5 * self.rho + 0.5 * self.rho.conj().T)[0])
        if low < DENSITY_PSD_FLOOR:
            raise PositivityError(
                f"density matrix is not positive semidefinite: "
                f"minimum eigenvalue {low:.3e}"
            )


QuantumState = SchmidtState | DensityMatrix | IsotropicState


def schmidt_to_density(state: SchmidtState) -> DensityMatrix:
    """Rank-one projector onto the Schmidt state; |ij> is entry i*N + j."""
    n = state.dim
    vec = np.zeros(n * n, dtype=complex)
    vec[:: n + 1] = state.coeffs  # the entries |ii>
    return DensityMatrix(n, np.outer(vec, vec.conj()))


def isotropic_to_density(state: IsotropicState) -> DensityMatrix:
    """Convex mix ``(x / N^2) I + (1 - x) |psi+><psi+|``."""
    n = state.dim
    plus = np.zeros(n * n, dtype=complex)
    plus[:: n + 1] = 1.0 / math.sqrt(n)
    rho = (state.x / (n * n)) * np.eye(n * n, dtype=complex)
    rho += (1.0 - state.x) * np.outer(plus, plus.conj())
    return DensityMatrix(n, rho)


def as_density(state: QuantumState) -> DensityMatrix:
    """Convert any state description to its density matrix.

    Raises ``DomainError``, before allocating anything, when the
    ``N^2 x N^2`` matrix would exceed ``linalg.MAX_TENSOR_DIM`` rows.
    """
    if isinstance(state, DensityMatrix):
        return state
    if not isinstance(state, (SchmidtState, IsotropicState)):
        raise TypeError(f"not a quantum state: {type(state).__name__}")
    size = state.dim * state.dim
    if size > linalg.MAX_TENSOR_DIM:
        raise DomainError(
            f"N={state.dim} needs a {size}x{size} density matrix, "
            f"cap is {linalg.MAX_TENSOR_DIM}"
        )
    if isinstance(state, IsotropicState):
        return isotropic_to_density(state)
    return schmidt_to_density(state)


def partial_trace(state: DensityMatrix, keep: str = "a") -> np.ndarray:
    """Reduced N x N state of one party (``keep`` is "a" or "b")."""
    n = state.dim
    four = state.rho.reshape(n, n, n, n)
    if keep == "a":
        return np.einsum("ikjk->ij", four)
    if keep == "b":
        return np.einsum("ikil->kl", four)
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")


_ALLOWED_FIELDS = {
    "schmidt": {"type", "N", "coeffs"},
    "density": {"type", "N", "re", "im"},
    "isotropic": {"type", "N", "x"},
}


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(f"{where} must be finite")
    return out


def _number_grid(raw: dict, field: str, size: int) -> np.ndarray:
    rows = raw.get(field)
    if not isinstance(rows, list) or len(rows) != size:
        raise SchemaError(f"field {field!r} must be a {size}x{size} array")
    # Fast path for rows of plain floats; the loop below names any bad entry.
    if all(type(row) is list and len(row) == size and set(map(type, row)) == {float}
           for row in rows):
        grid = np.array(rows, dtype=float)
        if np.isfinite(grid).all():
            return grid
    grid = np.empty((size, size), dtype=float)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != size:
            raise SchemaError(f"field {field!r} row {i} must have {size} entries")
        for j, entry in enumerate(row):
            grid[i, j] = _require_number(entry, f"{field}[{i}][{j}]")
    return grid


def load_state(document: str) -> QuantumState:
    """Parse and validate a state description from JSON text.

    Accepted shapes (unknown fields are rejected):

    * ``{"type": "schmidt", "N": int, "coeffs": [float, ...]}``
    * ``{"type": "density", "N": int, "re": [[...]], "im": [[...]]}``
      with ``N^2 x N^2`` nested arrays
    * ``{"type": "isotropic", "N": int, "x": float}``
    """
    try:
        raw = json.loads(document)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("state document must be a JSON object")
    kind = raw.get("type")
    if not isinstance(kind, str) or kind not in _ALLOWED_FIELDS:
        raise SchemaError(
            f"field 'type' must be one of {sorted(_ALLOWED_FIELDS)}, got {kind!r}"
        )
    allowed = _ALLOWED_FIELDS[kind]
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise SchemaError(f"unknown fields for type {kind!r}: {unknown}")
    missing = sorted(allowed - set(raw))
    if missing:
        raise SchemaError(f"missing fields for type {kind!r}: {missing}")
    dim = raw["N"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise SchemaError("field 'N' must be an integer")
    if dim < 2:
        raise DomainError(f"field 'N' must be at least 2, got {dim}")

    if kind == "schmidt":
        coeffs = raw["coeffs"]
        if not isinstance(coeffs, list):
            raise SchemaError("field 'coeffs' must be an array of numbers")
        values = tuple(
            _require_number(c, f"coeffs[{i}]") for i, c in enumerate(coeffs)
        )
        return SchmidtState(dim, values)

    if kind == "isotropic":
        return IsotropicState(dim, _require_number(raw["x"], "x"))

    size = dim * dim
    re = _number_grid(raw, "re", size)
    im = _number_grid(raw, "im", size)
    state = DensityMatrix(dim, re + 1.0j * im)
    state.assert_positive()
    return state
