"""Block-Pauli observables and the four-term Bell operator.

For even dimension the three generators are block-diagonal stacks of the
ordinary Pauli matrices. For odd dimension one basis index ``k``
(1-based) is cut out of every generator (its row and column are zero),
the remaining indices are paired in ascending order, and a rank-one
projector onto index ``k`` fills the gap so that every measurement
operator still squares to the identity. All constructors are pure and
return read-only arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg

UNIT_NORM_ATOL = 1e-12


class UnitVectorError(ValueError):
    """A measurement direction is not normalized."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GammaSet:
    """The generator triple and corner projector for one ``(dim, k)``."""

    dim: int
    k: int
    gx: np.ndarray
    gy: np.ndarray
    gz: np.ndarray
    pi: np.ndarray


#: ``_SLOTS[m, s]`` is what generator ``m`` (x, y, z, pi) puts at slot ``s``
#: of an index pair ``(p, q)``: slots 0-3 are ``(p, p), (p, q), (q, p), (q, q)``
#: of the Pauli blocks, slot 4 is the cut ``(k-1, k-1)``, which only ``pi`` fills.
_SLOTS = np.array([[0, 1, 1, 0, 0], [0, -1j, 1j, 0, 0], [1, 0, 0, -1, 0], [0, 0, 0, 0, 1]])


@functools.lru_cache(maxsize=16)
def _layout(dim: int) -> tuple[np.ndarray, ...]:
    """What ``_entries`` shares across k, read-only: ``arange(dim)``, where entry e's row and
    column sit in the index order (pair e // 4, slot e % 4; for odd dim the last entry is the
    cut, slot 4), the coefficients ``C = _SLOTS[:, slots]`` and their products ``C_m C_n``."""
    e = np.arange(2 * dim - dim % 2)
    slots = e % 4
    slots[-1] += 4 * (dim % 2)
    products = (_SLOTS[:, None] * _SLOTS).reshape(16, -1)
    return tuple(map(_frozen, (np.arange(dim), e // 2, e // 4 * 2 + e % 2,
                               _SLOTS.take(slots, axis=1), products.take(slots, axis=1))))


def _entries(dim: int, ks) -> tuple[np.ndarray, ...]:
    """The nonzero entries ``O_m[rows[i, e], cols[i, e]] = C[m, e]`` of ``O = (gx, gy, gz,
    pi)`` at ``k = ks[i]``: four per ascending index pair, then, for odd ``dim``, the cut of
    ``pi``. Returns ``rows``, ``cols``, ``(K, L)``, and the k-free ``C``, ``(4, L)``, and
    ``C_m C_n``, ``(16, L)``, which ``make_gamma_set`` and ``violation._moments`` use."""
    if not 1 <= min(ks) <= max(ks) <= dim:
        bad = next(k for k in ks if not 1 <= k <= dim)
        raise ValueError(f"k must be in 1..{dim}, got {bad}")
    # Row i lists the paired indices for ks[i] in ascending order, then the cut.
    order, first, second, c, products = _layout(dim)
    if dim % 2:
        cut = np.array(ks)[:, None] - 1
        order = order + (order >= cut)
        order[:, -1:] = cut
    else:
        order = order[None].repeat(len(ks), axis=0)
    return order.take(first, axis=1), order.take(second, axis=1), c, products


def _gamma_stack(dim: int, ks) -> np.ndarray:
    """``make_gamma_set``'s ``(gx, gy, gz, pi)`` for every k of ``ks``, ``(4, K, dim, dim)``."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if dim * dim > linalg.MAX_TENSOR_DIM:
        raise ValueError(
            f"N={dim} gives {dim * dim}x{dim * dim} Bell operators, "
            f"cap is {linalg.MAX_TENSOR_DIM}"
        )
    rows, cols, c, _ = _entries(dim, ks)  # checks k
    ops = np.zeros((4, len(rows), dim, dim), dtype=complex)
    ops[:, np.arange(len(rows))[:, None], rows, cols] = c[:, None]
    return ops


def make_gamma_set(dim: int, k: int = 1) -> GammaSet:
    """Build the block-Pauli triple and corner projector for ``(dim, k)``.

    ``k`` is 1-based. For even ``dim`` it is accepted but inert (the
    projector is the zero matrix). For odd ``dim`` the surviving indices
    are paired consecutively in ascending order, e.g. dim 5 with k=3
    pairs (1,2) and (4,5). Raises ``ValueError`` before allocating when
    the two-party dimension ``dim^2`` exceeds ``linalg.MAX_TENSOR_DIM``.
    """
    gx, gy, gz, pi = _gamma_stack(dim, [k])[:, 0]
    return GammaSet(dim=dim, k=k, gx=_frozen(gx), gy=_frozen(gy),
                    gz=_frozen(gz), pi=_frozen(pi))


def _unit_vector(vec, name: str) -> np.ndarray:
    """A contiguous float copy of the 3-vector ``vec``, checked to have unit norm."""
    v = np.array(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    norm = math.sqrt(v.dot(v))  # what np.linalg.norm computes for a 1-D float vector
    if abs(norm - 1.0) > UNIT_NORM_ATOL:
        raise UnitVectorError(f"{name} must be a unit vector, got norm {norm!r}")
    return v


def _observables(ops, d):
    """``d_x gx + d_y gy + d_z gz + pi`` for ``ops = (gx, gy, gz, pi)``, ``d = (d_x, d_y, d_z)``."""
    return d[0] * ops[0] + d[1] * ops[1] + d[2] * ops[2] + ops[3]


def observable(gamma: GammaSet, direction) -> np.ndarray:
    """Dichotomic observable for a unit direction vector.

    Returns the Hermitian matrix ``d_x gx + d_y gy + d_z gz + pi``, whose
    spectrum is contained in {-1, +1}.
    """
    d = _unit_vector(direction, "measurement direction")
    return _observables((gamma.gx, gamma.gy, gamma.gz, gamma.pi), d)


@dataclass(frozen=True)
class BellSettings:
    """Two measurement directions per party plus the shared index ``k``."""

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    k: int = 1

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            v = _unit_vector(getattr(self, name), name)
            object.__setattr__(self, name, _frozen(v))
        if self.k < 1:
            raise ValueError(f"k must be a positive index, got {self.k}")


def _bell_operators(ops: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """The four-term operators, ``(K, n^2, n^2)``, for ``ops = _gamma_stack(n, ks)`` and the
    directions ``(a1, a2, b1, b2)`` ``(K, 4, 3)``; a row gets the bits of ``bell_operator``."""
    obs = _observables(ops[:, None], directions.T[..., None, None])  # (4, K, n, n)
    (a1, a2), (b1, b2) = obs[:2, :, :, None, :, None], obs[2:, :, None, :, None]
    n = ops.shape[-1]

    def kron(a, b):  # np.kron: party A on the coarse index
        return (a * b).reshape(len(a), n * n, n * n)

    return kron(a1, b1) + kron(a1, b2) + kron(a2, b1) - kron(a2, b2)


def bell_operator(gamma: GammaSet, settings: BellSettings) -> np.ndarray:
    """Four-term CHSH-style operator ``A1 B1 + A1 B2 + A2 B1 - A2 B2``.

    Each product is a tensor product with party A on the coarse index.
    The result is a Hermitian ``dim^2 x dim^2`` matrix.
    """
    if gamma.dim % 2 == 1 and settings.k != gamma.k:
        raise ValueError(
            f"settings use k={settings.k} but the operators were built with k={gamma.k}"
        )
    return _bell_operators(np.stack((gamma.gx, gamma.gy, gamma.gz, gamma.pi))[:, None],
                           np.stack((settings.a1, settings.a2, settings.b1, settings.b2))[None])[0]
