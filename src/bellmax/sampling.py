"""Seeded random generators shared by the optimizer seeds, the
verification suites and the tests."""

from __future__ import annotations

import numpy as np

from .operators import BellSettings
from .states import DensityMatrix, SchmidtState


def unit3_stack(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform directions on the unit sphere, ``(count, 3)``, from one normal
    draw of ``count`` triples. A triple of norm at most 1e-6 is dropped and replaced by
    further draws, in stream order, so the rows and the generator's final state do not
    depend on how many rows are drawn per call."""
    v = rng.normal(size=(count, 3))
    norms = np.sqrt(np.vecdot(v, v))[:, None]
    kept = norms[:, 0] > 1e-6
    if kept.all():
        return v / norms
    return np.concatenate((v[kept] / norms[kept],
                           unit3_stack(rng, count - np.count_nonzero(kept))))


def unit3(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere: the one-row ``unit3_stack``."""
    return unit3_stack(rng, 1)[0]


def random_settings(rng: np.random.Generator, k: int = 1) -> BellSettings:
    return BellSettings(*unit3_stack(rng, 4), k=k)


def state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unit vector in C^dim."""
    while True:
        z = rng.normal(size=dim) + 1.0j * rng.normal(size=dim)
        norm = float(np.linalg.norm(z))
        if norm > 1e-6:
            return z / norm


def pure_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Haar-random bipartite pure state on an N x N system."""
    v = state_vector(rng, dim * dim)
    return DensityMatrix(dim, np.outer(v, v.conj()))


def mixed_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Random full-rank mixed state via a Wishart draw."""
    side = dim * dim
    gmat = rng.normal(size=(side, side)) + 1.0j * rng.normal(size=(side, side))
    rho = gmat @ gmat.conj().T
    rho /= float(np.trace(rho).real)
    return DensityMatrix(dim, rho)


def schmidt_state(rng: np.random.Generator, dim: int) -> SchmidtState:
    """Random real Schmidt coefficients (signs allowed), unit norm."""
    while True:
        c = rng.normal(size=dim)
        norm = float(np.linalg.norm(c))
        if norm > 1e-6:
            return SchmidtState(dim, tuple(c / norm))


def product_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Haar-random pure product state |u><u| (x) |v><v|."""
    u = state_vector(rng, dim)
    v = state_vector(rng, dim)
    w = np.kron(u, v)
    return DensityMatrix(dim, np.outer(w, w.conj()))
