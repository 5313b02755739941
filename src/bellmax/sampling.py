"""Seeded random generators shared by the optimizer seeds, the
verification suites and the tests."""

from __future__ import annotations

import numpy as np

from .operators import BellSettings
from .states import DensityMatrix, SchmidtState


def unit3(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere."""
    while True:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return v / norm


def random_settings(rng: np.random.Generator, k: int = 1) -> BellSettings:
    return BellSettings(unit3(rng), unit3(rng), unit3(rng), unit3(rng), k=k)


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
