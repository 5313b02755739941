"""Independent numerical maximisation over measurement settings.

The see-saw alternates exact maximisations of the four-term value over
one party's directions at a time. Each half-step maximises a linear form
over the unit sphere, so the objective never decreases and convergence
to a stationary point is guaranteed. Restart 0 starts from the settings
that attain the closed-form value, which means the oracle can only
disagree with the closed form if the closed form itself is wrong; the
remaining restarts probe for anything the closed form might have missed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import hermitian_eigenvalues
from .operators import BellSettings, GammaSet, bell_operator, make_gamma_set
from .sampling import unit3
from .states import QuantumState, as_density
from .violation import CorrelationData, correlation_data, optimal_settings

_AXIS_FALLBACKS = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])) * 2  # a1 a2 b1 b2


@dataclass(frozen=True)
class SeesawConfig:
    restarts: int = 32
    max_iters: int = 1000
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


@dataclass(frozen=True)
class OracleResult:
    value: float
    settings: BellSettings
    iterations_used: int
    restarts_used: int
    converged: bool


def bell_value(state: QuantumState, settings: BellSettings) -> float:
    """Expectation ``Tr[rho B]`` of the four-term operator, by direct trace."""
    rho = as_density(state)
    gamma = make_gamma_set(rho.dim, settings.k)
    operator = bell_operator(gamma, settings)
    return float(complex(np.einsum("rc,cr->", rho.rho, operator)).real)


def _value(corr: CorrelationData, a1, a2, b1, b2) -> float:
    """``a1.R(b1+b2) + a2.R(b1-b2) + 2 a1.g + 2 b1.h + 2p``."""
    r = corr.r
    return float(a1 @ (r @ (b1 + b2)) + a2 @ (r @ (b1 - b2))
                 + 2.0 * (a1 @ corr.g) + 2.0 * (b1 @ corr.h) + 2.0 * corr.p)


def bell_value_from_correlations(corr: CorrelationData, settings: BellSettings) -> float:
    """Same expectation from the 3x3 correlation data (``_value``); it
    agrees with the direct trace to rounding, which the test suite asserts."""
    return _value(corr, settings.a1, settings.a2, settings.b1, settings.b2)


def _project_start(vectors):
    out = []
    for slot, v in enumerate(vectors):
        v = np.array(v, dtype=float)
        v[1] = 0.0
        norm = float(np.linalg.norm(v))
        out.append(_AXIS_FALLBACKS[slot].copy() if norm < 1e-12 else v / norm)
    return tuple(out)


def _step(target: np.ndarray, previous: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(target))
    if norm < 1e-300:
        # Degenerate update (e.g. rank-deficient R): keep the old direction.
        return previous
    return target / norm


def _ascend(corr: CorrelationData, start, cfg: SeesawConfig):
    """One see-saw run; returns (value, vectors, iterations, converged).
    ``_step`` never writes to a vector, so the start needs no copy."""
    r = corr.r
    rt = r.T
    g2 = 2.0 * corr.g
    h2 = 2.0 * corr.h
    a1, a2, b1, b2 = start
    current = _value(corr, a1, a2, b1, b2)
    for iterations in range(1, cfg.max_iters + 1):
        a1 = _step(r @ (b1 + b2) + g2, a1)
        a2 = _step(r @ (b1 - b2), a2)
        b1 = _step(rt @ (a1 + a2) + h2, b1)
        b2 = _step(rt @ (a1 - a2), b2)
        updated = _value(corr, a1, a2, b1, b2)
        if abs(updated - current) <= cfg.tol:
            return updated, (a1, a2, b1, b2), iterations, True
        current = updated
    return current, (a1, a2, b1, b2), cfg.max_iters, False


def seesaw_maximize(
    state: QuantumState,
    k: int,
    cfg: SeesawConfig | None = None,
    constrain_y: bool = False,
) -> OracleResult:
    """Maximise the four-term value over settings for a fixed state.

    Exact coordinate updates: ``a1 <- unit(R(b1+b2) + 2g)``,
    ``a2 <- unit(R(b1-b2))``, then ``b1 <- unit(R^T(a1+a2) + 2h)``,
    ``b2 <- unit(R^T(a1-a2))``, until the objective change drops below
    ``cfg.tol``. With ``constrain_y`` the y parts of ``R``, ``g`` and ``h``
    are zeroed once the warm start is taken, and the starts are projected,
    so every update stays in the x-z plane. Identical seed and config
    give bit-identical results; restarts are independent and the best one
    wins, ties going to the lowest restart index.
    """
    cfg = cfg if cfg is not None else SeesawConfig()
    corr = correlation_data(state, k)
    rng = np.random.default_rng(cfg.seed)

    warm = optimal_settings(corr)
    if constrain_y:
        r, g, h = corr.r.copy(), corr.g.copy(), corr.h.copy()
        r[1, :] = r[:, 1] = g[1] = h[1] = 0.0
        corr = replace(corr, r=r, g=g, h=h)  # tau1, tau2, vectors go unread
    best = None
    for restart in range(cfg.restarts):
        # _ascend draws nothing, so drawing each start here keeps the order.
        vectors = ((warm.a1, warm.a2, warm.b1, warm.b2) if restart == 0
                   else tuple(unit3(rng) for _ in range(4)))
        run = _ascend(corr, _project_start(vectors) if constrain_y else vectors, cfg)
        if best is None or run[0] > best[0]:
            best = run
    value, (a1, a2, b1, b2), iterations, converged = best
    return OracleResult(value=value, settings=BellSettings(a1, a2, b1, b2, k=k),
                        iterations_used=iterations, restarts_used=cfg.restarts,
                        converged=converged)


def spectral_max(gamma: GammaSet, settings: BellSettings) -> float:
    """Largest eigenvalue of the Bell operator at the given settings.

    Upper-bounds ``bell_value`` over all states sharing those settings.
    """
    return float(hermitian_eigenvalues(bell_operator(gamma, settings))[-1])
