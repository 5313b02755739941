"""Independent numerical maximisation over measurement settings.

The see-saw alternates exact maximisations of the four-term value over
one party's directions at a time. Each half-step maximises a linear form
over the unit sphere, so the objective never decreases and convergence
to a stationary point is guaranteed. Restart 0 starts from the settings
that attain the closed-form value, which means the oracle can only
disagree with the closed form if the closed form itself is wrong; the
remaining restarts probe for anything the closed form might have missed.
A problem is one (state, k, config), and every (problem, restart) pair
is one row of a single array ascent (``_climb``). A call runs one
problem, ``violation.best_k`` runs every k of a state in one batch, and
each closed-vs-see-saw check of ``verify`` runs one per slice of its cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigenvalues
from .operators import BellSettings, GammaSet, bell_operator, make_gamma_set
from .sampling import unit3
from .states import QuantumState, as_density
# correlation_data is unused here; kept because the traced bench wraps it (ROADMAP direction 1).
from .violation import (_AXIS_FALLBACKS, CorrelationData, _correlation_row, _spectra, _sum3,
                        _unit, correlation_data, optimal_settings)  # noqa: F401

#: Rows (problem, restart) per chunk of the ascent: a huge ``restarts`` runs in bounded memory.
_CHUNK_ROWS = 1024


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


def _targets(cols: np.ndarray, shift, other: np.ndarray) -> np.ndarray:
    """``(M (o1 + o2) + shift, M (o1 - o2))`` for the other party's pair ``(o1, o2)``, with
    components on the leading axis and rows on the last: ``cols[c, i, 0] = M[i, c]``."""
    target = _sum3(cols * (other[:, :1] + [[1.0], [-1.0]] * other[:, 1:])[:, None])
    target[:, 0] += shift
    return target


def _value(b_targets: np.ndarray, a: np.ndarray, b: np.ndarray, g2, p2) -> np.ndarray:
    """``a1.R(b1+b2) + a2.R(b1-b2) + 2 a1.g + 2 b1.h + 2p``, as ``b1.t1 + b2.t2 + 2 a1.g
    + 2p`` with the b-step targets ``(t1, t2) = (R^T(a1+a2) + 2h, R^T(a1-a2))``."""
    dots = _sum3(b * b_targets)
    return dots[0] + dots[1] + _sum3(a[:, 0] * g2) + p2


def bell_value_from_correlations(corr: CorrelationData, settings: BellSettings) -> float:
    """Same expectation from the 3x3 correlation data (``_value``); it
    agrees with the direct trace to rounding, which the test suite asserts."""
    v = np.array([settings.a1, settings.a2, settings.b1, settings.b2]).T[..., None]
    b_targets = _targets(corr.r[..., None, None], 2.0 * corr.h[:, None], v[:, :2])
    return float(_value(b_targets, v[:, :2], v[:, 2:], 2.0 * corr.g[:, None], 2.0 * corr.p)[0])


def _climb(cols, cols_t, g2, h2, p2, starts: np.ndarray, cfg: SeesawConfig):
    """See-saw each row of ``starts = (a1, a2, b1, b2)``, ``(3, 4, n)``, against its ``R``
    (``cols[c, i, 0] = R[i, c]``, ``cols_t`` for ``R^T``), ``2g``, ``2h`` ``(3, n)``, ``2p``
    ``(n,)``: a target of norm < 1e-300 keeps the old vector, a row stops once an iteration
    moves its value by at most ``cfg.tol``. Per row: value, iterations, converged, vectors."""
    a, b = starts[:, :2], starts[:, 2:]
    value = _value(_targets(cols_t, h2, a), a, b, g2, p2)
    used, running = np.zeros(value.shape, int), np.ones(value.shape, bool)
    for _ in range(cfg.max_iters):
        a = np.where(running, _unit(_targets(cols, g2, b), a, 1e-300), a)
        b_targets = _targets(cols_t, h2, a)
        b = np.where(running, _unit(b_targets, b, 1e-300), b)
        updated = _value(b_targets, a, b, g2, p2)  # a frozen row keeps its bits
        used += running
        running &= ~(np.abs(updated - value) <= cfg.tol)
        value = updated
        if not np.count_nonzero(running):
            break
    return value, used, ~running, np.concatenate((a, b), 1)


def _seesaw_batch(problems, constrain_y: bool = False) -> list[OracleResult]:
    """``seesaw_maximize`` for every ``(state, k, cfg)`` in ``problems``, whose configs may
    differ only in ``seed``: one ``_spectra`` call for every problem, then one ascent of
    every (problem, restart) row, in restart chunks of at most ``_CHUNK_ROWS`` rows."""
    cfgs = [cfg if cfg is not None else SeesawConfig() for _, _, cfg in problems]
    cfg = cfgs[0]
    if len({(c.restarts, c.max_iters, c.tol) for c in cfgs}) > 1:
        raise ValueError("the configs of one see-saw batch may differ only in seed")
    t, *spectra = _spectra(problems)
    corrs = [_correlation_row(k, *row) for (_, k, _), *row in zip(problems, t, *spectra)]
    warm = np.array([[s.a1, s.a2, s.b1, s.b2] for s in map(optimal_settings, corrs)])
    r, g, h = (np.array(block) for block in (t[:, :3, :3], t[:, :3, 3], t[:, 3, :3]))
    if constrain_y:  # after the warm start
        r[:, 1, :] = r[:, :, 1] = g[:, 1] = h[:, 1] = 0.0
    stacks = r.T[:, :, None], r.T.swapaxes(0, 1)[:, :, None], 2.0 * g.T, 2.0 * h.T, 2.0 * t[:, 3, 3]
    seeds = list(dict.fromkeys(c.seed for c in cfgs))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    which = [seeds.index(c.seed) for c in cfgs]
    step = max(1, _CHUNK_ROWS // len(problems))
    records = [[] for _ in problems]  # runs that beat all earlier runs, within cfg.tol of the best
    for first in range(0, cfg.restarts, step):
        # Problems with one seed share their starts, drawn in restart order just before their chunk.
        count, warm_slots = min(step, cfg.restarts - first), int(first == 0)
        drawn = [[unit3(rng) for _ in range(4 * (count - warm_slots))] for rng in rngs]
        starts = np.empty((3, 4, len(problems), count))
        starts[..., :warm_slots] = warm.T[..., None]
        starts[..., warm_slots:] = np.reshape(
            drawn, (len(rngs), count - warm_slots, 4, 3))[which].transpose(3, 2, 0, 1)
        if constrain_y:
            starts[1] = 0.0
            starts = _unit(starts, _AXIS_FALLBACKS.T[..., None, None])
        rows = np.repeat(np.arange(len(problems)), count)  # problem-major, as starts
        runs = _climb(*(x[..., rows] for x in stacks), starts.reshape(3, 4, -1), cfg)
        for row, run in zip(rows, zip(*(x.tolist() for x in runs[:3]), runs[3].T)):
            if not records[row] or run[0] > records[row][-1][0]:
                records[row] = [old for old in records[row] if old[0] >= run[0] - cfg.tol] + [run]
    return [OracleResult(value, BellSettings(*vectors, k=k), iterations, cfg.restarts, converged)
            for (_, k, _), ((value, iterations, converged, vectors), *_) in zip(problems, records)]


def seesaw_maximize(state: QuantumState, k: int, cfg: SeesawConfig | None = None,
                    constrain_y: bool = False) -> OracleResult:
    """Maximise the four-term value over settings for a fixed state.

    Exact coordinate updates: ``a1 <- unit(R(b1+b2) + 2g)``, ``a2 <- unit(R(b1-b2))``,
    then ``b1 <- unit(R^T(a1+a2) + 2h)``, ``b2 <- unit(R^T(a1-a2))``, until the objective
    change drops below ``cfg.tol``. With ``constrain_y`` the y parts of ``R``, ``g`` and
    ``h`` are zeroed once the warm start is taken, and the starts are projected, so every
    update stays in the x-z plane. Identical seed and config give bit-identical results.
    This is the one-problem case of ``_seesaw_batch``: every restart is a row of one array
    ascent, and the lowest restart whose value is within ``cfg.tol`` of the best is reported.
    """
    return _seesaw_batch([(state, k, cfg)], constrain_y)[0]


def spectral_max(gamma: GammaSet, settings: BellSettings) -> float:
    """Largest eigenvalue of the Bell operator at the given settings.

    Upper-bounds ``bell_value`` over all states sharing those settings.
    """
    return float(hermitian_eigenvalues(bell_operator(gamma, settings))[-1])
