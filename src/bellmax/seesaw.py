"""Independent numerical maximisation over measurement settings.

The oracle never sees the closed form: every restart starts from random
directions. Each row first runs see-saw iterations, exact maximisations
of the four-term value over one party's directions at a time, so its value
never decreases. The see-saw converges like a power iteration, slowly where
the singular values of R nearly coincide, so after ``_SEESAW_ITERS``
iterations every row goes on to safeguarded Riemannian Newton steps on
``F(b1, b2)``, the value with both ``a`` directions at their best. A row
that the see-saw already stopped at a stationary point keeps its see-saw
result; every other row is stepped until the Newton step would gain at most
``tol``. Every row tries the full Newton step; only the rows where it does not
raise the value try shorter steps and see-saw steps. A problem is one (state,
k, config), and every (problem, restart) pair is one row of a single array
ascent (``_climb``), whose random starts each problem draws from its own generator
in one call per chunk (``sampling.unit3_stack``). A call runs one problem,
``violation.best_k`` runs the k of a state with the largest upper bound, then in
one batch every other k whose bound reaches its value, and ``verify`` one per slice
of the chained cases of its closed-vs-see-saw checks, with ``constrain_y`` per problem.

A row sees its state only through its moments ``T`` ``(4, 4)`` of ``violation._moments``:
``T[:3, :3] = R``, ``T[:3, 3] = g``, ``T[3, :3] = h``, ``T[3, 3] = p``. The caller that first
needs them computes them once per problem set and hands them on, in the ``(rows, 4, 4)``
layout of ``_moments``. ``_Stack.cut`` cuts them once per ascent into a ``_Stack`` ``s``:
``_targets(s, a)`` gives the b-step targets, ``_targets(s, b, 1)`` the a-step targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigenvalues
from .operators import BellSettings, GammaSet, bell_operator, make_gamma_set
from .sampling import unit3_stack
from .states import QuantumState, as_density
# correlation_data and optimal_settings are unused here; kept because the traced bench wraps them.
from .violation import (_AXIS_FALLBACKS, CorrelationData, _moments, _sum3, _unit,
                        correlation_data, optimal_settings)  # noqa: F401

#: Rows (problem, restart) per chunk of the ascent: a huge ``restarts`` runs in bounded memory.
_CHUNK_ROWS = 1024

#: See-saw iterations a row runs at most before the Newton stage of ``_climb``.
_SEESAW_ITERS = 30

#: Lengths at which a Newton step is tried, the full step first (``_line_search``).
_SCALES = 0.5 ** np.arange(4)

#: Added to the Newton shift, so that the shifted Hessian is never singular.
_SHIFT_FLOOR = 1e-12

#: Floor on |u| and |v| in the Newton quantities, which divide by them.
_NORM_FLOOR = 1e-150

#: Signs of ``v``'s derivative along the four tangents.
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
#: Signs of the two halves of the Hessian: ``W^T P_u W`` and ``s W^T P_v W s``.
_HALF_SIGNS = np.stack((np.ones((4, 4)), _SIGNS * _SIGNS.T))[..., None]


@dataclass(frozen=True)
class SeesawConfig:
    restarts: int = 32
    max_iters: int = 1000
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if not 1 <= self.max_iters <= np.iinfo(np.int64).max:
            raise ValueError(f"max_iters must be in 1..2**63-1, got {self.max_iters}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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


class _Stack:
    """The moments ``T`` ``(n, 4, 4)`` cut once into the rows of ``cuts`` ``(31, n)``, which
    ``s[..., rows]`` indexes, with the buffers of ``_targets`` and ``_dots`` and their views:
    ``r`` holds ``R`` and ``R^T`` ``(3, 3, 1, n)``, whose first axes ``_targets`` sums over,
    and ``shifts`` ``(2h, -0.0)`` and ``(2g, -0.0)`` ``(3, 2, n)``, which it adds to both
    targets in one call (``x + -0.0`` is ``x``, bit for bit); ``p`` is ``2p``. ``cut``
    doubles ``g``, ``h`` and ``p`` itself, which is exact."""

    def __init__(self, cuts: np.ndarray):
        self.cuts, self.p, n = cuts, cuts[30], cuts.shape[-1]
        r, shifts = cuts[:18].reshape(2, 3, 3, 1, n), cuts[18:30].reshape(2, 3, 2, n)
        self.r, self.shifts = (r[0], r[1]), (shifts[0], shifts[1])
        self.pairs, self.product, terms, self.dots = (
            np.empty((3, 1, 2, n)), np.empty((3, 3, 2, n)), np.empty((3, 3, n)), np.empty((3, n)))
        self.sums, self.differences = self.pairs[:, 0, 0], self.pairs[:, 0, 1]
        self.products = self.product[0], self.product[1], self.product[2]
        self.terms = terms[:, :2], terms[:, 2], terms[0], terms[1], terms[2]

    @classmethod
    def cut(cls, t: np.ndarray) -> _Stack:
        s = cls(np.full((31, len(t)), -0.0))
        (r, r_t), (h, g) = s.r, s.shifts
        r[..., 0, :], r_t[..., 0, :], h[:, 0], g[:, 0], s.p[...] = (
            t[:, :3, :3].transpose(1, 2, 0), t[:, :3, :3].transpose(2, 1, 0),
            2.0 * t[:, 3, :3].T, 2.0 * t[:, :3, 3].T, 2.0 * t[:, 3, 3])
        return s

    def __getitem__(self, rows) -> _Stack:
        return _Stack(self.cuts[rows])


def _targets(s: _Stack, other: np.ndarray, side: int = 0, out=None) -> np.ndarray:
    """The b-step targets ``(R^T(o1 + o2) + 2h, R^T(o1 - o2))`` for the other party's pairs
    ``(o1, o2)``, ``(3, 2, rows)``; at ``side`` 1, the a-step targets ``(R(o1 + o2) + 2g,
    R(o1 - o2))``. Into ``out`` if given."""
    first, second = other[:, 0], other[:, 1]
    np.add(first, second, s.sums)
    np.subtract(first, second, s.differences)
    np.multiply(s.r[side], s.pairs, s.product)
    first, second, third = s.products
    out = np.add(first, second, out)
    out += third
    return np.add(out, s.shifts[side], out)


def _sum4(x: np.ndarray) -> np.ndarray:
    """``_sum3`` for a leading axis of length 4."""
    return x[0] + x[1] + x[2] + x[3]


def _basis(b: np.ndarray) -> np.ndarray:
    """The tangent basis of the pairs ``b`` ``(3, 2, n)``, ``(3, 2, 2, n)``: for each vector,
    two unit vectors orthogonal to it and to each other (Duff et al., J. Comput. Graph. Tech.
    6, 1 (2017)). A vector in the x-z plane gets one tangent in that plane and one along y,
    both with exact zeros."""
    x, y, z = b
    sign = np.copysign(1.0, z)
    scale = -1.0 / (sign + z)
    xy = x * y * scale
    basis = np.empty((3, 2, 2, b.shape[-1]))  # (component, vector, tangent, row)
    basis[:, :, 0] = 1.0 + sign * x * x * scale, sign * xy, -sign * x
    basis[:, :, 1] = xy, sign + y * y * scale, -y
    return basis


def _dots(s: _Stack, x: np.ndarray, y: np.ndarray, first: np.ndarray, shift: np.ndarray):
    """``(x1.y1, x2.y2, first.shift)`` of the pairs ``x``, ``y`` ``(3, 2, n)``, in ``s.dots``."""
    pair_terms, shift_terms, one, two, three = s.terms
    np.multiply(x, y, pair_terms)
    np.multiply(first, shift, shift_terms)
    return np.add(np.add(one, two, s.dots), three, s.dots)


def _value(s: _Stack, b_targets: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a1.R(b1+b2) + a2.R(b1-b2) + 2 a1.g + 2 b1.h + 2p``, as ``b1.t1 + b2.t2 + 2 a1.g
    + 2p`` with the b-step targets ``(t1, t2) = (R^T(a1+a2) + 2h, R^T(a1-a2))``."""
    dots = _dots(s, b, b_targets, a[:, 0], s.shifts[1][:, 0])
    return dots[0] + dots[1] + dots[2] + s.p


def _values_at(t: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """``_value`` of the moments ``T`` ``(rows, 4, 4)`` at ``(a1, a2, b1, b2)`` ``(rows, 4, 3)``."""
    s, v = _Stack.cut(t), directions.T
    return _value(s, _targets(s, v[:, :2]), v[:, :2], v[:, 2:])


def bell_value_from_correlations(corr: CorrelationData, settings: BellSettings) -> float:
    """Same expectation from the 3x3 correlation data (``_value``); it
    agrees with the direct trace to rounding, which the test suite asserts."""
    t = np.block([[corr.r, corr.g[:, None]], [corr.h, corr.p]])[None]
    v = np.array([[settings.a1, settings.a2, settings.b1, settings.b2]])
    return float(_values_at(t, v)[0])


def _surface(s: _Stack, b: np.ndarray):
    """The value at the best ``a`` for the pairs ``b = (b1, b2)``, ``(3, 2, n)``:
    ``F(b1, b2) = |u| + |v| + 2 b1.h + 2p`` with ``(u, v) = (R(b1+b2) + 2g, R(b1-b2))``,
    which ``a = (u/|u|, v/|v|)`` attains. Returns ``F``, ``(u, v)`` and ``(|u|, |v|)``."""
    uv = _targets(s, b, 1)
    dots = _dots(s, uv, uv, b[:, 0], s.shifts[0][:, 0])
    norms = np.sqrt(dots[:2])
    return norms[0] + norms[1] + dots[2] + s.p, uv, norms


def _newton_parts(s: _Stack, b: np.ndarray, surface):
    """``F`` and ``(u, v)`` of ``surface = _surface(s, b)`` with the Riemannian gradient and
    Hessian of ``F`` on the product of the two spheres, in the tangent basis ``_basis(b)``:
    two unit vectors orthogonal to ``b1``, then two orthogonal to ``b2``. With ``W = R basis`` and
    ``s = (1, 1, -1, -1)``, the gradient is ``W^T u^ + s W^T v^ + (basis^T 2h, 0)`` and the
    Hessian ``W^T P_u W / |u| + s W^T P_v W s / |v|``, ``P_u = I - u^ u^T``, minus ``b.grad F``
    on each sphere's block (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
    Manifolds, 2008, ch. 5-6). Also returns the Euclidean gradient ``(R^T(u^+v^) + 2h,
    R^T(u^-v^))``, which is the target of the see-saw's b-step from ``a = (u^, v^)``."""
    f, uv, norms = surface
    norms = np.maximum(norms, _NORM_FLOOR)
    unit = uv / norms
    euclid = _targets(s, unit)
    basis = _basis(b)
    w = _sum3(s.r[1] * basis.reshape(3, 1, 4, -1))
    wuv = _sum3(w[:, None] * unit[:, :, None])  # (W^T u^, W^T v^)
    wuv[1] *= _SIGNS
    grad = _sum3(basis * euclid[:, :, None]).reshape(4, -1)
    ww = _sum3(w[:, :, None] * w[:, None])
    halves = (_HALF_SIGNS * ww - wuv[:, :, None] * wuv[:, None]) / norms[:, None, None]
    hess = halves[0] + halves[1]
    diagonal = hess.reshape(16, -1)[::5].reshape(2, 2, -1)  # a view: hess is C-contiguous
    diagonal -= _sum3(b * euclid)[:, None]
    return f, uv, grad, hess, basis, euclid


def _line_search(s: _Stack, b: np.ndarray, move: np.ndarray, euclid: np.ndarray, f):
    """The next pairs from ``b`` along the Newton steps ``move``, both ``(3, 2, n)``, and their
    ``_surface``: the first candidate that raises ``F`` above ``f``, else the see-saw step
    ``unit(euclid)``. The candidates are ``b + s move`` back on the spheres at each length
    ``s`` of ``_SCALES``, then the full step followed by a see-saw step. Every row tries the
    full step; only the rows where it fails try the rest (backtracking; Absil, Mahony &
    Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008, ch. 4). Where R's
    singular values nearly coincide, the maximisers form a curved ridge; a step along it
    leaves it at second order and can lose more than it gains, and the see-saw step after
    it returns to the ridge (a second-order correction)."""
    taken = b + move
    taken /= np.sqrt(_sum3(taken * taken))  # a norm is +0 or more, or NaN: no floor needed
    surface = _surface(s, taken)
    fails = ~(surface[0] > f)
    if not np.count_nonzero(fails):
        return taken, surface
    corrected = _targets(s, surface[1] / np.maximum(surface[2], _NORM_FLOOR))
    b, move, euclid, f, full, corrected = (
        x[..., fails] for x in (b, move, euclid, f, taken, corrected))
    tries = b[:, :, None] + _SCALES[1:, None] * move[:, :, None]
    tries /= np.sqrt(_sum3(tries * tries))
    corrected = _unit(corrected, full, 1e-300)
    tries = np.concatenate((tries, corrected[:, :, None], _unit(euclid, b, 1e-300)[:, :, None]), 2)
    count = tries.shape[2]
    tried = _surface(s[..., np.tile(np.flatnonzero(fails), count)], tries.reshape(3, 2, -1))
    rises = tried[0].reshape(count, -1) > f
    pick = np.where(rises[:-1].any(0), rises[:-1].argmax(0), count - 1)
    index = pick * len(pick) + np.arange(len(pick))  # into the candidates, count-major
    for whole, part in zip((taken, *surface), (tries.reshape(3, 2, -1), *tried)):
        whole[..., fails] = part[..., index]
    return taken, surface


def _newton(s: _Stack, b: np.ndarray, budget: np.ndarray, tol: float):
    """Safeguarded Riemannian Newton ascent of ``F`` (``_newton_parts``) on the stack ``s``
    from the pairs ``b``, ``(3, 2, n)``, for at most ``budget`` ``(n,)`` steps per row. The
    reduced Hessian is shifted by twice its largest eigenvalue, if positive, plus the reduced
    gradient norm, which makes it negative definite and steadies the step where the maximisers
    are not isolated (regularised Newton; Ueda & Yamashita, Appl. Math. Optim. 62, 27 (2010)).
    A row stops once the step's gain on the shifted quadratic model, ``grad.step / 2``, is
    at most ``tol``. Any other row moves by ``_line_search``: the full step where it raises
    ``F``, else the first of the lengths 1/2, 1/4 and 1/8 that does, else the full step
    followed by a see-saw step if that does, else one see-saw step. Per row: value, steps,
    converged, and ``(a1, a2, b1, b2)`` with ``a = (u/|u|, v/|v|)``."""
    n = b.shape[-1]
    value, steps, converged = np.empty(n), np.zeros(n, int), np.zeros(n, bool)
    vectors = np.empty((3, 4, n))  # (u, v, b1, b2) until the loop ends
    rows = np.arange(n)
    surface = _surface(s, b)
    for step in range(int(budget.max(initial=0)) + 1):
        f, uv, grad, hess, basis, euclid = _newton_parts(s, b, surface)
        top = np.linalg.eigvalsh(hess.transpose(2, 0, 1))[:, -1]
        diagonal = hess.reshape(16, -1)[::5]  # a view: hess is C-contiguous
        diagonal -= 2.0 * np.maximum(top, 0.0) + np.sqrt(_sum4(grad * grad)) + _SHIFT_FLOOR
        direction = np.linalg.solve(hess.transpose(2, 0, 1), -grad.T[..., None])[..., 0].T
        small = _sum4(grad * direction) / 2 <= tol
        done = small | (step >= budget)
        if np.count_nonzero(done):
            finished = rows[done]
            value[finished], steps[finished], converged[finished] = f[done], step, small[done]
            vectors[..., finished] = np.concatenate((uv[..., done], b[..., done]), 1)
            if done.all():
                break
            keep = ~done
            s, b, budget, rows, f, basis, euclid, direction = (
                x[..., keep] for x in (s, b, budget, rows, f, basis, euclid, direction))
        move = basis * direction.reshape(2, 2, -1)
        b, surface = _line_search(s, b, move[:, :, 0] + move[:, :, 1], euclid, f)
    vectors[:, :2] = _unit(vectors[:, :2], _AXIS_FALLBACKS[:2].T[..., None], 1e-300)
    return value, steps, converged, vectors


def _climb(t: np.ndarray, starts: np.ndarray, cfg: SeesawConfig):
    """Ascend each row of ``starts = (a1, a2, b1, b2)``, ``(3, 4, n)``, against its moments
    ``T`` ``(n, 4, 4)``. Every row first runs up to ``_SEESAW_ITERS`` see-saw iterations, in
    which a target of norm < 1e-300 keeps the old vector and a row stops once an iteration
    moves its value by at most ``cfg.tol``; each step writes through ``step``, and only the
    running rows take it. Every row then goes to ``_newton`` for the rest of its
    ``cfg.max_iters``: a row that stopped at a stationary point keeps its see-saw result, and
    any other row takes Newton steps until it converges or its budget is spent. A row with no
    budget left gets only the stop test, which sets ``converged``. Per row: value,
    iterations, converged, vectors. One ``_Stack`` serves the whole climb."""
    s, a, b = _Stack.cut(t), starts[:, :2].copy(), starts[:, 2:].copy()
    step, b_targets = np.empty_like(a), np.empty_like(a)
    value = _value(s, _targets(s, a, 0, b_targets), a, b)
    used, running = np.zeros(value.shape, int), np.ones(value.shape, bool)
    for _ in range(min(cfg.max_iters, _SEESAW_ITERS)):
        np.copyto(a, _unit(_targets(s, b, 1, step), a, 1e-300, step), where=running)
        np.copyto(b, _unit(_targets(s, a, 0, b_targets), b, 1e-300, step), where=running)
        updated = _value(s, b_targets, a, b)  # a stopped row keeps its bits
        used += running
        running &= ~(np.abs(updated - value) <= cfg.tol)
        value = updated
        if not np.count_nonzero(running):
            break
    vectors = np.concatenate((a, b), 1)
    polished, steps, converged, newton_vectors = _newton(s, b, cfg.max_iters - used, cfg.tol)
    moved = steps > 0
    return (np.where(moved, polished, value), used + steps, converged,
            np.where(moved, newton_vectors, vectors))


def _seesaw_batch(problems, t, constrain_y=False) -> list[OracleResult]:
    """``seesaw_maximize`` for every ``(state, k, cfg)`` in ``problems``, whose configs may
    differ only in ``seed``, with their moments ``t``, ``_moments(problems)``, which the
    caller computed, and ``constrain_y`` (a bool, or one per problem): one ascent of every
    (problem, restart) row, in chunks of at most ``_CHUNK_ROWS``. ``t`` is not changed."""
    cfgs = [cfg if cfg is not None else SeesawConfig() for _, _, cfg in problems]
    cfg = cfgs[0]
    if len({(c.restarts, c.max_iters, c.tol) for c in cfgs}) > 1:
        raise ValueError("the configs of one see-saw batch may differ only in seed")
    if constrained := np.any(constrain_y):
        flags, t = np.full(len(problems), constrain_y), t.copy()
        t[flags, 1] = t[flags, :, 1] = 0.0
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    step = max(1, _CHUNK_ROWS // len(problems))
    records = [[] for _ in problems]  # runs that beat all earlier runs, within cfg.tol of the best
    for first in range(0, cfg.restarts, step):
        # Each problem draws from its own generator, in restart order, just before its chunk.
        count = min(step, cfg.restarts - first)
        drawn = [unit3_stack(rng, 4 * count) for rng in rngs]
        starts = np.concatenate(drawn).reshape(-1, count, 4, 3)
        if constrained:
            starts[flags, ..., 1] = 0.0
            starts[flags] = _unit(starts[flags].T, _AXIS_FALLBACKS.T[..., None, None]).T
        runs = _climb(np.repeat(t, count, 0), starts.reshape(-1, 4, 3).T, cfg)  # problem-major
        for row, value in enumerate(runs[0].tolist()):
            if not (held := records[row // count]) or value > held[-1][0]:
                records[row // count] = [old for old in held if old[0] >= value - cfg.tol] + [
                    (value, runs[1][row].item(), runs[2][row].item(), runs[3][..., row].T)]
    return [OracleResult(value, BellSettings(*vectors, k=k), iterations, cfg.restarts, converged)
            for (_, k, _), ((value, iterations, converged, vectors), *_) in zip(problems, records)]


def seesaw_maximize(state: QuantumState, k: int, cfg: SeesawConfig | None = None,
                    constrain_y: bool = False) -> OracleResult:
    """Maximise the four-term value over settings for a fixed state.

    Each restart starts from random directions and runs up to ``_SEESAW_ITERS`` exact
    coordinate updates, ``a1 <- unit(R(b1+b2) + 2g)``, ``a2 <- unit(R(b1-b2))``, then
    ``b1 <- unit(R^T(a1+a2) + 2h)``, ``b2 <- unit(R^T(a1-a2))``, stopping once one moves the
    value by at most ``cfg.tol``; then Newton steps, within ``cfg.max_iters`` in all, until
    a step would gain at most ``cfg.tol`` (``_climb``). ``iterations_used`` counts both
    kinds, and ``converged`` is the Newton stop test's verdict. With ``constrain_y`` the y
    parts of ``R``, ``g`` and ``h`` are zeroed and the starts are projected, so every update
    stays in the x-z plane. Identical seed and config give bit-identical results. This is
    the one-problem case of ``_seesaw_batch``: every restart is a row of one array ascent,
    and the lowest restart whose value is within ``cfg.tol`` of the best is reported.
    """
    return _seesaw_batch([(state, k, cfg)], _moments([(state, k)]), constrain_y)[0]


def spectral_max(gamma: GammaSet, settings: BellSettings) -> float:
    """Largest eigenvalue of the Bell operator at the given settings.

    Upper-bounds ``bell_value`` over all states sharing those settings.
    """
    return float(hermitian_eigenvalues(bell_operator(gamma, settings))[-1])
