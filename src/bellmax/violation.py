"""Correlation data and the closed-form maximal quantum value.

The expectation of the four-term Bell operator reduces to 3x3 algebra:
with ``R[m, n] = Tr[rho G_m (x) G_n]`` over the generator triple, the
cross vectors ``g`` and ``h`` against the corner projector, and the
scalar ``p = Tr[rho pi (x) pi]``, the value at settings (a1, a2, b1, b2)
is ``a1.R(b1+b2) + a2.R(b1-b2) + 2 a1.g + 2 b1.h + 2p``. When the cross
vectors vanish, maximising over unit vectors gives the closed form
``2 sqrt(tau1 + tau2) + 2p`` where tau1 >= tau2 are the two largest
eigenvalues of ``R^T R``. For even dimension the projector is the zero
matrix, so the cross vectors are exactly zero, ``k`` is inert and the
closed form holds for every state; for odd dimension it is certified
when the cross vectors vanish (Schmidt states always satisfy this).
The moments of many (state, k) problems are one batched contraction ``C G C^T``
(``_moments``), O(N) per k for Schmidt and isotropic states. A single-k call,
``scan_k`` and the see-saw's moments are all cases of that one path.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .linalg import sym3_eig
from .operators import BellSettings, _entries
from .states import (DENSITY_HERMITIAN_ATOL, DensityMatrix, DomainError, IsotropicState,
                     QuantumState, SchmidtState)
# Unused here; kept because the traced bench wraps them (ROADMAP direction 2).
from .operators import make_gamma_set  # noqa: F401
from .states import as_density  # noqa: F401

LHV_BOUND = 2.0

#: A value must clear the classical bound by this much to count as a
#: violation (separates genuine violation from rounding).
VIOLATION_EPS = 1e-12

#: Max cross-term magnitude for certifying the closed form.
CROSS_TERM_ATOL = 1e-10

#: Largest N that ``_moments`` takes. Building a density matrix or Bell
#: operator keeps the lower ``linalg.MAX_TENSOR_DIM`` cap.
MAX_PAIR_DIM = 2048

#: Scratch bytes per chunk of ks in ``_moments``, instead of 67 MB tables at MAX_PAIR_DIM.
_CHUNK_BYTES = 1 << 23

#: ``best_k`` skips a k whose ``_upper_bounds`` value is below the lead by more than this,
#: far above the rounding of either side.
PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class CorrelationData:
    """Pairwise generator statistics of one state at a fixed index ``k``.
    ``vectors`` holds the eigenvectors of ``R^T R`` as columns: for ``tau1``,
    for ``tau2``, then for the smallest eigenvalue."""

    k: int
    r: np.ndarray
    g: np.ndarray
    h: np.ndarray
    p: float
    tau1: float
    tau2: float
    vectors: np.ndarray


@dataclass(frozen=True, slots=True)
class ViolationReport:
    """Maximal-value report for one state and one measurement index."""

    value: float
    tau1: float
    tau2: float
    pi_term: float
    k: int
    formula_valid: bool
    lhv_bound: float = field(default=LHV_BOUND, init=False)
    violated: bool
    method: str

    def to_dict(self) -> dict:
        return dict(zip(_REPORT_KEYS, _report_values(self)))


_REPORT_KEYS = tuple(f.name for f in fields(ViolationReport))
_report_values = operator.attrgetter(*_REPORT_KEYS)


def _row_bytes(state: QuantumState) -> int:
    """Scratch bytes per problem: a density's gather ``G``, else index tables and weights."""
    length = 2 * state.dim - state.dim % 2
    return 16 * length * (length if isinstance(state, DensityMatrix) else 4)


def _moments(problems) -> np.ndarray:
    """Real moments ``T[i, m, n] = Tr[rho O_m (x) O_n]`` of ``O = (gx, gy, gz, pi)`` for
    ``(rho, k, ...) = problems[i]``: ``R = T[i, :3, :3]``, ``g = T[i, :3, 3]``, ``h = T[i,
    3, :3]``, ``p = T[i, 3, 3]``. As ``O_m[row_e, col_e] = C[m, e]``, ``T = C G C^T`` with
    ``G[e, f] = <col_e col_f|rho|row_e row_f>``: O(N^2) gathered entries per problem for a
    density, O(N) for Schmidt and isotropic states. Grouped once by family and N, in problem
    order, each group writes its rows in chunks of ``_CHUNK_BYTES``; a row gets BLAS calls of
    one shape, so it has the same bits in any batch. ``N > MAX_PAIR_DIM`` raises first."""
    groups = {}  # problem indices by (family, N), in order of first appearance
    for i, (state, *_) in enumerate(problems):
        groups.setdefault((type(state), state.dim), []).append(i)
    for family, n in groups:
        if n > MAX_PAIR_DIM:
            raise DomainError(f"N={n} is beyond the pair-block budget, cap is N={MAX_PAIR_DIM}")
        if not issubclass(family, (DensityMatrix, SchmidtState, IsotropicState)):
            raise TypeError(f"not a quantum state: {family.__name__}")
    t = np.empty((len(problems), 4, 4), complex)
    for (family, n), group in groups.items():
        # Traces of Hermitian products are real up to rounding. A density may keep an admitted
        # anti-Hermitian part, of entries up to DENSITY_HERMITIAN_ATOL / 2, whose L^2 gathered
        # entries (L = 2N - N mod 2) meet weights |C| <= 1: L^2 DENSITY_HERMITIAN_ATOL / 2 more.
        limit = 1e-9 + ((2 * n - n % 2) ** 2 * DENSITY_HERMITIAN_ATOL / 2
                        if issubclass(family, DensityMatrix) else 0.0)
        step = max(1, _CHUNK_BYTES // _row_bytes(problems[group[0]][0]))
        for rows in (group[start:start + step] for start in range(0, len(group), step)):
            t[rows] = chunk = _chunk_moments(*zip(*(problems[i][:2] for i in rows)))
            if (imag := float(np.abs(chunk.imag).max())) > limit:
                raise ArithmeticError(f"expected real traces, got imaginary parts up to {imag:.3e}")
    return t.real


def _chunk_moments(states, ks) -> np.ndarray:
    """``_moments`` of one chunk of one family and N: one gather per run of one state."""
    state, n = states[0], states[0].dim
    rows, cols, c, products = _entries(n, ks)  # checks k
    runs = [(states[a], slice(a, b)) for a, b in itertools.pairwise(
        [0, *(i for i in range(1, len(ks)) if states[i] is not states[i - 1]), len(ks)])]
    # Tr[rho (A x B)] = sum rho4[i, k, j, l] A[j, i] B[l, k]. Schmidt: G = diag(c_row c_col),
    # weights on the products C_m C_n. Isotropic: (1 - x) (Schmidt state, c_i = N^-1/2) + x/N^2
    # d_ij d_kl, whose second term pairs the operator traces. n ** -0.5 squared keeps goldens.
    if isinstance(state, DensityMatrix):
        g = np.concatenate([s.rho.reshape(n, n, n, n)[cols[r, :, None], cols[r, None],
                                                      rows[r, :, None], rows[r, None]]
                            for s, r in runs])
        return c @ g @ c.T
    if isinstance(state, SchmidtState):
        g = np.concatenate([(a := np.asarray(s.coeffs)).take(rows[r]) * a.take(cols[r])
                            for s, r in runs])
    else:
        g = np.full(rows.shape, n ** -0.5 * n ** -0.5)
    t = (g[:, None] @ products.T).reshape(-1, 4, 4)
    if isinstance(state, IsotropicState):
        x = np.array([s.x for s in states])[:, None, None]
        trace = c @ (rows[0] == cols[0])  # the same for every k
        t = (1.0 - x) * t + x / (n * n) * np.outer(trace, trace)
    return t


def _closed_values(problems):
    """``T`` of every ``(state, k, ...)`` problem, ``(tau1, tau2)``: the two largest eigenvalues
    of its ``R^T R`` floored at 0, the eigenvectors of ``R^T R``, descending, as columns, and
    the closed form ``2 sqrt(tau1 + tau2) + 2p``, from one ``_moments`` batch and one stacked
    ``sym3_eig``."""
    t = _moments(problems)
    r = t[:, :3, :3]
    values, vectors = sym3_eig(r.swapaxes(1, 2) @ r)
    tau = np.maximum(values[:, :2], 0.0)
    return t, tau, vectors, 2.0 * np.sqrt(tau[:, 0] + tau[:, 1]) + 2.0 * t[:, 3, 3]


def correlation_data(state: QuantumState, k: int) -> CorrelationData:
    """Exact ``R``, ``g``, ``h``, ``p`` and ``R^T R`` eigenpairs for (state, k), read-only."""
    t, tau, vectors, _ = (a[0] for a in _closed_values([(state, k)]))
    r, g, h = (block.copy() for block in (t[:3, :3], t[:3, 3], t[3, :3]))
    for block in (r, g, h, vectors):
        block.setflags(write=False)
    return CorrelationData(k, r, g, h, float(t[3, 3]), *tau.tolist(), vectors)


def _violates(value):
    """Whether ``value`` clears the classical bound by more than rounding, elementwise."""
    return value - LHV_BOUND > VIOLATION_EPS


#: Directions of a1, a2, b1, b2 where the vector to normalise vanishes.
_AXIS_FALLBACKS = np.array(((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)) * 2)


def _sum3(x: np.ndarray) -> np.ndarray:
    """Sum over a leading axis of length 3 by elementwise adds: no bit depends on the batch."""
    return x[0] + x[1] + x[2]


def _unit(vec: np.ndarray, fallback, floor: float = 1e-12, out=None) -> np.ndarray:
    """Vectors along the leading axis of ``vec`` over their norms; ``fallback`` below ``floor``.
    Into ``out`` if given, which may be ``vec`` or ``fallback``."""
    norm = np.sqrt(_sum3(vec * vec))
    if np.count_nonzero(low := norm < floor):
        return np.positive(np.where(low, fallback, vec / np.maximum(norm, floor)), out)
    return np.divide(vec, norm, out)  # no norm is floored, a NaN norm included


def optimal_settings(corr: CorrelationData) -> BellSettings:
    """Settings that attain the closed-form maximum when cross terms vanish.

    The ``b`` vectors combine the two leading right singular directions of
    R with the optimal mixing angle; the ``a`` vectors align with their
    images under R (shifted by the cross vector g when present).
    """
    c1 = corr.vectors[:, 0]
    c2 = corr.vectors[:, 1]
    n1 = float(np.linalg.norm(corr.r @ c1))
    n2 = float(np.linalg.norm(corr.r @ c2))
    theta = math.atan2(n2, n1)
    b1 = math.cos(theta) * c1 + math.sin(theta) * c2
    b2 = math.cos(theta) * c1 - math.sin(theta) * c2
    a1 = _unit(corr.r @ (b1 + b2) + 2.0 * corr.g, _AXIS_FALLBACKS[0])
    a2 = _unit(corr.r @ (b1 - b2), _AXIS_FALLBACKS[1])
    return BellSettings(a1, a2, b1, b2, k=corr.k)


def _closed_forms(problems) -> list[ViolationReport]:
    """Closed-form reports (``_closed_values``) for every ``(state, k, ...)`` problem.
    ``formula_valid``: the projector cross terms vanish (a NaN does not), exactly
    so for even N (zero projector) and Schmidt states; else prefer an oracle."""
    t, tau, _, values = _closed_values(problems)
    cross = np.maximum(np.abs(t[:, :3, 3]), np.abs(t[:, 3, :3])).max(axis=1)
    return [ViolationReport(value=value, tau1=tau1, tau2=tau2, pi_term=2.0 * p, k=problem[1],
                            formula_valid=x <= CROSS_TERM_ATOL, violated=v, method="closed_form")
            for problem, value, (tau1, tau2), p, x, v in zip(problems, values.tolist(),
                tau.tolist(), t[:, 3, 3].tolist(), cross.tolist(), _violates(values).tolist())]


def _upper_bounds(t: np.ndarray, reports) -> np.ndarray:
    """``U = 2 sqrt(tau1 + tau2) + 2|g| + 2|h| + 2p`` of each closed-form report from the
    moments ``t`` of its problem, its value plus ``2|g| + 2|h|``: no settings give more, as
    ``2 a1.g <= 2|g|`` and ``2 b1.h <= 2|h|`` (triangle inequality), and ``U`` is the closed
    form where ``g = h = 0``."""
    return np.array([rep.value for rep in reports]) + 2.0 * (
        np.linalg.norm(t[:, :3, 3], axis=1) + np.linalg.norm(t[:, 3, :3], axis=1))


def max_violation_closed_form(state: QuantumState, k: int) -> ViolationReport:
    """Closed-form maximal value at index ``k`` (see ``_closed_forms``)."""
    return _closed_forms([(state, k)])[0]


def scan_k(state: QuantumState) -> list[ViolationReport]:
    """Closed-form report for every measurement index ``k`` in 1..N, from one
    ``_closed_forms`` batch: O(N) per k for Schmidt and isotropic states, and
    each row bit-equal to ``max_violation_closed_form``. For even dimension
    ``k`` is inert: the ``k = 1`` report is copied."""
    ks = range(1, state.dim + 1)
    if state.dim % 2 and state.dim <= MAX_PAIR_DIM:
        return _closed_forms(list(zip(itertools.repeat(state), ks)))
    first = max_violation_closed_form(state, 1)  # past MAX_PAIR_DIM, raises before N problems
    return [replace(first, k=k) for k in ks]


def oracle_report(closed: ViolationReport, result) -> ViolationReport:
    """The see-saw ``result`` at ``closed.k``; ``tau1``, ``tau2``, ``pi_term`` and
    ``formula_valid`` carry over from ``closed``, the closed-form report at that k."""
    return replace(closed, value=result.value, violated=_violates(result.value), method="oracle")


def best_k(state: QuantumState, cfg=None, reports=None) -> ViolationReport:
    """Report for the index ``k`` with the largest certified value.

    Ties break toward the smallest ``k``, so an even-dimension state, whose
    reports are all equal, gives its ``k = 1`` report. If no index
    certifies the closed form for an odd-dimension mixed state, the best
    see-saw value (``cfg`` configures it) is returned with
    ``formula_valid=False`` and ``method="oracle"``. The see-saw is a branch
    and bound over k: the k with the largest ``_upper_bounds`` value runs
    first, alone, then every other k whose bound is not below its value by
    more than ``PRUNE_MARGIN`` runs in one batch; one ``_moments`` batch of
    the candidate ks feeds the bounds and both see-saw batches. A skipped k
    cannot reach the lead, so the result is that of running every k, and
    each k that runs is bit-equal to ``seesaw_maximize`` at its k.
    ``reports`` are the candidate closed-form reports, ``scan_k(state)``
    when not given.
    """
    reports = reports if reports is not None else scan_k(state)
    certified = [rep for rep in reports if rep.formula_valid]
    if certified:
        # max keeps the first of equal values, i.e. the smallest k
        return max(certified, key=lambda rep: rep.value)
    from .seesaw import _seesaw_batch
    t = _moments([(state, rep.k) for rep in reports])
    bounds = _upper_bounds(t, reports)
    first = int(np.argmax(bounds))  # the first of equal bounds, i.e. the smallest k
    ran = {first: _seesaw_batch([(state, reports[first].k, cfg)], t[first:first + 1])[0]}
    rest = [i for i, bound in enumerate(bounds.tolist())
            if i != first and bound >= ran[first].value - PRUNE_MARGIN]
    if rest:
        ran.update(zip(rest, _seesaw_batch([(state, reports[i].k, cfg) for i in rest], t[rest])))
    return max((oracle_report(reports[i], ran[i]) for i in sorted(ran)),
               key=lambda rep: rep.value)


@dataclass(frozen=True)
class ThresholdResult:
    """Noise weight at which the value crosses the classical bound."""

    x_star: float
    value_at_zero: float
    k_used: int
    value_at_one: float


def noise_threshold(dim: int) -> ThresholdResult:
    """Isotropic noise weight ``x*`` at which the closed form reaches 2.

    White noise of weight ``x`` scales ``R`` by ``1 - x`` and leaves ``p``
    affine in ``x``, so at a fixed ``k`` the value is exactly the line
    ``(1 - x) v0 + x v1`` between the noiseless value ``v0 > 2`` and the
    fully mixed value ``v1 < 2`` (true for every N >= 2). The crossing is
    ``x* = (v0 - 2) / (v0 - v1)``; the family violates for ``x < x*``.
    The result carries both ends of the line, ``v0`` and ``v1``.

    Every ``k`` gives the same line, so ``k = 1`` is used: the generators
    for index ``k`` are the ``k = 1`` set relabelled by a real permutation
    ``P``, and ``P (x) P`` leaves every isotropic state as it is (they are
    ``U (x) U*``-invariant; Horodecki & Horodecki, Phys. Rev. A 59, 4206
    (1999)).
    """
    k = 1
    # Certified at every (N, k): the cut-row sums of an isotropic state are
    # multiples of the identity, so the traceless Paulis give g = h = 0.
    problems = [(IsotropicState(dim, x), k) for x in (0.0, 1.0)]  # rejects dim < 2
    zero, one = _closed_values(problems)[-1].tolist()
    return ThresholdResult((zero - LHV_BOUND) / (zero - one), zero, k, one)
