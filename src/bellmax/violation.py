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
Every moment is a sum of density entries over the generators' index
pairs, which Schmidt and isotropic states give in closed form, in O(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import sym3_eig
from .operators import _PAULI, BellSettings, _pairing
from .states import DensityMatrix, DomainError, IsotropicState, QuantumState, SchmidtState
# Unused here; kept because the traced bench wraps them (ROADMAP direction 1).
from .operators import make_gamma_set  # noqa: F401
from .states import as_density  # noqa: F401

LHV_BOUND = 2.0

#: A value must clear the classical bound by this much to count as a
#: violation (separates genuine violation from rounding).
VIOLATION_EPS = 1e-12

#: Max cross-term magnitude for certifying the closed form.
CROSS_TERM_ATOL = 1e-10

#: Largest N that ``correlation_data`` takes: a scan over every k reads at
#: most N^2 (4.2 million) Schmidt coefficients. Building a density matrix
#: or Bell operator keeps the lower ``linalg.MAX_TENSOR_DIM`` cap.
MAX_PAIR_DIM = 2048

#: ``_WEIGHTS[s, m]`` is the 2x2 block of ``O_m = (gx, gy, gz, pi)[m]`` on a
#: block of class ``s``: an index pair (0) or the cut ``(x, x)`` (1).
_WEIGHTS = np.zeros((2, 4, 2, 2), dtype=complex)
_WEIGHTS[0, :3], _WEIGHTS[1, 3, 0, 0] = _PAULI, 1.0


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


@dataclass(frozen=True)
class ViolationReport:
    """Maximal-value report for one state and one measurement index."""

    value: float
    tau1: float
    tau2: float
    pi_term: float
    k: int
    formula_valid: bool
    violated: bool
    method: str

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "tau1": self.tau1,
            "tau2": self.tau2,
            "pi_term": self.pi_term,
            "k": self.k,
            "formula_valid": self.formula_valid,
            "lhv_bound": LHV_BOUND,
            "violated": self.violated,
            "method": self.method,
        }


def _diagonal_sums(coeffs: np.ndarray, blocks: np.ndarray, classes: np.ndarray):
    """Block sums of ``rho4 = c_i c_j d_ik d_jl``: only P = Q, a = c, b = d survive."""
    sums = np.einsum("Ps,Pa,Pb->sab", classes, coeffs[blocks], coeffs[blocks])
    return np.einsum("sab,st,ac,bd->stacbd", sums, *[np.eye(2)] * 3)


def _block_sums(state: QuantumState, blocks: np.ndarray, classes: np.ndarray):
    """``Z[s, t, a, c, b, d]``: ``rho4[P_a, Q_c, P_b, Q_d]`` summed over blocks
    ``P`` of class ``s`` and ``Q`` of class ``t``, where ``rho4[i, k, j, l] =
    <ik|rho|jl>``. A density gives its entries, O(N^2); Schmidt and
    isotropic states give the sums in closed form, O(N).
    """
    n = state.dim
    if isinstance(state, DensityMatrix):
        # index arrays broadcast to the axes (P, Q, a, c, b, d)
        pa, qc = blocks[:, None, :, None, None, None], blocks[None, :, None, :, None, None]
        pb, qd = blocks[:, None, None, None, :, None], blocks[None, :, None, None, None, :]
        entries = state.rho.reshape(n, n, n, n)[pa, qc, pb, qd]
        return np.einsum("PQacbd,Ps,Qt->stacbd", entries, classes, classes)
    if isinstance(state, SchmidtState):
        return _diagonal_sums(np.asarray(state.coeffs), blocks, classes)
    if isinstance(state, IsotropicState):
        # rho4 = (1 - x) (Schmidt state with c_i = N^-1/2) + x/N^2 d_ij d_kl
        same = np.einsum("Ps,Pab->sab", classes, blocks[:, :, None] == blocks[:, None, :])
        return ((1.0 - state.x) * _diagonal_sums(np.full(n, n ** -0.5), blocks, classes)
                + state.x / (n * n) * np.einsum("sab,tcd->stacbd", same, same))
    raise TypeError(f"not a quantum state: {type(state).__name__}")


def correlation_data(state: QuantumState, k: int) -> CorrelationData:
    """Exact generator statistics ``R``, ``g``, ``h``, ``p`` for (state, k).

    With ``O = (gx, gy, gz, pi)`` the moments ``T[m, n] = Tr[rho O_m (x) O_n]``
    form one 4x4 matrix whose blocks are ``R = T[:3, :3]``, ``g = T[:3, 3]``,
    ``h = T[3, :3]`` and ``p = T[3, 3]``. Each generator is one Pauli block
    per index pair, and ``pi`` one entry at the cut, so ``T`` is the
    state's block sums contracted with ``_WEIGHTS``: no generator, and for
    Schmidt and isotropic states no density matrix, is built. Raises
    ``DomainError`` before any allocation for ``N > MAX_PAIR_DIM``.
    """
    n = state.dim
    if n > MAX_PAIR_DIM:
        raise DomainError(f"N={n} is beyond the pair-block budget, cap is N={MAX_PAIR_DIM}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n} for this state, got {k}")
    pairs, cut = _pairing(n, k)
    blocks = pairs if cut is None else np.vstack((pairs, [cut, cut]))
    classes = np.eye(2)[[0] * len(pairs) + [1] * (cut is not None)]  # one-hot
    # Tr[rho (A x B)] = sum_{ikjl} rho4[i, k, j, l] A[j, i] B[l, k]
    t = np.einsum("stacbd,smba,tndc->mn", _block_sums(state, blocks, classes),
                  _WEIGHTS, _WEIGHTS)
    # Traces of Hermitian products are real; tolerate rounding only.
    imag = float(np.max(np.abs(t.imag)))
    if imag > 1e-9:
        raise ArithmeticError(f"expected real traces, got imaginary parts up to {imag:.3e}")
    t = t.real
    r, g, h = (np.array(block) for block in (t[:3, :3], t[:3, 3], t[3, :3]))
    values, vectors = sym3_eig(r.T @ r)
    for block in (r, g, h, vectors):
        block.setflags(write=False)
    return CorrelationData(
        k=k, r=r, g=g, h=h, p=float(t[3, 3]),
        tau1=max(float(values[0]), 0.0), tau2=max(float(values[1]), 0.0),
        vectors=vectors,
    )


def _violates(value: float) -> bool:
    """Whether ``value`` clears the classical bound by more than rounding."""
    return bool(value - LHV_BOUND > VIOLATION_EPS)


def _unit_or(vec: np.ndarray, fallback) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        return np.asarray(fallback, dtype=float)
    return vec / norm


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
    a1 = _unit_or(corr.r @ (b1 + b2) + 2.0 * corr.g, (0.0, 0.0, 1.0))
    a2 = _unit_or(corr.r @ (b1 - b2), (1.0, 0.0, 0.0))
    return BellSettings(a1, a2, b1, b2, k=corr.k)


def max_violation_closed_form(state: QuantumState, k: int) -> ViolationReport:
    """Closed-form maximal value ``2 sqrt(tau1 + tau2) + 2p`` at index ``k``.

    ``formula_valid`` records whether the projector cross terms vanish,
    which certifies the closed form for this state. They are exactly 0.0
    for every even-dimension state (the projector is the zero matrix) and
    for every Schmidt state. An uncertified state is not an error; the
    report simply flags that an oracle value should be preferred.
    """
    corr = correlation_data(state, k)
    cross = max(float(np.max(np.abs(corr.g))), float(np.max(np.abs(corr.h))))
    value = 2.0 * math.sqrt(corr.tau1 + corr.tau2) + 2.0 * corr.p
    return ViolationReport(
        value=value, tau1=corr.tau1, tau2=corr.tau2, pi_term=2.0 * corr.p, k=k,
        formula_valid=cross <= CROSS_TERM_ATOL, violated=_violates(value),
        method="closed_form",
    )


def scan_k(state: QuantumState) -> list[ViolationReport]:
    """Closed-form report for every measurement index ``k`` in 1..N.

    For even dimension the generators do not depend on ``k``, so the
    ``k = 1`` report is evaluated once and copied for every ``k``.
    """
    ks = range(1, state.dim + 1)
    if state.dim % 2:
        return [max_violation_closed_form(state, k) for k in ks]
    first = max_violation_closed_form(state, 1)
    return [replace(first, k=k) for k in ks]


def oracle_report(state: QuantumState, closed: ViolationReport, cfg=None) -> ViolationReport:
    """See-saw value at ``closed.k``, next to that index's closed-form data.

    ``tau1``, ``tau2``, ``pi_term`` and ``formula_valid`` are carried over
    from the closed-form report ``closed`` of the same state.
    """
    from .seesaw import seesaw_maximize

    value = seesaw_maximize(state, closed.k, cfg).value
    return replace(closed, value=value, violated=_violates(value), method="oracle")


def best_k(state: QuantumState, cfg=None, reports=None) -> ViolationReport:
    """Report for the index ``k`` with the largest certified value.

    Ties break toward the smallest ``k``, so an even-dimension state, whose
    reports are all equal, gives its ``k = 1`` report. If no index
    certifies the closed form for an odd-dimension mixed state, the best
    see-saw value (``cfg`` configures it) is returned with
    ``formula_valid=False`` and ``method="oracle"``. ``reports`` are the
    candidate closed-form reports, ``scan_k(state)`` when not given.
    """
    reports = reports if reports is not None else scan_k(state)
    certified = [rep for rep in reports if rep.formula_valid]
    if certified:
        # max keeps the first of equal values, i.e. the smallest k
        return max(certified, key=lambda rep: rep.value)
    return max((oracle_report(state, rep, cfg) for rep in reports),
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
    zero = max_violation_closed_form(IsotropicState(dim, 0.0), k)  # rejects dim < 2
    one = max_violation_closed_form(IsotropicState(dim, 1.0), k)
    return ThresholdResult((zero.value - LHV_BOUND) / (zero.value - one.value),
                           zero.value, k, one.value)
