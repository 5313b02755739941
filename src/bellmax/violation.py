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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import sym3_eig, sym3_eigenvalues
from .operators import BellSettings, make_gamma_set
from .states import DensityMatrix, IsotropicState, QuantumState, as_density

LHV_BOUND = 2.0

#: A value must clear the classical bound by this much to count as a
#: violation (separates genuine violation from rounding).
VIOLATION_EPS = 1e-12

#: Max cross-term magnitude for certifying the closed form.
CROSS_TERM_ATOL = 1e-10


@dataclass(frozen=True)
class CorrelationData:
    """Pairwise generator statistics of one state at a fixed index ``k``."""

    dim: int
    k: int
    r: np.ndarray
    g: np.ndarray
    h: np.ndarray
    p: float
    tau1: float
    tau2: float


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


def correlation_data(state: QuantumState, k: int) -> CorrelationData:
    """Exact generator statistics ``R``, ``g``, ``h``, ``p`` for (state, k).

    With ``O = (gx, gy, gz, pi)`` the moments ``T[m, n] = Tr[rho O_m (x) O_n]``
    form one 4x4 matrix whose blocks are ``R = T[:3, :3]``, ``g = T[:3, 3]``,
    ``h = T[3, :3]`` and ``p = T[3, 3]``. It comes from two tensor
    contractions of the reshaped density matrix, so no dim^2 x dim^2
    operator is ever materialised. A ``DensityMatrix`` is used as given;
    any other state is converted once.
    """
    rho = state if isinstance(state, DensityMatrix) else as_density(state)
    n = rho.dim
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n} for this state, got {k}")
    gamma = make_gamma_set(n, k)
    ops = np.stack((gamma.gx, gamma.gy, gamma.gz, gamma.pi))
    # Tr[rho (A x B)] = sum_{ikjl} rho[ik, jl] A[j, i] B[l, k]
    left = np.einsum("ikjl,mji->mkl", rho.rho.reshape(n, n, n, n), ops)
    moments = np.einsum("mkl,nlk->mn", left, ops)
    # Traces of Hermitian products are real; tolerate rounding only.
    imag = float(np.max(np.abs(moments.imag)))
    if imag > 1e-9:
        raise ArithmeticError(f"expected real traces, got imaginary parts up to {imag:.3e}")
    t = moments.real
    r, g, h = (np.array(block) for block in (t[:3, :3], t[:3, 3], t[3, :3]))
    for block in (r, g, h):
        block.setflags(write=False)

    tau1, tau2, _ = sym3_eigenvalues(r.T @ r)
    return CorrelationData(
        dim=n, k=k, r=r, g=g, h=h, p=float(t[3, 3]),
        tau1=max(tau1, 0.0), tau2=max(tau2, 0.0),
    )


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
    _values, vectors = sym3_eig(corr.r.T @ corr.r)
    c1 = vectors[:, 0]
    c2 = vectors[:, 1]
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
    certified = cross <= CROSS_TERM_ATOL
    value = 2.0 * math.sqrt(corr.tau1 + corr.tau2) + 2.0 * corr.p
    return ViolationReport(
        value=value,
        tau1=corr.tau1,
        tau2=corr.tau2,
        pi_term=2.0 * corr.p,
        k=k,
        formula_valid=bool(certified),
        violated=bool(value - LHV_BOUND > VIOLATION_EPS),
        method="closed_form",
    )


def scan_k(state: QuantumState) -> list[ViolationReport]:
    """Closed-form report for every measurement index ``k`` in 1..N.

    For even dimension the generators do not depend on ``k``, so the
    ``k = 1`` report is evaluated once and copied for every ``k``.
    """
    rho = as_density(state)
    ks = range(1, rho.dim + 1)
    if rho.dim % 2:
        return [max_violation_closed_form(rho, k) for k in ks]
    first = max_violation_closed_form(rho, 1)
    return [replace(first, k=k) for k in ks]


def oracle_report(
    state: QuantumState, closed: ViolationReport, cfg=None
) -> ViolationReport:
    """See-saw value at ``closed.k``, next to that index's closed-form data.

    ``tau1``, ``tau2``, ``pi_term`` and ``formula_valid`` are carried over
    from the closed-form report ``closed`` of the same state.
    """
    from .seesaw import seesaw_maximize

    value = seesaw_maximize(state, closed.k, cfg).value
    return replace(
        closed,
        value=value,
        violated=bool(value - LHV_BOUND > VIOLATION_EPS),
        method="oracle",
    )


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


def noise_threshold(dim: int, k: int | str = "best") -> ThresholdResult:
    """Isotropic noise weight ``x*`` at which the closed form reaches 2.

    White noise of weight ``x`` scales ``R`` by ``1 - x`` and leaves ``p``
    affine in ``x``, so at a fixed ``k`` the value is exactly the line
    ``(1 - x) v0 + x v1`` between the noiseless value ``v0 > 2`` and the
    fully mixed value ``v1 < 2`` (true for every N >= 2). The crossing is
    ``x* = (v0 - 2) / (v0 - v1)``; the family violates for ``x < x*``.
    The result carries both ends of the line, ``v0`` and ``v1``.

    Every ``k`` gives the same line, so ``k="best"`` is ``k = 1``: the
    generators for index ``k`` are the ``k = 1`` set relabelled by a real
    permutation ``P``, and ``P (x) P`` leaves every isotropic state as it
    is (they are ``U (x) U*``-invariant; Horodecki & Horodecki, Phys. Rev.
    A 59, 4206 (1999)).
    """
    k = 1 if k == "best" else int(k)
    zero = max_violation_closed_form(IsotropicState(dim, 0.0), k)  # rejects dim < 2
    one = max_violation_closed_form(IsotropicState(dim, 1.0), k)
    if not (zero.formula_valid and one.formula_valid):
        raise ValueError(
            "closed form is not certified for this family; "
            "thresholds require vanishing cross terms"
        )
    return ThresholdResult((zero.value - LHV_BOUND) / (zero.value - one.value),
                           zero.value, k, one.value)
