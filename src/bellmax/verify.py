"""Self-verification suites behind the ``verify`` CLI subcommand.

Each check re-derives one of the package invariants on seeded random
inputs and reports a pass/fail record with the worst deviation it saw.
The worst is kept with ``np.maximum``, which unlike ``max`` keeps a NaN,
so a NaN deviation fails its check. The suites are deterministic: the
same seed and sample count always produce identical records, which the
golden tests rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import sampling
from .linalg import hermitian_eigenvalues
from .operators import make_gamma_set, observable
from .seesaw import (
    SeesawConfig,
    bell_value,
    bell_value_from_correlations,
    seesaw_maximize,
    spectral_max,
)
from .states import (
    DENSITY_HERMITIAN_ATOL,
    IsotropicState,
    isotropic_to_density,
    partial_trace,
    schmidt_to_density,
)
from .violation import correlation_data, max_violation_closed_form
# Unused here; kept because the traced bench wraps them (ROADMAP direction 1).
from .linalg import hermitian_eig, tensor  # noqa: F401

_TSIRELSON = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, worst: float, bound: float, extra: str = "") -> CheckResult:
    detail = f"worst deviation {worst:.3e} (bound {bound:.1e})"
    if extra:
        detail += f"; {extra}"
    return CheckResult(name, bool(worst <= bound), detail)


def check_observable_dichotomy(rng, samples: int) -> CheckResult:
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n + 1))
        gamma = make_gamma_set(n, k)
        a = observable(gamma, sampling.unit3(rng))
        for lam in hermitian_eigenvalues(a):
            worst = np.maximum(worst, abs(abs(lam) - 1.0))
    return _result("observable-dichotomy", worst, 1e-9)


def check_observable_involution(rng, samples: int) -> CheckResult:
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n + 1))
        a = observable(make_gamma_set(n, k), sampling.unit3(rng))
        worst = np.maximum(worst, float(np.max(np.abs(a @ a - np.eye(n)))))
    return _result("observable-involution", worst, 1e-10)


def check_bell_norm_ceiling(rng, samples: int) -> CheckResult:
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        gamma = make_gamma_set(n, k)
        top = spectral_max(gamma, sampling.random_settings(rng, k))
        worst = np.maximum(worst, top - _TSIRELSON)
    return _result("bell-norm-ceiling", worst, 1e-8)


def check_pauli_commutator(rng, samples: int) -> CheckResult:
    worst = 0.0
    for n in range(2, 10):
        for k in range(1, n + 1):
            gamma = make_gamma_set(n, k)
            gap = gamma.gx @ gamma.gy - gamma.gy @ gamma.gx - 2.0j * gamma.gz
            worst = np.maximum(worst, float(np.max(np.abs(gap))))
    return _result("pauli-commutator", worst, 1e-12)


def _seesaw_cfg(rng) -> SeesawConfig:
    return SeesawConfig(restarts=4, max_iters=600, tol=1e-11,
                        seed=int(rng.integers(0, 2**32)))


def _closed_vs_seesaw(name: str, rng, cases, extra: str, constrain_y: bool = False):
    """Worst closed-form vs see-saw gap; ``cases`` yields each state before its seed is drawn."""
    worst = 0.0
    for state, k in cases:
        closed = max_violation_closed_form(state, k)
        oracle = seesaw_maximize(state, k, _seesaw_cfg(rng), constrain_y=constrain_y)
        worst = np.maximum(worst, abs(closed.value - oracle.value))
    return _result(name, worst, 1e-6, extra=extra)


def check_closed_vs_seesaw_even(rng, samples: int) -> CheckResult:
    count = max(6, samples // 4)
    draw = (sampling.pure_density, sampling.mixed_density)
    cases = ((draw[idx % 2](rng, (2, 4, 6)[idx % 3]), 1) for idx in range(count))
    return _closed_vs_seesaw("closed-vs-seesaw-even", rng, cases, f"{count} states")


def check_closed_vs_seesaw_schmidt(rng, samples: int) -> CheckResult:
    count = max(6, samples // 4)
    states = (sampling.schmidt_state(rng, (3, 5)[idx % 2]) for idx in range(count))
    cases = ((state, k) for state in states for k in range(1, state.dim + 1))
    return _closed_vs_seesaw("closed-vs-seesaw-schmidt", rng, cases, f"{count} states, all k")


def check_product_ceiling(rng, samples: int) -> CheckResult:
    worst = 0.0
    combos = [(n, k) for n in range(2, 7) for k in range(1, n + 1)]
    for idx in range(samples):
        n, k = combos[idx % len(combos)]
        rep = max_violation_closed_form(sampling.product_density(rng, n), k)
        worst = np.maximum(worst, rep.value - 2.0)
    return _result("product-state-ceiling", worst, 1e-9)


def check_isotropic_monotone(rng, samples: int) -> CheckResult:
    worst = 0.0
    for n in (3, 4):
        values = [
            max_violation_closed_form(IsotropicState(n, x), 1).value
            for x in np.linspace(0.0, 1.0, 101)
        ]
        for earlier, later in itertools.pairwise(values):
            worst = np.maximum(worst, later - earlier)
    return _result("isotropic-monotone", worst, 1e-12)


def check_gisin_constrained(rng, samples: int) -> CheckResult:
    count = max(6, samples // 4)
    states = (sampling.schmidt_state(rng, (3, 5)[idx % 2]) for idx in range(count))
    cases = ((state, state.dim) for state in states)
    return _closed_vs_seesaw("gisin-constrained", rng, cases, f"{count} states at k=N",
                             constrain_y=True)


def check_bell_value_identity(rng, samples: int) -> CheckResult:
    worst = 0.0
    for idx in range(samples):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        state = sampling.mixed_density(rng, n) if idx % 2 else sampling.pure_density(rng, n)
        settings = sampling.random_settings(rng, k)
        direct = bell_value(state, settings)
        reduced = bell_value_from_correlations(correlation_data(state, k), settings)
        worst = np.maximum(worst, abs(direct - reduced))
    return _result("bell-value-identity", worst, 1e-10)


def check_seesaw_determinism(rng, samples: int) -> CheckResult:
    state = sampling.pure_density(rng, 3)
    cfg = SeesawConfig(restarts=6, max_iters=300, tol=1e-11, seed=20240917)
    first = seesaw_maximize(state, 2, cfg)
    second = seesaw_maximize(state, 2, cfg)
    identical = (
        first.value == second.value
        and first.iterations_used == second.iterations_used
        and all(
            np.array_equal(getattr(first.settings, name), getattr(second.settings, name))
            for name in ("a1", "a2", "b1", "b2")
        )
    )
    return CheckResult(
        "seesaw-determinism",
        bool(identical),
        "bit-identical repeat" if identical else "repeat run diverged",
    )


def check_state_constructions(rng, samples: int) -> CheckResult:
    worst = 0.0
    for idx in range(max(4, samples // 10)):
        n = int(rng.integers(2, 6))
        schmidt = sampling.schmidt_state(rng, n)
        reduced = partial_trace(schmidt_to_density(schmidt), "a")
        target = np.diag([c * c for c in schmidt.coeffs])
        worst = np.maximum(worst, float(np.max(np.abs(reduced - target))))
        x = float(rng.uniform(0.0, 1.0))
        rho = isotropic_to_density(IsotropicState(n, x))
        values = hermitian_eigenvalues(rho.rho, atol=DENSITY_HERMITIAN_ATOL)
        floor = x / (n * n)
        worst = np.maximum(worst, float(np.max(np.abs(values[:-1] - floor))))
        worst = np.maximum(worst, abs(float(values[-1]) - (floor + 1.0 - x)))
    return _result("state-constructions", worst, 1e-10)


_CHECKS = (
    check_observable_dichotomy,
    check_observable_involution,
    check_bell_norm_ceiling,
    check_pauli_commutator,
    check_closed_vs_seesaw_even,
    check_closed_vs_seesaw_schmidt,
    check_product_ceiling,
    check_isotropic_monotone,
    check_gisin_constrained,
    check_bell_value_identity,
    check_seesaw_determinism,
    check_state_constructions,
)


def run_all_checks(seed: int, samples: int = 100) -> list[CheckResult]:
    """Run every suite with independent child seeds derived from ``seed``."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    children = np.random.SeedSequence(seed).spawn(len(_CHECKS))
    return [
        fn(np.random.default_rng(child), samples)
        for fn, child in zip(_CHECKS, children)
    ]
