"""Self-verification suites behind the ``verify`` CLI subcommand.

Each check re-derives one of the package invariants on seeded random
inputs, in stacks and batches that keep every bit. A bounded check yields
one deviation per comparison, and one runner judges them all: it keeps the
worst with ``np.max``, which unlike ``max`` keeps a NaN, so a NaN
deviation fails its check. The suites are deterministic: the same seed and
sample count always produce identical records, which the golden tests rely on.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import sampling, seesaw
from .linalg import hermitian_eigenvalues
from .operators import _bell_operators, _gamma_stack, make_gamma_set, observable
from .seesaw import SeesawConfig, _seesaw_batch, seesaw_maximize
from .states import (
    IsotropicState,
    isotropic_to_density,
    partial_trace,
    schmidt_to_density,
)
from .violation import _closed_values, _moments
# Unused here; kept because the traced bench wraps them (ROADMAP direction 2).
from .linalg import hermitian_eig, tensor  # noqa: F401
from .seesaw import bell_value, bell_value_from_correlations, spectral_max  # noqa: F401
from .violation import correlation_data, max_violation_closed_form  # noqa: F401

_TSIRELSON = 2.0 * math.sqrt(2.0)

_SLICE = 256  # problems per lazily drawn batch, shared by the closed-vs-see-saw checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_observable_dichotomy(rng, samples: int):
    for _ in range(samples):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n + 1))
        gamma = make_gamma_set(n, k)
        a = observable(gamma, sampling.unit3(rng))
        yield from np.abs(np.abs(hermitian_eigenvalues(a)) - 1.0)


def check_observable_involution(rng, samples: int):
    for _ in range(samples):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n + 1))
        a = observable(make_gamma_set(n, k), sampling.unit3(rng))
        yield float(np.max(np.abs(a @ a - np.eye(n))))


def check_bell_norm_ceiling(rng, samples: int):
    def draw():  # a sample's draws together, so no deviation depends on _SLICE
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        return n, k, sampling.unit3_stack(rng, 4)

    draws = (draw() for _ in range(samples))
    while batch := list(itertools.islice(draws, _SLICE)):
        ns, ks, directions = (np.array(x) for x in zip(*batch))
        tops = np.empty(len(batch))
        for n in set(ns.tolist()):  # one stack of Bell operators per N, dropped at once
            rows = np.flatnonzero(ns == n)
            tops[rows] = hermitian_eigenvalues(_bell_operators(
                _gamma_stack(n, ks[rows]), directions[rows]))[:, -1]
        yield from tops - _TSIRELSON


def check_pauli_commutator(rng, samples: int):
    for n in range(2, 10):
        gx, gy, gz, _ = _gamma_stack(n, range(1, n + 1))
        yield from np.max(np.abs(gx @ gy - gy @ gx - 2.0j * gz), axis=(1, 2))


def _state_count(samples: int) -> int:
    """States drawn by each closed-vs-see-saw check."""
    return max(6, samples // 4)


def _problems(checks, samples: int):
    """The problems ``(check index, constrain_y, (state, k, cfg))`` of the chained ``checks``,
    ``(_SeesawCheck, rng)`` pairs; each rng draws a case's seed after its state."""
    cfg = functools.partial(SeesawConfig, restarts=4, max_iters=600, tol=1e-11)
    return ((owner, check.constrain_y, (state, k, cfg(seed=int(rng.integers(0, 2**32)))))
            for owner, (check, rng) in enumerate(checks)
            for state, k in check.cases(rng, samples))


def _closed_vs_seesaw(checks, samples: int):
    """Closed-form vs see-saw gaps of the ``_problems`` of ``checks``, as ``(check index, gap,
    (case, constrain_y, see-saw row))``. Each ``_SLICE`` of the chain, whichever checks it
    spans, is one closed-form and one see-saw batch that read one ``_moments`` batch, a row
    bit-equal to a one-problem call."""
    problems = _problems(checks, samples)
    while batch := list(itertools.islice(problems, _SLICE)):
        owners, flags, cases = zip(*batch)
        t, *_, closed = _closed_values(cases)
        for owner, flag, case, value, oracle in zip(owners, flags, cases, closed.tolist(),
                                                    _seesaw_batch(cases, t, flags)):
            yield owner, abs(value - oracle.value), (case, flag, oracle)
        del batch, cases, case  # before the next slice is drawn


@dataclass(frozen=True)
class _SeesawCheck:
    """The closed-vs-see-saw check of the (state, k) ``cases(rng, samples)``, as a decorator of
    ``cases``. Alone it yields its gaps; ``run_all_checks`` chains the cases of all of them."""
    cases: object
    constrain_y: bool = False

    def __call__(self, rng, samples: int):
        return (gap for _, gap, _ in _closed_vs_seesaw([(self, rng)], samples))


def _schmidt_states(rng, samples: int):
    for idx in range(_state_count(samples)):
        yield sampling.schmidt_state(rng, (3, 5)[idx % 2])


@_SeesawCheck
def check_closed_vs_seesaw_even(rng, samples: int):
    draw = (sampling.pure_density, sampling.mixed_density)
    return ((draw[idx % 2](rng, (2, 4, 6)[idx % 3]), 1) for idx in range(_state_count(samples)))


@_SeesawCheck
def check_closed_vs_seesaw_schmidt(rng, samples: int):
    states = _schmidt_states(rng, samples)
    return ((state, k) for state in states for k in range(1, state.dim + 1))


def check_product_ceiling(rng, samples: int):
    combos = [(n, k) for n in range(2, 7) for k in range(1, n + 1)]
    cases = (combos[idx % len(combos)] for idx in range(samples))
    problems = ((sampling.product_density(rng, n), k) for n, k in cases)
    while batch := list(itertools.islice(problems, _SLICE)):
        yield from _closed_values(batch)[-1] - 2.0
        del batch  # before the next slice is drawn


def check_isotropic_monotone(rng, samples: int):
    grid = np.linspace(0.0, 1.0, 101)
    values = _closed_values([(IsotropicState(n, x), 1) for n in (3, 4) for x in grid])[-1]
    yield from np.diff(values.reshape(2, len(grid))).ravel()  # later - earlier, per N


@functools.partial(_SeesawCheck, constrain_y=True)
def check_gisin_constrained(rng, samples: int):
    return ((state, state.dim) for state in _schmidt_states(rng, samples))


def check_bell_value_identity(rng, samples: int):
    """``|bell_value - bell_value_from_correlations|`` per sample, one ``_SLICE`` at a time:
    the direct traces as one Bell operator stack per N, the reduced values as one moment
    batch, each with the bits of the one-sample call."""
    def draw(idx):  # a sample's draws together, so no deviation depends on _SLICE
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        state = sampling.mixed_density(rng, n) if idx % 2 else sampling.pure_density(rng, n)
        settings = sampling.random_settings(rng, k)
        return state, k, (settings.a1, settings.a2, settings.b1, settings.b2)

    draws = (draw(idx) for idx in range(samples))
    while batch := list(itertools.islice(draws, _SLICE)):
        states, ks, directions = zip(*batch)
        ns, ks, directions = np.array([s.dim for s in states]), np.array(ks), np.array(directions)
        direct = np.empty(len(batch))
        for n in set(ns.tolist()):  # one stack of Bell operators per N, dropped at once
            rows = np.flatnonzero(ns == n)
            ops = _bell_operators(_gamma_stack(n, ks[rows]), directions[rows])
            direct[rows] = np.einsum("irc,icr->i", [states[i].rho for i in rows], ops).real
        yield from np.abs(direct - seesaw._values_at(_moments(batch), directions))
        del batch, states, ops  # before the next slice is drawn


def check_seesaw_determinism(rng, samples: int, first=None) -> CheckResult:
    """Re-run a chained problem ``first = (case, constrain_y, batch row)`` alone, and compare
    the bytes of every field and setting, so 0.0 and -0.0 differ: a repeat and batch invariance
    at once. Alone, the check draws closed-vs-see-saw-even's first problem and runs a
    one-problem batch."""
    if first is None:
        _, flag, case = next(_problems([(check_closed_vs_seesaw_even, rng)], samples))
        first = case, flag, seesaw._seesaw_batch([case], _moments([case]), flag)[0]
    case, flag, row = first
    again = seesaw_maximize(*case, constrain_y=flag)
    pairs = ((row, again, ("value", "iterations_used", "restarts_used", "converged")),
             (row.settings, again.settings, ("a1", "a2", "b1", "b2")))
    identical = all(np.asarray(getattr(x, name)).tobytes() == np.asarray(getattr(y, name)).tobytes()
                    for x, y, names in pairs for name in names)
    return CheckResult(
        "seesaw-determinism",
        bool(identical),
        "bit-identical repeat" if identical else "repeat run diverged",
    )


def check_state_constructions(rng, samples: int):
    for idx in range(max(4, samples // 10)):
        n = int(rng.integers(2, 6))
        schmidt = sampling.schmidt_state(rng, n)
        reduced = partial_trace(schmidt_to_density(schmidt), "a")
        target = np.diag([c * c for c in schmidt.coeffs])
        yield float(np.max(np.abs(reduced - target)))
        x = float(rng.uniform(0.0, 1.0))
        rho = isotropic_to_density(IsotropicState(n, x))
        values = hermitian_eigenvalues(rho.rho)
        floor = x / (n * n)
        yield float(np.max(np.abs(values[:-1] - floor)))
        yield abs(float(values[-1]) - (floor + 1.0 - x))


#: (name, check, bound, detail suffix) in report order. A bounded check
#: yields deviations; a check without a bound returns its own record.
#: ``{count}`` in a suffix is the closed-vs-see-saw state count.
_CHECKS = (
    ("observable-dichotomy", check_observable_dichotomy, 1e-9, ""),
    ("observable-involution", check_observable_involution, 1e-10, ""),
    ("bell-norm-ceiling", check_bell_norm_ceiling, 1e-8, ""),
    ("pauli-commutator", check_pauli_commutator, 1e-12, ""),
    ("closed-vs-seesaw-even", check_closed_vs_seesaw_even, 1e-6, "{count} states"),
    ("closed-vs-seesaw-schmidt", check_closed_vs_seesaw_schmidt, 1e-6,
     "{count} states, all k"),
    ("product-state-ceiling", check_product_ceiling, 1e-9, ""),
    ("isotropic-monotone", check_isotropic_monotone, 1e-12, ""),
    ("gisin-constrained", check_gisin_constrained, 1e-6, "{count} states at k=N"),
    ("bell-value-identity", check_bell_value_identity, 1e-10, ""),
    ("seesaw-determinism", check_seesaw_determinism, None, ""),
    ("state-constructions", check_state_constructions, 1e-10, ""),
)


def _run(name: str, check, bound, suffix: str, rng, samples: int) -> CheckResult:
    if bound is None:
        return check(rng, samples)
    deviations, worst = check(rng, samples), 0.0
    # One _SLICE of deviations at a time; np.max, unlike max, keeps a NaN.
    while (chunk := np.fromiter(itertools.islice(deviations, _SLICE), float)).size:
        worst = np.max(chunk, initial=worst)
    detail = f"worst deviation {worst:.3e} (bound {bound:.1e})"
    if suffix:
        detail += "; " + suffix.format(count=_state_count(samples))
    return CheckResult(name, bool(worst <= bound), detail)


def run_all_checks(seed: int, samples: int = 100) -> list[CheckResult]:
    """Run every suite with independent child seeds derived from ``seed``; the
    closed-vs-see-saw checks take their gaps in turn from one chain of their cases,
    and seesaw-determinism repeats the chain's first problem."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    children = np.random.SeedSequence(seed).spawn(len(_CHECKS))
    rngs = [np.random.default_rng(child) for child in children]
    rows = _closed_vs_seesaw([(check, rng) for (_, check, *_), rng in zip(_CHECKS, rngs)
                              if isinstance(check, _SeesawCheck)], samples)
    head = next(rows, (None, None, None))  # the first chained problem and its row, if any
    groups = itertools.groupby(itertools.chain([head], rows), lambda row: row[0])
    repeat = {check_seesaw_determinism: functools.partial(check_seesaw_determinism, first=head[2])}

    def next_gaps(rng, samples):  # the gaps of the next chained check, which drew them
        return (gap for _, gap, _ in next(groups)[1])

    return [_run(name, next_gaps if isinstance(check, _SeesawCheck) else repeat.get(check, check),
                 bound, suffix, rng, samples)
            for (name, check, bound, suffix), rng in zip(_CHECKS, rngs)]
