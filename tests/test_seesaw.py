import math

import numpy as np
import pytest

from bellmax import sampling, seesaw
from bellmax.operators import BellSettings, make_gamma_set
from bellmax.seesaw import (
    OracleResult,
    SeesawConfig,
    _ascend,
    bell_value,
    bell_value_from_correlations,
    seesaw_maximize,
    spectral_max,
)
from bellmax.states import DensityMatrix, IsotropicState, SchmidtState, as_density
from bellmax.violation import correlation_data, max_violation_closed_form

ROOT2 = math.sqrt(2.0)
HALF = 1.0 / ROOT2

EXAMPLE_STATE = SchmidtState(3, (HALF, 0.0, HALF))


def tsirelson_settings(k: int = 1) -> BellSettings:
    return BellSettings(
        (0, 0, 1), (1, 0, 0),
        (HALF, 0, HALF), (-HALF, 0, HALF),
        k=k,
    )


def fast_cfg(seed: int = 0) -> SeesawConfig:
    return SeesawConfig(restarts=8, max_iters=500, tol=1e-11, seed=seed)


# ------------------------------------------------------------ bell_value

def test_bell_value_collapse():
    # equal settings: value is 2 Tr[rho A x A]
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        state = sampling.pure_density(rng, n)
        v = sampling.unit3(rng)
        settings = BellSettings(v, v, v, v, k=k)
        from bellmax.linalg import tensor
        from bellmax.operators import observable

        a = observable(make_gamma_set(n, k), v)
        expected = 2.0 * float(np.trace(state.rho @ tensor(a, a)).real)
        assert bell_value(state, settings) == pytest.approx(expected, abs=1e-12)


def test_bell_value_tsirelson():
    state = SchmidtState(2, (HALF, HALF))
    assert bell_value(state, tsirelson_settings()) == pytest.approx(2 * ROOT2, abs=1e-12)


def test_bell_value_maximally_mixed():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5):
        rho = DensityMatrix(n, np.eye(n * n, dtype=complex) / (n * n))
        k = 1 + n // 2
        settings = sampling.random_settings(rng, k)
        expected = 2.0 / (n * n) if n % 2 else 0.0
        assert bell_value(rho, settings) == pytest.approx(expected, abs=1e-12)


def test_trace_vs_decomposition_identity():
    # the central reduction: 500 random (state, settings) pairs
    rng = np.random.default_rng(19)
    worst = 0.0
    for idx in range(500):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        if idx % 3 == 0:
            state = sampling.mixed_density(rng, n)
        elif idx % 3 == 1:
            state = sampling.pure_density(rng, n)
        else:
            state = sampling.product_density(rng, n)
        settings = sampling.random_settings(rng, k)
        direct = bell_value(state, settings)
        reduced = bell_value_from_correlations(correlation_data(state, k), settings)
        worst = np.maximum(worst, abs(direct - reduced))
    assert worst <= 1e-10


# --------------------------------------------------------------- see-saw

def test_seesaw_example_state():
    res = seesaw_maximize(EXAMPLE_STATE, 2, fast_cfg())
    assert res.value == pytest.approx(2 * ROOT2, abs=1e-9)
    assert res.converged
    res3 = seesaw_maximize(EXAMPLE_STATE, 3, fast_cfg())
    assert res3.value == pytest.approx(2.0, abs=1e-9)


def test_seesaw_isotropic_even():
    res = seesaw_maximize(IsotropicState(4, 0.2), 1, fast_cfg())
    assert res.value == pytest.approx(2 * ROOT2 * 0.8, abs=1e-9)


def test_seesaw_product_state_classical():
    rng = np.random.default_rng(29)
    for n in (2, 3, 4):
        state = sampling.product_density(rng, n)
        for k in range(1, n + 1):
            res = seesaw_maximize(state, k, fast_cfg())
            assert res.value <= 2.0 + 1e-8


def test_seesaw_never_undershoots_closed_form():
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        state = (
            sampling.schmidt_state(rng, n) if n % 2 else sampling.mixed_density(rng, n)
        )
        closed = max_violation_closed_form(state, k)
        res = seesaw_maximize(state, k, fast_cfg())
        assert res.value >= closed.value - 1e-9


def test_seesaw_determinism():
    state = sampling.pure_density(np.random.default_rng(101), 3)
    cfg = SeesawConfig(restarts=6, max_iters=300, tol=1e-11, seed=424242)
    first = seesaw_maximize(state, 2, cfg)
    second = seesaw_maximize(state, 2, cfg)
    assert first.value == second.value
    assert first.iterations_used == second.iterations_used
    assert first.converged == second.converged
    for name in ("a1", "a2", "b1", "b2"):
        np.testing.assert_array_equal(
            getattr(first.settings, name), getattr(second.settings, name)
        )


def test_seesaw_draws_each_start_when_its_restart_runs(monkeypatch):
    # A start is drawn only when its restart begins, so a huge restart
    # count allocates nothing up front; restart 0 is the warm start.
    draws = []

    def counting_unit3(rng):
        draws.append(1)
        return sampling.unit3(rng)

    def first_ascent(*args):
        raise RuntimeError("first ascent")

    monkeypatch.setattr(seesaw, "unit3", counting_unit3)
    monkeypatch.setattr(seesaw, "_ascend", first_ascent)
    with pytest.raises(RuntimeError, match="first ascent"):
        seesaw_maximize(EXAMPLE_STATE, 2, SeesawConfig(restarts=1000))
    assert draws == []


def test_seesaw_ascent_monotone(monkeypatch):
    # Every value _ascend computes, recorded through its _value calls.
    history = []
    value = seesaw._value

    def recording_value(*args):
        history.append(value(*args))
        return history[-1]

    monkeypatch.setattr(seesaw, "_value", recording_value)
    rng = np.random.default_rng(71)
    cfg = SeesawConfig(restarts=1, max_iters=200, tol=1e-14, seed=5)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        corr = correlation_data(sampling.mixed_density(rng, n), k)
        start = tuple(sampling.unit3(rng) for _ in range(4))
        history.clear()
        _, _, iterations, _ = _ascend(corr, start, cfg)
        assert len(history) == iterations + 1
        diffs = np.diff(history)
        assert np.all(diffs >= -1e-12)


def test_seesaw_ceiling():
    rng = np.random.default_rng(83)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        res = seesaw_maximize(sampling.pure_density(rng, n), 1, fast_cfg())
        assert res.value <= 2 * ROOT2 + 1e-8


def test_seesaw_degenerate_state_converges():
    # maximally mixed even-dim state: R = 0, every update degenerates
    rho = DensityMatrix(2, np.eye(4, dtype=complex) / 4.0)
    res = seesaw_maximize(rho, 1, fast_cfg())
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.converged


def test_config_validation():
    with pytest.raises(ValueError, match="restarts"):
        SeesawConfig(restarts=0)
    for tol in (0.0, math.inf):
        with pytest.raises(ValueError, match="tol"):
            SeesawConfig(tol=tol)
    assert isinstance(seesaw_maximize(EXAMPLE_STATE, 2), OracleResult)


# ---------------------------------------------------------- spectral max

def test_spectral_max_tsirelson():
    assert spectral_max(make_gamma_set(2), tsirelson_settings()) == pytest.approx(
        2 * ROOT2, abs=1e-10
    )


def test_spectral_max_collapse():
    v = (0.0, 0.0, 1.0)
    settings = BellSettings(v, v, v, v, k=1)
    assert spectral_max(make_gamma_set(2), settings) == pytest.approx(2.0, abs=1e-12)


def test_spectral_max_block_reduction():
    # Tsirelson directions acting on the (1, 3) block of the 3-dim system
    assert spectral_max(make_gamma_set(3, 2), tsirelson_settings(k=2)) == pytest.approx(
        2 * ROOT2, abs=1e-9
    )


def test_bell_value_dominated_by_spectral_max():
    rng = np.random.default_rng(97)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        settings = sampling.random_settings(rng, k)
        state = sampling.pure_density(rng, n)
        assert bell_value(state, settings) <= spectral_max(
            make_gamma_set(n, k), settings
        ) + 1e-9


def test_seesaw_value_dominated_at_its_own_optimum():
    # the converged value is Tr[rho B(s*)], so the top eigenvalue of
    # B(s*) must dominate it; with rho the projector onto that top
    # eigenvector the spectral bound is attained exactly
    from bellmax.linalg import hermitian_eig
    from bellmax.operators import bell_operator
    from bellmax.states import DensityMatrix

    rng = np.random.default_rng(131)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        state = sampling.pure_density(rng, n)
        res = seesaw_maximize(state, k, fast_cfg())
        gamma = make_gamma_set(n, k)
        top = spectral_max(gamma, res.settings)
        assert res.value <= top + 1e-9
        values, vectors = hermitian_eig(bell_operator(gamma, res.settings))
        top_vec = vectors[:, -1]
        projector = DensityMatrix(n, np.outer(top_vec, top_vec.conj()))
        assert bell_value(projector, res.settings) == pytest.approx(top, abs=1e-9)


def test_gisin_constrained_matches_closed_form():
    rng = np.random.default_rng(113)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        state = sampling.schmidt_state(rng, n)
        closed = max_violation_closed_form(state, n)
        res = seesaw_maximize(state, n, fast_cfg(), constrain_y=True)
        assert res.value == pytest.approx(closed.value, abs=1e-6)
        assert abs(res.settings.a1[1]) == 0.0
        assert abs(res.settings.b2[1]) == 0.0
