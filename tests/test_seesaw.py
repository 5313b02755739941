import itertools
import math
import warnings

import numpy as np
import pytest

from bellmax import sampling, seesaw, violation
from bellmax.operators import BellSettings, make_gamma_set
from bellmax.seesaw import (
    OracleResult,
    SeesawConfig,
    _seesaw_batch,
    bell_value,
    bell_value_from_correlations,
    seesaw_maximize,
    spectral_max,
)
from bellmax.states import DensityMatrix, IsotropicState, SchmidtState, as_density
from bellmax.violation import (
    _upper_bounds,
    best_k,
    correlation_data,
    max_violation_closed_form,
    optimal_settings,
    oracle_report,
    scan_k,
)

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


def seesaw_batch(problems, constrain_y=False):
    """``_seesaw_batch`` on ``problems`` with their moments."""
    return _seesaw_batch(problems, seesaw._moments(problems), constrain_y)


#: Factors from the moments ``T`` to the moment stack ``m`` of the tests: 1 on ``R``, 2 on
#: ``g``, ``h`` and ``p``.
_DOUBLED = np.pad(np.ones((3, 3)), (0, 1), constant_values=2.0)[..., None]


def moment_stack(t):
    """The moment stack ``m`` ``(4, 4, n)`` of the moments ``T`` ``(n, 4, 4)``: ``m[:3, :3] =
    R``, ``m[:3, 3] = 2g``, ``m[3, :3] = 2h``, ``m[3, 3] = 2p``."""
    return t.transpose(1, 2, 0) * _DOUBLED


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


def test_seesaw_pick_survives_one_ulp_in_r(monkeypatch):
    # Schmidt states at k = N: several restarts reach the same optimum,
    # with values that differ only in the last bits.
    moments = seesaw._moments

    def one_ulp_larger(problems):
        t = moments(problems).copy()
        t[:, :3, :3] *= 1.0 + 2.0 ** -52
        return t

    rng = np.random.default_rng(0)
    for n, constrain_y in ((3, False), (3, True), (5, False), (5, True)):
        for seed in range(5):
            state = sampling.schmidt_state(rng, n)
            cfg = SeesawConfig(restarts=8, seed=seed)
            base = seesaw_maximize(state, n, cfg, constrain_y=constrain_y)
            monkeypatch.setattr(seesaw, "_moments", one_ulp_larger)
            moved = seesaw_maximize(state, n, cfg, constrain_y=constrain_y)
            monkeypatch.setattr(seesaw, "_moments", moments)
            assert moved.iterations_used == base.iterations_used
            for name in ("a1", "a2", "b1", "b2"):
                np.testing.assert_allclose(getattr(moved.settings, name),
                                           getattr(base.settings, name), atol=1e-9)


def test_seesaw_draws_each_start_when_its_restart_runs(monkeypatch):
    # Starts are drawn a chunk at a time, just before the chunk's ascent, so
    # a huge restart count draws and allocates at most one chunk up front,
    # for one problem and for a batch of problems with distinct seeds.
    draws = {}

    def counting_unit3_stack(rng, count):
        draws[id(rng)] = draws.get(id(rng), 0) + count
        return sampling.unit3_stack(rng, count)

    def first_ascent(*args):
        raise RuntimeError("first ascent")

    monkeypatch.setattr(seesaw, "unit3_stack", counting_unit3_stack)
    monkeypatch.setattr(seesaw, "_climb", first_ascent)
    restarts = 100 * seesaw._CHUNK_ROWS
    for seeds in ((0,), (0, 1, 2)):
        draws.clear()
        problems = [(EXAMPLE_STATE, 2, SeesawConfig(restarts=restarts, seed=seed))
                    for seed in seeds]
        with pytest.raises(RuntimeError, match="first ascent"):
            seesaw_batch(problems)
        assert len(draws) == len(seeds)
        assert max(draws.values()) <= 4 * seesaw._CHUNK_ROWS
    with pytest.raises(RuntimeError, match="first ascent"):
        seesaw_maximize(EXAMPLE_STATE, 2, SeesawConfig(restarts=restarts))


def test_seesaw_ascent_monotone(monkeypatch):
    # Every value _climb computes for every row of the batch: the see-saw values
    # of its first _SEESAW_ITERS iterations, recorded through _value, then F at
    # each point of its Newton steps, recorded through _newton_parts by running
    # _newton on the row alone. No row's value decreases, Newton steps included;
    # a row's see-saw stops at its first step of at most cfg.tol and keeps its
    # bits; the Newton stage starts where the see-saw stopped, and a row it
    # moves reports the last F it reached, with the same bits as in the batch.
    history, newton_runs, returned = [], [], []
    value, climb, newton, parts = (seesaw._value, seesaw._climb, seesaw._newton,
                                   seesaw._newton_parts)

    def recording_value(*args):
        history.append(value(*args))
        return history[-1]

    def recording_newton(*args):
        newton_runs.append((args, newton(*args)))
        return newton_runs[-1][1]

    def recording_climb(*args):
        returned.append(climb(*args))
        return returned[-1]

    monkeypatch.setattr(seesaw, "_value", recording_value)
    monkeypatch.setattr(seesaw, "_newton", recording_newton)
    monkeypatch.setattr(seesaw, "_climb", recording_climb)
    rng = np.random.default_rng(71)
    cfg = SeesawConfig(restarts=4, max_iters=200, tol=1e-14, seed=5)
    newton_rows = 0
    for _ in range(15):
        n = int(rng.integers(2, 6))
        history.clear()
        newton_runs.clear()
        returned.clear()
        state = sampling.mixed_density(rng, n)
        seesaw_batch([(state, k, cfg) for k in range(1, n + 1)])
        (final, used, converged, _), = returned  # one chunk
        values = np.array(history)
        assert values.shape[0] <= seesaw._SEESAW_ITERS + 1 and values.shape[1] == 4 * n
        assert np.all(np.diff(values, axis=0) >= -1e-12)
        stops = np.abs(np.diff(values, axis=0)) <= cfg.tol
        seesaw_used = np.where(stops.any(axis=0), stops.argmax(axis=0) + 1, len(values) - 1)
        for row, stop in enumerate(seesaw_used):
            assert np.all(values[stop:, row] == values[stop, row])
        (args, (polished, steps, newton_converged, _)), = newton_runs
        assert np.array_equal(args[2], cfg.max_iters - seesaw_used)  # each row's budget
        assert np.array_equal(used, seesaw_used + steps)
        assert np.array_equal(converged, newton_converged)
        assert np.array_equal(final, np.where(steps > 0, polished, values[-1]))
        for row in np.flatnonzero(steps):
            path = []

            def recording_parts(*row_args):
                path.append(parts(*row_args)[0][0])
                return parts(*row_args)

            monkeypatch.setattr(seesaw, "_newton_parts", recording_parts)
            alone = newton(*(x[..., [row]] for x in args[:3]), args[3])
            monkeypatch.setattr(seesaw, "_newton_parts", parts)
            assert (alone[0][0], alone[1][0]) == (polished[row], steps[row])
            assert len(path) == steps[row] + 1 and path[-1] == polished[row]
            assert path[0] >= values[-1, row] - 1e-12
            assert np.all(np.diff(path) >= -1e-12)
            newton_rows += 1
    assert newton_rows >= 10


def _newton_reference(r, g, h, p, b1, b2, budget, tol):
    """The Newton stage of one row on 3-vectors, from the Hessian blocks
    ``A = R^T (P_u/|u| + P_v/|v|) R`` and ``B = R^T (P_u/|u| - P_v/|v|) R`` in tangent
    bases from an SVD: ``(value, (a1, a2, b1, b2), steps, converged)``."""

    def surface(b1, b2):
        u, v = r @ (b1 + b2) + 2.0 * g, r @ (b1 - b2)
        return float(np.linalg.norm(u) + np.linalg.norm(v) + 2.0 * (b1 @ h) + 2.0 * p), u, v

    def norm(v):  # floored as in _newton_parts, for R = 0
        return max(float(np.linalg.norm(v)), 1e-150)

    def unit(v):
        return v / norm(v)

    for step in range(budget + 1):
        f, u, v = surface(b1, b2)
        uh, vh = unit(u), unit(v)
        grad1, grad2 = r.T @ (uh + vh) + 2.0 * h, r.T @ (uh - vh)
        t1, t2 = (np.linalg.svd(b[None])[2][1:].T for b in (b1, b2))
        pu = (np.eye(3) - np.outer(uh, uh)) / norm(u)
        pv = (np.eye(3) - np.outer(vh, vh)) / norm(v)
        a, b = r.T @ (pu + pv) @ r, r.T @ (pu - pv) @ r
        grad = np.concatenate((t1.T @ grad1, t2.T @ grad2))
        hess = np.block([[t1.T @ a @ t1 - (b1 @ grad1) * np.eye(2), t1.T @ b @ t2],
                         [t2.T @ b @ t1, t2.T @ a @ t2 - (b2 @ grad2) * np.eye(2)]])
        shift = 2.0 * max(np.linalg.eigvalsh(hess)[-1], 0.0) + np.linalg.norm(grad) + 1e-12
        move = np.linalg.solve(hess - shift * np.eye(4), -grad)
        small = grad @ move / 2 <= tol
        if small or step == budget:
            return f, (uh, vh, b1, b2), step, bool(small)
        tries = [(unit(b1 + scale * (t1 @ move[:2])), unit(b2 + scale * (t2 @ move[2:])))
                 for scale in (1.0, 0.5, 0.25, 0.125)]
        _, u, v = surface(*tries[0])  # the full step, then a see-saw step
        tries.append((unit(r.T @ (unit(u) + unit(v)) + 2.0 * h), unit(r.T @ (unit(u) - unit(v)))))
        for candidate in tries:
            if surface(*candidate)[0] > f:
                b1, b2 = candidate
                break
        else:
            b1, b2 = unit(grad1), unit(grad2)


def seesaw_reference(state, k, cfg, constrain_y=False):
    """The ascent one restart at a time on 3-vectors: see-saw iterations as they ran
    before the batch, at most ``_SEESAW_ITERS`` of them, then ``_newton_reference`` for
    the rest of ``cfg.max_iters``, which keeps the see-saw result of a row that is already
    stationary. Returns the picked (value, (a1, a2, b1, b2), iterations, converged)."""
    corr = correlation_data(state, k)
    r, g, h = corr.r.copy(), corr.g.copy(), corr.h.copy()
    if constrain_y:
        r[1, :] = r[:, 1] = g[1] = h[1] = 0.0

    def value(a1, a2, b1, b2):
        return float(a1 @ (r @ (b1 + b2)) + a2 @ (r @ (b1 - b2))
                     + 2.0 * (a1 @ g) + 2.0 * (b1 @ h) + 2.0 * corr.p)

    def step(target, previous):
        norm = float(np.linalg.norm(target))
        return previous if norm < 1e-300 else target / norm

    def project(v, fallback):
        v = np.array([v[0], 0.0, v[2]])
        norm = float(np.linalg.norm(v))
        return np.array(fallback, dtype=float) if norm < 1e-12 else v / norm

    def seesaw_stage(a1, a2, b1, b2):
        current = value(a1, a2, b1, b2)
        limit = min(cfg.max_iters, seesaw._SEESAW_ITERS)
        for iterations in range(1, limit + 1):
            a1 = step(r @ (b1 + b2) + 2.0 * g, a1)
            a2 = step(r @ (b1 - b2), a2)
            b1 = step(r.T @ (a1 + a2) + 2.0 * h, b1)
            b2 = step(r.T @ (a1 - a2), b2)
            updated = value(a1, a2, b1, b2)
            if abs(updated - current) <= cfg.tol:
                return updated, (a1, a2, b1, b2), iterations, True
            current = updated
        return current, (a1, a2, b1, b2), limit, False

    def ascend(*vectors):
        run = seesaw_stage(*vectors)
        polished = _newton_reference(r, g, h, corr.p, *run[1][2:], cfg.max_iters - run[2],
                                     cfg.tol)
        if polished[2] == 0:
            return run[0], run[1], run[2], polished[3]
        return polished[0], polished[1], run[2] + polished[2], polished[3]

    rng = np.random.default_rng(cfg.seed)
    records = []
    for _ in range(cfg.restarts):
        vectors = tuple(sampling.unit3(rng) for _ in range(4))
        if constrain_y:
            vectors = tuple(map(project, vectors, ((0, 0, 1), (1, 0, 0)) * 2))
        run = ascend(*vectors)
        if not records or run[0] > records[-1][0]:
            records = [rec for rec in records if rec[0] >= run[0] - cfg.tol] + [run]
    return records[0]


def test_seesaw_batch_matches_per_restart_reference():
    rng = np.random.default_rng(2024)
    draw = (sampling.pure_density, sampling.mixed_density, sampling.schmidt_state)
    cases = []
    for idx in range(102):
        n = 2 + idx % 6
        cases.append((draw[idx % 3](rng, n), int(rng.integers(1, n + 1)), idx % 4 == 3))
    for n in (2, 3):  # R = 0: every update degenerates
        cases.append((DensityMatrix(n, np.eye(n * n, dtype=complex) / (n * n)), 1, False))
    newton_picks = 0
    for idx, (state, k, constrain_y) in enumerate(cases):
        cfg = SeesawConfig(restarts=8, seed=idx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = seesaw_maximize(state, k, cfg, constrain_y=constrain_y)
        value, vectors, iterations, converged = seesaw_reference(state, k, cfg, constrain_y)
        assert abs(res.value - value) <= 1e-12
        assert (res.iterations_used, res.converged) == (iterations, converged)
        for name, vec in zip(("a1", "a2", "b1", "b2"), vectors):
            np.testing.assert_allclose(getattr(res.settings, name), vec, rtol=0, atol=1e-9)
        newton_picks += iterations > seesaw._SEESAW_ITERS
    assert newton_picks >= 5  # picks that took Newton steps are compared too


def test_small_budget_converges_only_at_stationary_points():
    # A max_iters of at most _SEESAW_ITERS still ends in the Newton stop test. On
    # near-uniform Schmidt states, whose R has near-equal singular values, the
    # see-saw's value-change stop alone fires up to 1.6e-8 below the closed form.
    rng = np.random.default_rng(0)
    for idx in range(100):
        n = int(rng.choice([2, 4, 6]))
        coeffs = np.ones(n) + 1e-4 * rng.normal(size=n)
        state = SchmidtState(n, tuple(coeffs / np.linalg.norm(coeffs)))
        cfg = SeesawConfig(restarts=4, max_iters=(1, 2, 5, 20)[idx % 4], seed=idx)
        res = seesaw_maximize(state, 1, cfg)
        value, _, iterations, converged = seesaw_reference(state, 1, cfg)
        assert abs(res.value - value) <= 1e-12
        assert (res.iterations_used, res.converged) == (iterations, converged)
        assert iterations <= cfg.max_iters
        if converged:
            assert max_violation_closed_form(state, 1).value - res.value <= 1e-9


def _assert_same_result(first, second):
    assert first.value == second.value
    assert first.iterations_used == second.iterations_used
    assert first.converged == second.converged
    for name in ("a1", "a2", "b1", "b2"):
        assert np.array_equal(getattr(first.settings, name), getattr(second.settings, name))


def _record_batches(monkeypatch) -> list:
    """Patch ``_seesaw_batch`` to append each call's ``(problems, results)`` to the list."""
    batch, calls = seesaw._seesaw_batch, []

    def recording_batch(problems, *args):
        calls.append((problems, batch(problems, *args)))
        return calls[-1][1]

    monkeypatch.setattr(seesaw, "_seesaw_batch", recording_batch)
    return calls


def test_best_k_fallback_runs_only_ks_that_can_win(monkeypatch):
    # best_k's fallback runs the k with the largest upper bound alone, then
    # the other ks whose bound reaches its value, in one batch in ascending k.
    # Each k that runs is bit-equal to the single-k call; each k that is
    # skipped has its bound below the lead's value.
    calls = _record_batches(monkeypatch)
    rng = np.random.default_rng(37)
    cfg = SeesawConfig(seed=4)
    for n in (3, 3, 5, 5, 7):
        state = sampling.mixed_density(rng, n)
        calls.clear()
        fallback = best_k(state, cfg)
        (_, (lead,)), *rest = calls
        assert len(rest) <= 1
        stage2 = [row.settings.k for _, rows in rest for row in rows]
        assert stage2 == sorted(stage2)
        ran = {row.settings.k: row for _, rows in calls for row in rows}
        reports = scan_k(state)
        bounds = _upper_bounds(seesaw._moments([(state, rep.k) for rep in reports]), reports)
        assert lead.settings.k == np.argmax(bounds) + 1
        assert fallback.method == "oracle"
        assert fallback.value == max(row.value for row in ran.values())
        for k, row in ran.items():
            _assert_same_result(row, seesaw_maximize(state, k, cfg))
        for k in set(range(1, n + 1)) - set(ran):
            assert bounds[k - 1] < lead.value


def test_pruned_best_k_matches_all_k_reference(monkeypatch):
    # The pruned fallback gives the report, and the see-saw result behind it,
    # of one see-saw batch of every k, at the default tol and at 1e-13:
    # with and without a second stage, and where the lead k does not win.
    calls = _record_batches(monkeypatch)
    rng = np.random.default_rng(59)
    staged = lead_lost = cases = 0
    for tol in (SeesawConfig.tol, 1e-13):
        for seed in range(4):
            for n in (3, 5, 7):
                state = sampling.mixed_density(rng, n)
                cfg = SeesawConfig(seed=seed, tol=tol)
                reports = scan_k(state)
                calls.clear()
                pruned = best_k(state, cfg, reports)
                everything = seesaw_batch([(state, rep.k, cfg) for rep in reports])
                reference = max(map(oracle_report, reports, everything), key=lambda r: r.value)
                assert pruned == reference
                chosen, = (row for _, rows in calls for row in rows if row.settings.k == pruned.k)
                _assert_same_result(chosen, everything[pruned.k - 1])
                cases += 1
                staged += len(calls) == 2
                lead_lost += calls[0][1][0].settings.k != pruned.k
    assert 0 < lead_lost < staged < cases


def test_best_k_sends_few_problems_to_the_see_saw(monkeypatch):
    # On fixed seeded odd-N densities the bound leaves well under half of the
    # N problems per state to the see-saw: one lead, and few others. Given its
    # closed-form reports, best_k computes the moments of its ks once, for the
    # bounds and both see-saw batches.
    calls, moments = _record_batches(monkeypatch), []

    def counted(moments_of):
        def wrapper(problems):
            moments.append(len(problems))
            return moments_of(problems)
        return wrapper

    for module in (violation, seesaw):
        monkeypatch.setattr(module, "_moments", counted(module._moments))
    rng = np.random.default_rng(61)
    sizes = (3, 5, 7) * 6
    for seed, n in enumerate(sizes):
        state = sampling.mixed_density(rng, n)
        reports = scan_k(state)
        moments.clear()
        assert best_k(state, SeesawConfig(seed=seed), reports).method == "oracle"
        assert moments == [n]
    sent = sum(len(problems) for problems, _ in calls)
    assert sent == 24
    assert sent < sum(sizes) / 2


def test_seesaw_chunks_match_one_batch(monkeypatch):
    # Restarts beyond the row budget run in chunks; the tie rule folds them
    # in restart order, so the pick does not depend on where chunks break.
    climb = seesaw._climb
    chunks = []

    def counting_climb(*args):
        chunks.append(1)
        return climb(*args)

    rng = np.random.default_rng(23)
    cfg = SeesawConfig(restarts=13, seed=8)
    cases = ((sampling.mixed_density(rng, 5), [1, 2, 3, 4, 5], False),
             (sampling.pure_density(rng, 4), [2], False),
             (sampling.schmidt_state(rng, 3), [3], True))
    for state, ks, constrain_y in cases:
        problems = [(state, k, cfg) for k in ks]
        whole = seesaw_batch(problems, constrain_y)
        monkeypatch.setattr(seesaw, "_CHUNK_ROWS", 5)
        monkeypatch.setattr(seesaw, "_climb", counting_climb)
        chunks.clear()
        chunked = seesaw_batch(problems, constrain_y)
        monkeypatch.undo()
        assert len(chunks) >= 2
        for first, second in zip(whole, chunked, strict=True):
            _assert_same_result(first, second)


def test_heterogeneous_batch_rows_equal_single_problem_calls(monkeypatch):
    # One batch of pure, mixed and Schmidt states, N 2-7, several k per state,
    # distinct and shared seeds, in chunks of 5 rows, with the switch to Newton
    # steps after 3 see-saw iterations and after the default: every row is
    # bit-equal to seesaw_maximize on its own problem.
    rng = np.random.default_rng(41)
    draw = (sampling.pure_density, sampling.mixed_density, sampling.schmidt_state)
    problems = []
    for idx in range(12):
        n = 2 + idx % 6
        state = draw[idx % 3](rng, n)
        for k in sorted({1, n, int(rng.integers(1, n + 1))}):
            seed = idx % 3 if idx % 2 else 100 + len(problems)
            problems.append((state, k, SeesawConfig(restarts=7, seed=seed)))
    # Mixed flags: constrained and free problems alternate, and an odd-N mixed density,
    # whose R has a nonzero y column and whose h_y is nonzero, comes twice with the same
    # seed, once with each flag. A constrained row's settings have y parts exactly 0,
    # which a y row zeroed without its column would not give.
    twin = 3  # the mixed density of idx 1, N = 3, at k = 2
    mixed = problems[:twin + 1] + problems[twin:]
    flags = [pos % 2 == 1 for pos in range(len(mixed))]
    t = seesaw._moments(mixed[twin:twin + 1])[0]
    assert min(abs(t[0, 1]), abs(t[2, 1]), abs(t[3, 1])) > 1e-3
    monkeypatch.setattr(seesaw, "_CHUNK_ROWS", 5)
    runs = ((problems, False), (problems, True), (mixed, flags))
    for switch, (batch_problems, constrain_y) in itertools.product((3, seesaw._SEESAW_ITERS), runs):
        monkeypatch.setattr(seesaw, "_SEESAW_ITERS", switch)  # 3: most rows take Newton steps
        batch = seesaw_batch(batch_problems, constrain_y)
        row_flags = np.broadcast_to(constrain_y, len(batch_problems)).tolist()
        for (state, k, cfg), flag, row in zip(batch_problems, row_flags, batch, strict=True):
            assert (row.settings.k, row.restarts_used) == (k, cfg.restarts)
            _assert_same_result(row, seesaw_maximize(state, k, cfg, constrain_y=flag))
            if flag:
                assert all(getattr(row.settings, name)[1] == 0.0
                           for name in ("a1", "a2", "b1", "b2"))
    with pytest.raises(ValueError, match="differ only in seed"):
        seesaw_batch([(EXAMPLE_STATE, 2, SeesawConfig(restarts=4)),
                      (EXAMPLE_STATE, 2, SeesawConfig(restarts=5))])


def test_newton_stack_matches_each_row(monkeypatch):
    # One _newton call for a stack of rows gives every row the bits it gets
    # alone and in any order: its eigvalsh and solve work matrix by matrix.
    newton, calls = seesaw._newton, []

    def recording_newton(*args):
        calls.append(args)
        return newton(*args)

    monkeypatch.setattr(seesaw, "_SEESAW_ITERS", 3)
    monkeypatch.setattr(seesaw, "_newton", recording_newton)
    rng = np.random.default_rng(43)
    problems = [(sampling.mixed_density(rng, n), k, SeesawConfig(restarts=6, seed=n))
                for n in (3, 4, 5) for k in range(1, n + 1)]
    seesaw_batch(problems)
    (*stacks, budget, tol), = calls
    whole = newton(*stacks, budget, tol)
    assert np.count_nonzero(whole[1]) >= 20
    order = rng.permutation(budget.size)
    shuffled = newton(*(x[..., order] for x in stacks), budget[order], tol)
    for first, second in zip(whole, shuffled):
        assert np.array_equal(first[..., order], second)
    for row in range(budget.size):
        alone = newton(*(x[..., [row]] for x in stacks), budget[[row]], tol)
        for first, second in zip(whole, alone):
            assert np.array_equal(first[..., [row]], second)


def test_moment_stack_matches_3x3_algebra(monkeypatch):
    # The moment stack of random moments T against plain 3x3 algebra with @: the
    # b-step targets, the a-step targets of the transposed stack, F, and the stack
    # that _seesaw_batch ascends with constrain_y, whose y row and column are zero.
    rng = np.random.default_rng(59)
    n = 50
    t = rng.normal(size=(n, 4, 4))
    r, g, h, p = t[:, :3, :3], t[:, :3, 3], t[:, 3, :3], t[:, 3, 3]
    a, b = (seesaw._unit(rng.normal(size=(3, 2, n)), 0.0) for _ in range(2))
    (a1, a2), (b1, b2) = a.transpose(1, 2, 0), b.transpose(1, 2, 0)  # each (n, 3)

    def times(matrix, v):
        return (matrix @ v[..., None])[..., 0]

    def close(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)

    rt = r.swapaxes(1, 2)
    t1, t2 = seesaw._targets(seesaw._Stack.cut(t), a).transpose(1, 2, 0)
    close(t1, times(rt, a1 + a2) + 2.0 * h)
    close(t2, times(rt, a1 - a2))
    u, v = seesaw._targets(seesaw._Stack.cut(t), b, 1).transpose(1, 2, 0)
    close(u, times(r, b1 + b2) + 2.0 * g)
    close(v, times(r, b1 - b2))
    close(seesaw._surface(seesaw._Stack.cut(t), b)[0],
          np.linalg.norm(u, axis=1) + np.linalg.norm(v, axis=1) + 2.0 * np.vecdot(b1, h) + 2.0 * p)

    climbed = []

    def first_ascent(stack, *args):
        climbed.append(stack)
        raise RuntimeError("first ascent")

    monkeypatch.setattr(seesaw, "_climb", first_ascent)
    state = sampling.mixed_density(rng, 5)
    cfg = SeesawConfig(restarts=2)
    with pytest.raises(RuntimeError, match="first ascent"):
        seesaw_batch([(state, k, cfg) for k in range(1, 6)], constrain_y=True)
    (stack,) = climbed
    stack = moment_stack(stack)
    for row in range(stack.shape[-1]):
        corr = correlation_data(state, 1 + row // cfg.restarts)
        r, g, h = corr.r.copy(), corr.g.copy(), corr.h.copy()
        r[1, :] = r[:, 1] = g[1] = h[1] = 0.0
        assert np.array_equal(stack[:3, :3, row], r)
        assert np.array_equal(stack[:3, 3, row], 2.0 * g)
        assert np.array_equal(stack[3, :3, row], 2.0 * h)
        assert stack[3, 3, row] == 2.0 * corr.p


def eager_line_search(t, b, move, euclid, f):
    """The line search that tries every candidate on every row: each length of
    ``_SCALES``, the full step followed by a see-saw step and the see-saw step. It takes
    the first that raises ``F``, else the see-saw step."""
    tries = seesaw._unit(b[:, :, None] + seesaw._SCALES[:, None] * move[:, :, None], 0.0)
    uv = seesaw._targets(seesaw._Stack.cut(t), tries[:, :, 0], 1)
    a = uv / np.maximum(np.sqrt(seesaw._sum3(uv * uv)), seesaw._NORM_FLOOR)
    corrected = seesaw._unit(seesaw._targets(seesaw._Stack.cut(t), a), tries[:, :, 0], 1e-300)
    tries = np.concatenate((tries, corrected[:, :, None],
                            seesaw._unit(euclid, b, 1e-300)[:, :, None]), 2)
    count = tries.shape[2]
    rises = seesaw._surface(seesaw._Stack.cut(np.tile(t, (count, 1, 1))),
                            tries.reshape(3, 2, -1))[0].reshape(count, -1) > f
    pick = np.where(rises[:-1].any(0), rises[:-1].argmax(0), count - 1)
    return tries[:, :, pick, np.arange(len(pick))], pick


def line_search_stacks():
    """Random ``_line_search`` inputs ``(t, b, move, euclid, f)`` with steps of many sizes,
    plus rows forced to fail the full step (f at F of the full step) and rows forced to
    fail every length (f = inf) and take the see-saw step."""
    rng = np.random.default_rng(17)
    for n in (1, 5, 64, 300):
        m = np.empty((4, 4, n))  # the moment stack: R, 2g, 2h, 2p
        m[:3, :3] = rng.normal(size=(n, 3, 3)).transpose(1, 2, 0)
        m[:3, 3], m[3, :3] = rng.normal(size=(3, n)), rng.normal(size=(3, n))
        m[3, 3] = rng.normal(size=n)
        b = seesaw._unit(rng.normal(size=(3, 2, n)), 0.0)
        move = rng.normal(size=(3, 2, n)) * 10.0 ** rng.uniform(-4, 1, size=n)
        euclid = rng.normal(size=(3, 2, n))
        t = (m / _DOUBLED).transpose(2, 0, 1)  # halving is exact
        f = seesaw._surface(seesaw._Stack.cut(t), b)[0]
        full = seesaw._surface(seesaw._Stack.cut(t), seesaw._unit(b + move, 0.0))[0]
        forced = rng.integers(0, 4, size=n)
        f = np.where(forced == 1, full, np.where(forced == 2, np.inf, f))
        yield t, b, move, euclid, f


def test_line_search_matches_eager_picks():
    # Trying the other candidates only where the full step fails picks, bit for bit,
    # what trying every candidate on every row picks, on the rows of line_search_stacks.
    picks = []
    for stacks in line_search_stacks():
        expected, pick = eager_line_search(*stacks)
        taken = seesaw._line_search(seesaw._Stack.cut(stacks[0]), *stacks[1:])[0]
        assert np.array_equal(taken, expected)
        picks.append(pick)
    counts = np.bincount(np.concatenate(picks), minlength=len(seesaw._SCALES) + 2)
    assert np.all(counts[[0, 1, -2, -1]] > 0)


def test_line_search_returns_the_surface_of_its_picks():
    # The surface that _line_search returns with its pairs, which the next Newton step
    # reads instead of evaluating F again, is _surface at those pairs bit for bit, on
    # full-step, backtracked, corrected and see-saw-step rows alike.
    picks = []
    for stacks in line_search_stacks():
        taken, surface = seesaw._line_search(seesaw._Stack.cut(stacks[0]), *stacks[1:])
        expected_surface = seesaw._surface(seesaw._Stack.cut(stacks[0]), taken)
        for got, expected in zip(surface, expected_surface, strict=True):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        picks.append(eager_line_search(*stacks)[1])
    counts = np.bincount(np.concatenate(picks), minlength=len(seesaw._SCALES) + 2)
    assert np.all(counts > 0)


def test_verify_rows_all_converge(monkeypatch):
    # Every (problem, restart) row of verify --samples 8, seeds 0-9, converges,
    # the slow Schmidt rows whose R has near-equal singular values included.
    from bellmax import verify

    climb, converged = seesaw._climb, []

    def recording_climb(*args):
        run = climb(*args)
        converged.append(run[2])
        return run

    monkeypatch.setattr(seesaw, "_climb", recording_climb)
    for seed in range(10):
        assert all(record.passed for record in verify.run_all_checks(seed, 8))
    rows = np.concatenate(converged)
    assert rows.size > 1000 and rows.all()


@pytest.mark.parametrize("seed, samples", [(136, 2), (203, 6), (261, 2), (561, 4)])
def test_near_degenerate_schmidt_rows_converge(monkeypatch, seed, samples):
    # These verify runs hold Schmidt rows with g = h = 0 whose R has near-equal
    # singular values (at seed 136, 0.81008292, 0.81008276, 0.81008276). There
    # no Newton length down to 1/8 raises F, and a see-saw step gains ~3e-14
    # against a model gain of ~3e-8, so without the see-saw step after the full
    # Newton step such a row spent all of max_iters = 600.
    from bellmax import verify

    climb, runs = seesaw._climb, []

    def recording_climb(*args):
        runs.append(climb(*args))
        return runs[-1]

    monkeypatch.setattr(seesaw, "_climb", recording_climb)
    assert all(record.passed for record in verify.run_all_checks(seed, samples))
    assert np.concatenate([run[2] for run in runs]).all()
    assert max(run[1].max() for run in runs) < 300


def test_constrained_newton_keeps_y_exactly_zero(monkeypatch):
    # With constrain_y every Newton point, and the settings it returns, have y
    # components exactly 0.0: the tangent bases split into the x-z plane and the
    # y axis, and the zero couplings survive the solve.
    parts, points = seesaw._newton_parts, []

    def recording_parts(m, b, surface):
        points.append(b)
        return parts(m, b, surface)

    monkeypatch.setattr(seesaw, "_SEESAW_ITERS", 2)
    monkeypatch.setattr(seesaw, "_newton_parts", recording_parts)
    rng = np.random.default_rng(47)
    states = [sampling.schmidt_state(rng, n) for n in (3, 5, 3, 5)]
    states += [sampling.mixed_density(rng, n) for n in (3, 4, 5)]
    cfg = SeesawConfig(restarts=8, seed=3)
    for state in states:
        results = seesaw_batch([(state, k, cfg) for k in range(1, state.dim + 1)],
                               constrain_y=True)
        for res in results:
            for name in ("a1", "a2", "b1", "b2"):
                assert getattr(res.settings, name)[1] == 0.0
    assert len(points) > 20
    assert all(np.all(b[1] == 0.0) for b in points)


#: ``best_k`` oracle values of 45 random odd-N densities (``test_best_k_odd_n_``
#: ``not_below_warm_started_see_saw``) from the see-saw that ran every restart to
#: ``max_iters`` with restart 0 warm-started at ``optimal_settings``.
_WARM_SEESAW_BEST_K = (
    1.036594133009408, 0.389301970438186, 0.223483106758458,
    0.9189332092782054, 0.4494054319343352, 0.200006632173091,
    1.1135143560093297, 0.4674002184473455, 0.2499071020393695,
    0.9380323032383446, 0.40749744992289394, 0.2154097557357171,
    1.1005731184255927, 0.39623769625810334, 0.23386548455387474,
    1.0202259967721106, 0.47025345742629765, 0.22797323341167902,
    1.1433825283098074, 0.3815022622361508, 0.2219607151491989,
    1.120329996318656, 0.33599940099031095, 0.20245362353206844,
    1.1956622454014305, 0.36507498220123036, 0.23031525060884375,
    1.005834122594851, 0.40741711569500927, 0.23263741791745973,
    1.0279155506271447, 0.4357207118814138, 0.22339661314278503,
    1.0576309210496064, 0.42369557364420785, 0.19935170552214362,
    0.985396630282526, 0.4438715956067724, 0.2149036338549269,
    0.9731853533397028, 0.3833055432699229, 0.21091746287179833,
    1.0075521188286025, 0.41142736012436515, 0.20372382759237234,
)


def test_best_k_odd_n_not_below_warm_started_see_saw():
    # On uncertified states (full-rank odd-N densities, N = 3/5/7) the cold
    # 32-restart ascent finds at least the value of the warm-started see-saw.
    # tol = 1e-13 keeps the tie window (the lowest restart within tol of the
    # best) below the 1e-12 margin; at the default 1e-10 either pick may sit
    # anywhere in its window.
    rng = np.random.default_rng(7)
    values = []
    for seed in range(15):
        for n in (3, 5, 7):
            report = best_k(sampling.mixed_density(rng, n), SeesawConfig(seed=seed, tol=1e-13))
            assert report.method == "oracle"
            values.append(report.value)
    assert np.all(np.array(values) >= np.array(_WARM_SEESAW_BEST_K) - 1e-12)


def test_cold_start_matches_closed_form():
    # Random restarts only, on the inputs of acceptance criterion 4 (pure
    # states N = 2/4/6 at k = 1, Schmidt states N = 3/5 at every k) and on
    # even-N Wishart mixed states: the oracle meets the closed form to 1e-8.
    rng = np.random.default_rng(2024)
    problems = []
    for n in (2, 4, 6):
        for _ in range(70):
            problems.append((sampling.pure_density(rng, n), 1, int(rng.integers(2**31))))
    for n in (3, 5):
        for _ in range(50):
            state = sampling.schmidt_state(rng, n)
            problems += [(state, k, int(rng.integers(2**31))) for k in range(1, n + 1)]
    for n in (2, 4, 6):
        for _ in range(30):
            problems.append((sampling.mixed_density(rng, n), 1, int(rng.integers(2**31))))
    problems = [(state, k, SeesawConfig(restarts=8, max_iters=600, tol=1e-11, seed=seed))
                for state, k, seed in problems]
    oracle = np.array([res.value for res in seesaw_batch(problems)])
    closed = np.array([max_violation_closed_form(state, k).value for state, k, _ in problems])
    assert np.max(np.abs(oracle - closed)) <= 1e-8


def test_verify_batches_match_per_problem_calls(monkeypatch):
    # Each closed-vs-see-saw check of verify runs its cases as one batch; the
    # records, and every oracle result, equal those of one call per case.
    from bellmax import verify

    def per_problem(problems, t, constrain_y=False):
        return [seesaw_maximize(state, k, cfg, constrain_y=flag)
                for (state, k, cfg), flag in zip(problems, constrain_y, strict=True)]

    def recording(oracle, results):
        def run(problems, t, constrain_y=False):
            results.extend(oracle(problems, t, constrain_y))
            return results[len(results) - len(problems):]
        return run

    batch = verify._seesaw_batch
    for samples in (2, 8, 25):
        runs = []
        for oracle in (batch, per_problem):
            results = []
            monkeypatch.setattr(verify, "_seesaw_batch", recording(oracle, results))
            runs.append((verify.run_all_checks(7, samples), results))
            monkeypatch.undo()
        (records, results), (per_records, per_results) = runs
        assert records == per_records
        assert len(results) == len(per_results) > 0
        for first, second in zip(results, per_results):
            _assert_same_result(first, second)


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
    with pytest.raises(ValueError, match="seed"):
        SeesawConfig(seed=-1)
    with pytest.raises(ValueError, match="max_iters"):
        SeesawConfig(max_iters=2**63)
    assert SeesawConfig(max_iters=2**63 - 1).max_iters == 2**63 - 1
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


# ------------------------------------------- _climb against the allocating reference
# Verbatim copies of _climb and the helpers it runs, as they were before _climb ran
# on one preallocated workspace, renamed _reference_*, with the constants they read.
# The workspace must keep every bit of every output (test_climb_keeps_reference_bits).
_PLUS_MINUS = np.array([[1.0], [-1.0]])
_SCALES = 0.5 ** np.arange(4)
_SHIFT_FLOOR = 1e-12
_NORM_FLOOR = 1e-150
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
_SIGN_PAIRS = (_SIGNS * _SIGNS.T)[..., None]
_AXIS_FALLBACKS = np.array(((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)) * 2)
_SEESAW_ITERS = 30
_sum3, _sum4 = seesaw._sum3, seesaw._sum4


def _reference_unit(vec: np.ndarray, fallback, floor: float = 1e-12) -> np.ndarray:
    """Vectors along the leading axis of ``vec`` over their norms; ``fallback`` below ``floor``."""
    norm = np.sqrt(_sum3(vec * vec))
    return np.where(norm < floor, fallback, vec / np.maximum(norm, floor))


def _reference_targets(m: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The b-step targets ``(R^T(o1 + o2) + 2h, R^T(o1 - o2))`` for the other party's pairs
    ``(o1, o2)``, ``(3, 2, rows)``; on ``m.swapaxes(0, 1)``, the a-step targets ``(R(o1 + o2)
    + 2g, R(o1 - o2))``."""
    pairs = (other[:, :1] + _PLUS_MINUS * other[:, 1:])[:, None]
    # C order: the default follows the strides of m.swapaxes(0, 1) and slows what follows.
    target = _sum3(np.multiply(m[:3, :3, None], pairs, order="C"))
    target[:, 0] += m[3, :3]
    return target


def _reference_basis(b: np.ndarray) -> np.ndarray:
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


def _reference_value(m: np.ndarray, b_targets: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a1.R(b1+b2) + a2.R(b1-b2) + 2 a1.g + 2 b1.h + 2p``, as ``b1.t1 + b2.t2 + 2 a1.g
    + 2p`` with the b-step targets ``(t1, t2) = (R^T(a1+a2) + 2h, R^T(a1-a2))``."""
    dots = _sum3(b * b_targets)
    return dots[0] + dots[1] + _sum3(a[:, 0] * m[:3, 3]) + m[3, 3]


def _reference_surface(m: np.ndarray, b: np.ndarray):
    """The value at the best ``a`` for the pairs ``b = (b1, b2)``, ``(3, 2, n)``:
    ``F(b1, b2) = |u| + |v| + 2 b1.h + 2p`` with ``(u, v) = (R(b1+b2) + 2g, R(b1-b2))``,
    which ``a = (u/|u|, v/|v|)`` attains. Returns ``F``, ``(u, v)`` and ``(|u|, |v|)``."""
    uv = _reference_targets(m.swapaxes(0, 1), b)
    norms = np.sqrt(_sum3(uv * uv))
    return norms[0] + norms[1] + _sum3(b[:, 0] * m[3, :3]) + m[3, 3], uv, norms


def _reference_newton_parts(m: np.ndarray, b: np.ndarray, surface):
    """``F`` and ``(u, v)`` of ``surface = _reference_surface(m, b)`` with the Riemannian gradient and
    Hessian of ``F`` on the product of the two spheres, in the tangent basis ``_reference_basis(b)``:
    two unit vectors orthogonal to ``b1``, then two orthogonal to ``b2``. With ``W = R basis`` and
    ``s = (1, 1, -1, -1)``, the gradient is ``W^T u^ + s W^T v^ + (basis^T 2h, 0)`` and the
    Hessian ``W^T P_u W / |u| + s W^T P_v W s / |v|``, ``P_u = I - u^ u^T``, minus ``b.grad F``
    on each sphere's block (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
    Manifolds, 2008, ch. 5-6). Also returns the Euclidean gradient ``(R^T(u^+v^) + 2h,
    R^T(u^-v^))``, which is the target of the see-saw's b-step from ``a = (u^, v^)``."""
    f, uv, norms = surface
    norms = np.maximum(norms, _NORM_FLOOR)
    unit = uv / norms
    euclid = _reference_targets(m, unit)
    basis = _reference_basis(b)
    w = _sum3(np.multiply(m.swapaxes(0, 1)[:3, :3, None], basis.reshape(3, 1, 4, -1), order="C"))
    wu, wv = _sum3(w * unit[:, :1]), _sum3(w * unit[:, 1:]) * _SIGNS
    grad = _sum3(basis * euclid[:, :, None]).reshape(4, -1)
    ww = _sum3(w[:, :, None] * w[:, None])
    hess = (ww - wu[:, None] * wu) / norms[0] + (_SIGN_PAIRS * ww - wv[:, None] * wv) / norms[1]
    diagonal = hess.reshape(16, -1)[::5].reshape(2, 2, -1)  # a view: hess is C-contiguous
    diagonal -= _sum3(b * euclid)[:, None]
    return f, uv, grad, hess, basis, euclid


def _reference_line_search(m: np.ndarray, b: np.ndarray, move: np.ndarray, euclid: np.ndarray, f):
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
    surface = _reference_surface(m, taken)
    fails = ~(surface[0] > f)
    if not np.count_nonzero(fails):
        return taken, surface
    m, b, move, euclid, f, full, uv, norms = (
        x[..., fails] for x in (m, b, move, euclid, f, taken, *surface[1:]))
    tries = b[:, :, None] + _SCALES[1:, None] * move[:, :, None]
    tries /= np.sqrt(_sum3(tries * tries))
    corrected = _reference_unit(_reference_targets(m, uv / np.maximum(norms, _NORM_FLOOR)), full, 1e-300)
    tries = np.concatenate((tries, corrected[:, :, None], _reference_unit(euclid, b, 1e-300)[:, :, None]), 2)
    count = tries.shape[2]
    tried = _reference_surface(np.tile(m, count), tries.reshape(3, 2, -1))
    rises = tried[0].reshape(count, -1) > f
    pick = np.where(rises[:-1].any(0), rises[:-1].argmax(0), count - 1)
    index = pick * len(pick) + np.arange(len(pick))  # into the candidates, count-major
    for whole, part in zip((taken, *surface), (tries.reshape(3, 2, -1), *tried)):
        whole[..., fails] = part[..., index]
    return taken, surface


def _reference_newton(m: np.ndarray, b: np.ndarray, budget: np.ndarray, tol: float):
    """Safeguarded Riemannian Newton ascent of ``F`` (``_newton_parts``) from the pairs ``b``,
    ``(3, 2, n)``, for at most ``budget`` ``(n,)`` steps per row. The reduced Hessian is
    shifted by twice its largest eigenvalue, if positive, plus the reduced gradient norm,
    which makes it negative definite and steadies the step where the maximisers are not
    isolated (regularised Newton; Ueda & Yamashita, Appl. Math. Optim. 62, 27 (2010)).
    A row stops once the step's gain on the shifted quadratic model, ``grad.step / 2``, is
    at most ``tol``. Any other row moves by ``_line_search``: the full step where it raises
    ``F``, else the first of the lengths 1/2, 1/4 and 1/8 that does, else the full step
    followed by a see-saw step if that does, else one see-saw step. Per row: value, steps,
    converged, and ``(a1, a2, b1, b2)`` with ``a = (u/|u|, v/|v|)``."""
    n = b.shape[-1]
    value, steps, converged = np.empty(n), np.zeros(n, int), np.zeros(n, bool)
    vectors = np.empty((3, 4, n))  # (u, v, b1, b2) until the loop ends
    rows = np.arange(n)
    surface = _reference_surface(m, b)
    for step in range(int(budget.max(initial=0)) + 1):
        f, uv, grad, hess, basis, euclid = _reference_newton_parts(m, b, surface)
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
            m, b, budget, rows, f, basis, euclid, direction = (
                x[..., keep] for x in (m, b, budget, rows, f, basis, euclid, direction))
        move = basis * direction.reshape(2, 2, -1)
        b, surface = _reference_line_search(m, b, move[:, :, 0] + move[:, :, 1], euclid, f)
    vectors[:, :2] = _reference_unit(vectors[:, :2], _AXIS_FALLBACKS[:2].T[..., None], 1e-300)
    return value, steps, converged, vectors


def _reference_climb(m: np.ndarray, starts: np.ndarray, cfg: SeesawConfig):
    """Ascend each row of ``starts = (a1, a2, b1, b2)``, ``(3, 4, n)``, against its moment
    stack, ``m`` ``(4, 4, n)``. Every row first runs up to ``_SEESAW_ITERS`` see-saw
    iterations, in which a target of norm < 1e-300 keeps the old vector and a row stops once
    an iteration moves its value by at most ``cfg.tol``. Every row then goes to ``_newton``
    for the rest of its ``cfg.max_iters``: a row that stopped at a stationary point keeps its
    see-saw result, and any other row takes Newton steps until it converges or its budget is
    spent. A row with no budget left gets only the stop test, which sets ``converged``.
    Per row: value, iterations, converged, vectors."""
    a, b = starts[:, :2], starts[:, 2:]
    value = _reference_value(m, _reference_targets(m, a), a, b)
    used, running = np.zeros(value.shape, int), np.ones(value.shape, bool)
    frozen = False  # whether some row has stopped, and so must keep its vectors
    for _ in range(min(cfg.max_iters, _SEESAW_ITERS)):
        step = _reference_unit(_reference_targets(m.swapaxes(0, 1), b), a, 1e-300)
        a = np.where(running, step, a) if frozen else step
        b_targets = _reference_targets(m, a)
        step = _reference_unit(b_targets, b, 1e-300)
        b = np.where(running, step, b) if frozen else step
        updated = _reference_value(m, b_targets, a, b)  # a frozen row keeps its bits
        used += running
        running &= ~(np.abs(updated - value) <= cfg.tol)
        value = updated
        if not (left := np.count_nonzero(running)):
            break
        frozen = left < running.size
    vectors = np.concatenate((a, b), 1)
    polished, steps, converged, newton_vectors = _reference_newton(m, b, cfg.max_iters - used, cfg.tol)
    moved = steps > 0
    return (np.where(moved, polished, value), used + steps, converged,
            np.where(moved, newton_vectors, vectors))


def climb_stacks(rng, n):
    """Moments ``T`` ``(n, 4, 4)`` and starts ``(3, 4, n)`` for ``_climb``, the rows cycling
    over the problems of random densities at every k. Every 7th row has ``R = 0`` and ``g = 0``,
    so both a-targets are exactly zero and ``_unit`` keeps the old ``a`` in those rows only;
    every 5th row starts with ``b1 = b2``, so its first ``a2`` target is exactly zero; every 3rd
    row has its y parts zeroed and its starts projected, as ``constrain_y`` does."""
    problems = [(sampling.mixed_density(rng, dim), k, None) for dim in (2, 3, 4)
                for k in range(1, dim + 1)]
    t = seesaw._moments(problems)[np.arange(n) % len(problems)]
    starts = sampling.unit3_stack(rng, 4 * n).reshape(n, 4, 3).T.copy()
    t[::7, :3] = 0.0
    starts[:, 3, ::5] = starts[:, 2, ::5]
    t[::3, 1] = t[::3, :, 1] = 0.0
    starts[1, :, ::3] = 0.0
    starts[:, :, ::3] = _reference_unit(starts[:, :, ::3], _AXIS_FALLBACKS.T[..., None])
    return t, starts


def test_climb_keeps_reference_bits():
    # _climb on its workspace returns the bytes of the allocating reference, on stacks of
    # 1 to 1025 rows, at every tol and at see-saw caps and Newton budgets around
    # _SEESAW_ITERS, fallback rows and constrain_y rows included.
    rng = np.random.default_rng(97)
    newton_rows = 0
    for n in (1, 4, 32, 144, 1025):
        t, starts = climb_stacks(rng, n)
        m = moment_stack(t)
        for max_iters, tol in itertools.product((1, 2, 30, 31, 1000), (1e-14, 1e-10, 1e-3)):
            cfg = SeesawConfig(max_iters=max_iters, tol=tol)
            expected = _reference_climb(m, starts, cfg)
            got = seesaw._climb(t.copy(), starts.copy(), cfg)
            for first, second in zip(got, expected, strict=True):
                assert first.dtype == second.dtype and first.shape == second.shape
                assert first.tobytes() == second.tobytes()
            newton_rows += np.count_nonzero(expected[1] > seesaw._SEESAW_ITERS)
    assert newton_rows >= 100
