import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellmax import operators, sampling, seesaw, states, violation
from bellmax.linalg import tensor
from bellmax.operators import make_gamma_set
from bellmax.states import DensityMatrix, IsotropicState, SchmidtState, as_density
from bellmax.violation import (
    ThresholdResult,
    best_k,
    correlation_data,
    max_violation_closed_form,
    noise_threshold,
    optimal_settings,
    scan_k,
)

ROOT2 = math.sqrt(2.0)
HALF = 1.0 / ROOT2

EXAMPLE_STATE = SchmidtState(3, (HALF, 0.0, HALF))


def kron_trace_reference(rho: DensityMatrix, k: int):
    """Correlation data by explicit Kronecker products (slow oracle)."""
    g = make_gamma_set(rho.dim, k)
    ops = (g.gx, g.gy, g.gz)

    def tr(a, b):
        return float(np.trace(rho.rho @ tensor(a, b)).real)

    r = np.array([[tr(a, b) for b in ops] for a in ops])
    gvec = np.array([tr(a, g.pi) for a in ops])
    hvec = np.array([tr(g.pi, b) for b in ops])
    return r, gvec, hvec, tr(g.pi, g.pi)


def einsum_reference(rho: DensityMatrix, k: int):
    """Correlation data by two contractions with the dense generators."""
    n = rho.dim
    g = make_gamma_set(n, k)
    ops = np.stack((g.gx, g.gy, g.gz, g.pi))
    # Tr[rho (A x B)] = sum_{ikjl} rho[ik, jl] A[j, i] B[l, k]
    left = np.einsum("ikjl,mji->mkl", rho.rho.reshape(n, n, n, n), ops)
    t = np.einsum("mkl,nlk->mn", left, ops).real
    return t[:3, :3], t[:3, 3], t[3, :3], t[3, 3]


# ----------------------------------------------------- correlation data

def test_even_isotropic_correlations():
    for n in (2, 4):
        for x in (0.0, 0.3, 1.0):
            corr = correlation_data(IsotropicState(n, x), 1)
            np.testing.assert_allclose(
                corr.r, (1 - x) * np.diag([1.0, -1.0, 1.0]), atol=1e-12
            )
            assert np.all(corr.g == 0.0) and np.all(corr.h == 0.0)
            assert corr.p == 0.0
            assert abs(corr.tau1 - (1 - x) ** 2) <= 1e-12
            assert abs(corr.tau2 - (1 - x) ** 2) <= 1e-12


def test_even_schmidt_correlations():
    rng = np.random.default_rng(21)
    for n in (2, 4, 6):
        for _ in range(10):
            state = sampling.schmidt_state(rng, n)
            corr = correlation_data(state, 1)
            c = state.coeffs
            overlap = 2.0 * sum(c[2 * i] * c[2 * i + 1] for i in range(n // 2))
            np.testing.assert_allclose(
                corr.r, np.diag([overlap, -overlap, 1.0]), atol=1e-12
            )


def test_example_state_correlations():
    corr = correlation_data(EXAMPLE_STATE, 2)
    np.testing.assert_allclose(corr.r, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
    assert corr.p == pytest.approx(0.0, abs=1e-15)
    assert corr.tau1 == pytest.approx(1.0, abs=1e-12)
    assert corr.tau2 == pytest.approx(1.0, abs=1e-12)


def test_correlations_match_kron_reference():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        state = sampling.mixed_density(rng, n) if n % 2 else sampling.pure_density(rng, n)
        corr = correlation_data(state, k)
        r_ref, g_ref, h_ref, p_ref = kron_trace_reference(as_density(state), k)
        np.testing.assert_allclose(corr.r, r_ref, atol=1e-12)
        np.testing.assert_allclose(corr.g, g_ref, atol=1e-12)
        np.testing.assert_allclose(corr.h, h_ref, atol=1e-12)
        assert abs(corr.p - p_ref) <= 1e-12


FAMILIES = {
    "schmidt": sampling.schmidt_state,
    "isotropic": lambda rng, n: IsotropicState(n, float(rng.uniform())),
    "pure": sampling.pure_density,
    "mixed": sampling.mixed_density,
}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.sampled_from(sorted(FAMILIES)), st.integers(0, 2**32 - 1))
def test_pair_block_kernel_matches_dense_references(n, family, seed):
    # Schmidt and isotropic states take their closed-form block sums,
    # densities their gathered entries; both dense references see the
    # full density matrix and the full generators.
    state = FAMILIES[family](np.random.default_rng(seed), n)
    rho = as_density(state)
    for k in range(1, n + 1):
        corr = correlation_data(state, k)
        if family in ("schmidt", "isotropic"):  # certified at every k, exactly
            assert np.all(corr.g == 0.0) and np.all(corr.h == 0.0)
        for reference in (kron_trace_reference, einsum_reference):
            r_ref, g_ref, h_ref, p_ref = reference(rho, k)
            np.testing.assert_allclose(corr.r, r_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(corr.g, g_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(corr.h, h_ref, rtol=0, atol=1e-12)
            assert abs(corr.p - p_ref) <= 1e-12


def test_schmidt_and_isotropic_build_no_density(monkeypatch):
    # No state makes the kernel build a dense generator, and Schmidt and
    # isotropic states never become a density matrix.
    def refuse(*args):
        raise AssertionError("a density matrix or a dense generator was built")

    for module in (violation, states, seesaw):
        monkeypatch.setattr(module, "as_density", refuse)
    for module in (operators, violation, seesaw):
        monkeypatch.setattr(module, "make_gamma_set", refuse)
    density_rng = np.random.default_rng(6)
    for rho in (sampling.pure_density(density_rng, 4), sampling.mixed_density(density_rng, 5)):
        for k in range(1, rho.dim + 1):
            assert correlation_data(rho, k).k == k
    cfg = seesaw.SeesawConfig(restarts=4)
    rng = np.random.default_rng(5)
    for n in (2, 3, 8, 9, 65):
        for state in (sampling.schmidt_state(rng, n), IsotropicState(n, 0.3)):
            reports = scan_k(state)
            assert len(reports) == n and all(rep.formula_valid for rep in reports)
            assert max_violation_closed_form(state, n) == reports[-1]
            oracle = seesaw.seesaw_maximize(state, n, cfg)
            assert oracle.value == pytest.approx(reports[-1].value, abs=1e-9)
        noise_threshold(n)


def test_schmidt_257_scan_matches_analytic():
    # Every k of an N = 257 Schmidt state: R = diag(s, -s, 1 - c_k^2) with
    # s = 2 sum c_p c_q over the pairs (p, q) left when index k is cut.
    n = 257
    state = sampling.schmidt_state(np.random.default_rng(257), n)
    c = state.coeffs
    for k, rep in enumerate(scan_k(state), start=1):
        rest = [c[i] for i in range(n) if i != k - 1]
        s = 2.0 * math.fsum(rest[j] * rest[j + 1] for j in range(0, n - 1, 2))
        z = 1.0 - c[k - 1] ** 2
        np.testing.assert_allclose(correlation_data(state, k).r, np.diag([s, -s, z]),
                                   rtol=0, atol=1e-12)
        tau1, tau2 = sorted((s * s, s * s, z * z), reverse=True)[:2]
        assert rep.k == k and rep.formula_valid
        assert rep.tau1 == pytest.approx(tau1, abs=1e-12)
        assert rep.tau2 == pytest.approx(tau2, abs=1e-12)
        assert rep.pi_term == pytest.approx(2.0 * c[k - 1] ** 2, abs=1e-12)
        assert rep.value == pytest.approx(2.0 * math.sqrt(tau1 + tau2) + 2.0 * c[k - 1] ** 2,
                                          abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.sampled_from(sorted(FAMILIES)), st.integers(0, 2**32 - 1))
def test_every_k_batch_matches_single_k_and_references(n, family, seed):
    # A row does not depend on the batch or the chunk it is computed in:
    # scan rows equal the single-k reports exactly, and so do the moments
    # when each chunk holds only 1, 2 or 3 indices.
    state = FAMILIES[family](np.random.default_rng(seed), n)
    ks = range(1, n + 1)
    reports = scan_k(state)
    for k in ks:
        assert reports[k - 1] == max_violation_closed_form(state, k)
    problems = [(state, k) for k in ks]
    batch = violation._moments(problems)
    with pytest.MonkeyPatch.context() as patch:
        for rows in (1, 2, 3):
            patch.setattr(violation, "_CHUNK_BYTES", rows * violation._row_bytes(state))
            assert np.array_equal(violation._moments(problems), batch)
            assert scan_k(state) == reports
    rho = as_density(state)
    for k, t in zip(ks, batch):
        for reference in (kron_trace_reference, einsum_reference):
            r_ref, g_ref, h_ref, p_ref = reference(rho, k)
            np.testing.assert_allclose(t[:3, :3], r_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(t[:3, 3], g_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(t[3, :3], h_ref, rtol=0, atol=1e-12)
            assert abs(t[3, 3] - p_ref) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 9), st.sampled_from(sorted(FAMILIES)),
                          st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1), st.sampled_from((None, 1, 2, 3)))
def test_problem_batch_rows_equal_one_problem_calls(specs, seed, chunk_rows):
    # Mixed families and N, each state at three ks, some (state, k) twice, in
    # shuffled order, in chunks of 1-3 rows: every row of one batch has the
    # bits of its one-problem call.
    rng = np.random.default_rng(seed)
    states = [FAMILIES[family](np.random.default_rng(s), n) for n, family, s in specs]
    problems = [(state, int(k)) for state in states for k in rng.integers(1, state.dim + 1, 3)]
    problems += [problems[i] for i in rng.integers(0, len(problems), 2)]
    problems = [problems[i] for i in rng.permutation(len(problems))]
    singles = [violation._closed_values([problem]) for problem in problems]
    reports = [max_violation_closed_form(state, k) for state, k in problems]
    with pytest.MonkeyPatch.context() as patch:
        if chunk_rows:
            smallest = min(violation._row_bytes(state) for state in states)
            patch.setattr(violation, "_CHUNK_BYTES", chunk_rows * smallest)
        batch = violation._closed_values(problems)
        assert violation._closed_forms(problems) == reports
    for single, stacked in zip(zip(*singles), batch):
        assert np.array_equal(np.concatenate(single), stacked)


def test_chunks_hold_the_budget(monkeypatch):
    # Each chunk takes as many indices as the budget allows, in order.
    sizes = []
    entries = violation._entries

    def recording(dim, ks):
        sizes.append(len(ks))
        return entries(dim, ks)

    monkeypatch.setattr(violation, "_entries", recording)
    state = sampling.mixed_density(np.random.default_rng(3), 7)
    monkeypatch.setattr(violation, "_CHUNK_BYTES", 3 * violation._row_bytes(state))
    violation._moments([(state, k) for k in range(1, 8)])
    assert sizes == [3, 3, 1]


def test_interleaved_states_group_once(monkeypatch):
    # Two Schmidt states interleaved at one N, with a density, an isotropic
    # state and a Schmidt state of another N between them: one entry table per
    # (family, N) chunk, in order of first appearance, and every row has the
    # bits of its one-problem call.
    rng = np.random.default_rng(15)
    a, b, c = (sampling.schmidt_state(rng, n) for n in (5, 5, 7))
    density, iso = sampling.mixed_density(rng, 4), IsotropicState(3, 0.4)
    problems = [(a, 1), (b, 2), (density, 3), (a, 3), (iso, 2), (c, 6), (b, 4), (a, 5)]
    singles = [violation._closed_values([problem]) for problem in problems]
    calls = []
    entries = violation._entries

    def recording(dim, ks):
        calls.append((dim, list(ks)))
        return entries(dim, ks)

    monkeypatch.setattr(violation, "_entries", recording)
    for chunk_bytes, expected in (
            (violation._CHUNK_BYTES, [(5, [1, 2, 3, 4, 5]), (4, [3]), (3, [2]), (7, [6])]),
            (2 * violation._row_bytes(a), [(5, [1, 2]), (5, [3, 4]), (5, [5]), (4, [3]),
                                           (3, [2]), (7, [6])]),
            (1, [(5, [1]), (5, [2]), (5, [3]), (5, [4]), (5, [5]), (4, [3]), (3, [2]),
                 (7, [6])])):
        monkeypatch.setattr(violation, "_CHUNK_BYTES", chunk_bytes)
        calls.clear()
        batch = violation._closed_values(problems)
        assert calls == expected
        for single, stacked in zip(zip(*singles), batch):
            assert np.array_equal(np.concatenate(single), stacked)


def test_nan_cross_term_does_not_certify(monkeypatch):
    # max(0.0, nan) is 0.0, so a running max with max() would certify a NaN
    # cross term; the report rule keeps it, for one k, for every k of a scan,
    # and for a batch of several states, where it marks only its own rows.
    moments = violation._moments

    def nan_in_h(rows):
        def patched(problems):
            t = moments(problems)
            t[rows, 3, 0] = np.nan
            return t
        return patched

    monkeypatch.setattr(violation, "_moments", nan_in_h(slice(None)))
    even = SchmidtState(2, (HALF, HALF))  # g = 0 exactly
    assert max_violation_closed_form(even, 1).formula_valid is False
    assert not any(rep.formula_valid for rep in scan_k(EXAMPLE_STATE))
    density = sampling.pure_density(np.random.default_rng(8), 4)  # even: g = h = 0
    problems = [(even, 1), (EXAMPLE_STATE, 2), (IsotropicState(3, 0.2), 1),
                (EXAMPLE_STATE, 3), (density, 2), (density, 1)]
    monkeypatch.setattr(violation, "_moments", nan_in_h([1, 4]))
    reports = violation._closed_forms(problems)
    assert [rep.formula_valid for rep in reports] == [True, False, True, True, False, True]


def test_scan_at_pair_budget_stays_in_chunk_budget():
    # At the cap a Schmidt scan finishes; every k of an odd N near it
    # holds at most twice the chunk budget, where unchunked index tables
    # alone would take 67 MB each.
    rng = np.random.default_rng(2048)
    assert len(scan_k(sampling.schmidt_state(rng, violation.MAX_PAIR_DIM))) == 2048
    state = sampling.schmidt_state(rng, violation.MAX_PAIR_DIM - 1)
    tracemalloc.start()
    try:
        reports = scan_k(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 2047 and all(rep.formula_valid for rep in reports)
    assert peak < 2 * violation._CHUNK_BYTES
    # One past the cap fails before anything is allocated.
    state = sampling.schmidt_state(rng, violation.MAX_PAIR_DIM + 1)
    tracemalloc.start()
    try:
        with pytest.raises(states.DomainError, match=f"cap is N={violation.MAX_PAIR_DIM}"):
            scan_k(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_384


def test_pair_block_budget():
    # The budget is checked before any allocation, whatever the state.
    for state in (IsotropicState(violation.MAX_PAIR_DIM + 1, 0.5),
                  IsotropicState(10**9, 0.0)):
        with pytest.raises(states.DomainError, match=f"cap is N={violation.MAX_PAIR_DIM}"):
            correlation_data(state, 1)
    a, c = isotropic_line(1001)  # N = 1001 is past the density cap, inside the budget
    assert noise_threshold(1001).x_star == pytest.approx((a - 2) / (a - c), abs=1e-12)


def test_correlation_entries_bounded():
    rng = np.random.default_rng(41)
    pure_rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        for rho in (sampling.mixed_density(rng, n), sampling.pure_density(pure_rng, n)):
            corr = correlation_data(rho, 1)
            assert np.max(np.abs(corr.r)) <= 1.0 + 1e-12
            assert 0.0 <= corr.p <= 1.0
            assert corr.tau1 >= corr.tau2 >= 0.0
            assert corr.tau1 <= 9.0
            if n % 2 == 0:
                # The even-N projector is the zero matrix: the cross terms
                # are exact zeros, so every even-N state is certified.
                assert np.all(corr.g == 0.0) and np.all(corr.h == 0.0)
                assert max_violation_closed_form(rho, 1).formula_valid


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((3, 5, 7, 9)).flatmap(
    lambda dim: st.lists(st.just(0.0) | st.floats(-1, 1), min_size=dim, max_size=dim)
).filter(lambda cs: math.fsum(c * c for c in cs) > 0.05))
def test_odd_schmidt_cross_terms_vanish_exactly(raw):
    # The generators have an empty kth row and column, so every cross
    # term of a Schmidt state is a sum of exact zeros: certification
    # needs no special case for Schmidt states.
    norm = math.sqrt(math.fsum(c * c for c in raw))
    state = SchmidtState(len(raw), tuple(c / norm for c in raw))
    for k in range(1, state.dim + 1):
        corr = correlation_data(state, k)
        assert np.all(corr.g == 0.0) and np.all(corr.h == 0.0)
        assert max_violation_closed_form(state, k).formula_valid


def test_correlation_k_range():
    with pytest.raises(ValueError, match="k must be in"):
        correlation_data(EXAMPLE_STATE, 4)


# ------------------------------------------------------------ closed form

def test_example_state_values():
    assert max_violation_closed_form(EXAMPLE_STATE, 2).value == pytest.approx(
        2 * ROOT2, abs=1e-12
    )
    rep3 = max_violation_closed_form(EXAMPLE_STATE, 3)
    assert rep3.value == pytest.approx(2.0, abs=1e-12)
    assert not rep3.violated


def test_bell_state_ceiling():
    rep = max_violation_closed_form(SchmidtState(2, (HALF, HALF)), 1)
    assert rep.value == pytest.approx(2 * ROOT2, abs=1e-12)
    assert rep.violated and rep.formula_valid


def test_even_isotropic_values():
    for n in (2, 4, 6):
        for x in (0.0, 0.1, 0.25, 0.5):
            rep = max_violation_closed_form(IsotropicState(n, x), 1)
            assert rep.value == pytest.approx(2 * ROOT2 * (1 - x), abs=1e-12)
            assert rep.pi_term == 0.0


def test_odd_isotropic_certified():
    # cross terms vanish because the generators have an empty kth row
    for n in (3, 5):
        rep = max_violation_closed_form(IsotropicState(n, 0.2), 2)
        assert rep.formula_valid
        expected = 2 * ROOT2 * (n - 1) / n * 0.8 + 2 * (0.2 / n**2 + 0.8 / n)
        assert rep.value == pytest.approx(expected, abs=1e-12)


def test_uncertified_mixed_state_flagged():
    # product of (|1> + |3>)/sqrt(2) with |2>: nonzero cross terms for all k
    u = np.array([HALF, 0.0, HALF], dtype=complex)
    v = np.array([0.0, 1.0, 0.0], dtype=complex)
    w = np.kron(u, v)
    state = DensityMatrix(3, np.outer(w, w.conj()))
    for k in (1, 2, 3):
        rep = max_violation_closed_form(state, k)
        assert not rep.formula_valid
    fallback = best_k(state)
    assert fallback.method == "oracle"
    assert not fallback.formula_valid
    assert fallback.value <= 2.0 + 1e-8  # product state stays classical


def test_upper_bounds_cap_every_k():
    # U_k = value + 2|g| + 2|h| is at least the closed form, the see-saw and
    # the value at random settings, at every k of Schmidt, pure, mixed (odd
    # and even N) and isotropic states; where g = h = 0 it is the closed form.
    rng = np.random.default_rng(53)
    states = [sampling.schmidt_state(rng, n) for n in (3, 5)]
    states += [draw(rng, n) for draw in (sampling.pure_density, sampling.mixed_density)
               for n in (3, 4, 5, 7)]
    states += [IsotropicState(n, x) for n, x in ((3, 0.3), (4, 0.0), (5, 0.7))]
    cfg = seesaw.SeesawConfig(restarts=4, seed=9)
    crossed = 0
    for state in states:
        reports = scan_k(state)
        problems = [(state, rep.k, cfg) for rep in reports]
        t = violation._moments(problems)
        bounds = violation._upper_bounds(t, reports)
        oracle = seesaw._seesaw_batch(problems, t)
        for rep, bound, res in zip(reports, bounds.tolist(), oracle, strict=True):
            corr = correlation_data(state, rep.k)
            assert res.value <= bound + 1e-12
            for _ in range(5):
                settings = sampling.random_settings(rng, rep.k)
                assert seesaw.bell_value_from_correlations(corr, settings) <= bound + 1e-12
            if np.any(corr.g) or np.any(corr.h):
                crossed += 1
                assert bound > rep.value
            else:
                assert bound == rep.value
    assert crossed == 3 + 5 + 7 + 3 + 5 + 7  # every k of the odd-N densities


def test_report_dict_shape():
    rep = max_violation_closed_form(EXAMPLE_STATE, 2)
    data = rep.to_dict()
    assert list(data) == [
        "value", "tau1", "tau2", "pi_term", "k",
        "formula_valid", "lhv_bound", "violated", "method",
    ]
    assert data["lhv_bound"] == 2.0
    assert data["method"] == "closed_form"


def test_report_with_slots_stays_a_frozen_dataclass():
    # Slots make a report cheaper to build; setting a field still raises, and
    # replace, equality, hashing and the to_dict keys behave as before.
    from dataclasses import FrozenInstanceError, fields

    rep = max_violation_closed_form(EXAMPLE_STATE, 2)
    for name in ("value", "lhv_bound", "method"):
        with pytest.raises(FrozenInstanceError):
            setattr(rep, name, 0.0)
    # No other attribute either (Python 3.11 raises TypeError here for frozen slots).
    with pytest.raises((AttributeError, TypeError)):
        rep.extra = 0.0
    assert not hasattr(rep, "__dict__")
    moved = replace(rep, k=3, value=1.5)
    assert (moved.k, moved.value, moved.lhv_bound, moved.tau1) == (3, 1.5, 2.0, rep.tau1)
    assert moved != rep and replace(moved, k=2, value=rep.value) == rep
    assert hash(replace(moved, k=2, value=rep.value)) == hash(rep)
    assert moved.to_dict() == {f.name: getattr(moved, f.name) for f in fields(moved)}
    assert list(moved.to_dict()) == [f.name for f in fields(moved)]


# ---------------------------------------------------------------- best_k

def test_best_k_example_state():
    rep = best_k(EXAMPLE_STATE)
    assert rep.k == 2
    assert rep.value == pytest.approx(2 * ROOT2, abs=1e-12)


def test_best_k_product_state_classical():
    state = SchmidtState(3, (1.0, 0.0, 0.0))
    for rep in scan_k(state):
        assert rep.value <= 2.0 + 1e-9
    assert best_k(state).value <= 2.0 + 1e-9


def test_best_k_even_is_single():
    rep = best_k(IsotropicState(4, 0.0))
    assert rep.k == 1
    assert rep.value == pytest.approx(2 * ROOT2, abs=1e-12)
    # For even N, k is inert: every k evaluates to the k = 1 report, which
    # is what lets scan_k evaluate it once.
    rng = np.random.default_rng(43)
    for n in (2, 4, 6):
        states = (sampling.schmidt_state(rng, n), IsotropicState(n, 0.3),
                  sampling.mixed_density(rng, n), sampling.pure_density(rng, n))
        for state in states:
            reports = scan_k(state)
            assert [rep.k for rep in reports] == list(range(1, n + 1))
            for k, rep in enumerate(reports, start=1):
                assert rep == replace(reports[0], k=k)
                assert max_violation_closed_form(state, k) == rep
            assert best_k(state) == reports[0]


def test_scan_k_covers_all_indices():
    reports = scan_k(EXAMPLE_STATE)
    assert [rep.k for rep in reports] == [1, 2, 3]


# ------------------------------------------------------------- threshold

def isotropic_line(n: int) -> tuple[float, float]:
    """Analytic ``(a, c)``: closed-form values of the isotropic family at x = 0, 1."""
    if n % 2 == 0:
        return 2 * ROOT2, 0.0
    return 2 * ROOT2 * (n - 1) / n + 2 / n, 2 / (n * n)


def test_threshold_even():
    for n in range(2, 13, 2):
        a, c = isotropic_line(n)  # (a - 2) / (a - c) = 1 - 1/sqrt(2)
        res = noise_threshold(n)
        assert res.x_star == pytest.approx((a - 2) / (a - c), abs=1e-12)
        assert res.value_at_zero == pytest.approx(2 * ROOT2, abs=1e-12)


def test_threshold_n3_derived():
    # solve (4 sqrt(2)/3)(1 - x) + (2/9)(3 - 2x) = 2 by hand:
    # x = (3 sqrt(2) - 3) / (3 sqrt(2) + 1)
    analytic = (3 * ROOT2 - 3) / (3 * ROOT2 + 1)
    res = noise_threshold(3)
    assert res.x_star == pytest.approx(analytic, abs=1e-12)
    assert res.k_used == 1  # every k gives the same line, so k = 1 is used
    for n in range(3, 13, 2):
        a, c = isotropic_line(n)
        res = noise_threshold(n)
        assert res.k_used == 1
        assert res.x_star == pytest.approx((a - 2) / (a - c), abs=1e-12)
        for k in range(1, n + 1):  # the closed form crosses 2 at x* for every k
            crossing = max_violation_closed_form(IsotropicState(n, res.x_star), k)
            assert crossing.value == pytest.approx(2.0, abs=1e-12)


def test_threshold_makes_two_closed_form_calls(monkeypatch):
    # One closed form at each end of the line, both in one batch, for odd N
    # as for even N: no k is scanned.
    calls = []
    closed_values = violation._closed_values

    def counting(problems):
        calls.append([(state.x, k) for state, k in problems])
        return closed_values(problems)

    monkeypatch.setattr(violation, "_closed_values", counting)
    for n in range(2, 13):
        calls.clear()
        noise_threshold(n)
        assert calls == [[(0.0, 1), (1.0, 1)]]


def test_threshold_monotone_grid():
    for n in (3, 4):
        values = [
            max_violation_closed_form(IsotropicState(n, x), 1).value
            for x in np.linspace(0.0, 1.0, 101)
        ]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)


def test_threshold_result_type():
    res = noise_threshold(2)
    assert isinstance(res, ThresholdResult)


# -------------------------------------------- separability and settings

def test_product_states_stay_classical():
    rng = np.random.default_rng(77)
    for _ in range(120):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        rep = max_violation_closed_form(sampling.product_density(rng, n), k)
        assert rep.value <= 2.0 + 1e-9


def test_optimal_settings_attain_closed_form():
    from bellmax.seesaw import bell_value_from_correlations

    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        state = sampling.schmidt_state(rng, n)
        corr = correlation_data(state, k)
        settings = optimal_settings(corr)
        achieved = bell_value_from_correlations(corr, settings)
        target = 2 * math.sqrt(corr.tau1 + corr.tau2) + 2 * corr.p
        assert achieved == pytest.approx(target, abs=1e-9)
