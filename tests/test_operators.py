import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellmax.linalg import hermitian_eigenvalues, tensor
from bellmax.operators import (
    BellSettings,
    UnitVectorError,
    _bell_operators,
    _gamma_stack,
    bell_operator,
    make_gamma_set,
    observable,
)
from bellmax.sampling import unit3_stack

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

ROOT2 = math.sqrt(2.0)

unit_vectors = (
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: v / np.linalg.norm(v))
)


def tsirelson_settings(k: int = 1) -> BellSettings:
    return BellSettings(
        (0, 0, 1), (1, 0, 0),
        (1 / ROOT2, 0, 1 / ROOT2), (-1 / ROOT2, 0, 1 / ROOT2),
        k=k,
    )


# ----------------------------------------------------------- gamma sets

def test_n2_is_pauli_triple():
    g = make_gamma_set(2, 1)
    np.testing.assert_array_equal(g.gx, SX)
    np.testing.assert_array_equal(g.gy, SY)
    np.testing.assert_array_equal(g.gz, SZ)
    np.testing.assert_array_equal(g.pi, np.zeros((2, 2)))


def test_n3_k2_pairs_surviving_indices():
    g = make_gamma_set(3, 2)
    expected_x = np.zeros((3, 3), dtype=complex)
    expected_x[0, 2] = expected_x[2, 0] = 1.0
    np.testing.assert_array_equal(g.gx, expected_x)
    np.testing.assert_array_equal(np.diag(g.gz), [1.0, 0.0, -1.0])
    np.testing.assert_array_equal(np.diag(g.pi), [0.0, 1.0, 0.0])


def test_n4_two_pauli_blocks():
    g = make_gamma_set(4)
    np.testing.assert_array_equal(np.diag(g.gz), [1.0, -1.0, 1.0, -1.0])
    assert g.gx[0, 1] == 1.0 and g.gx[2, 3] == 1.0
    assert g.gx[1, 2] == 0.0 and g.gx[0, 3] == 0.0
    np.testing.assert_array_equal(g.pi, np.zeros((4, 4)))


def test_n5_k3_ascending_pairing():
    g = make_gamma_set(5, 3)
    np.testing.assert_array_equal(np.diag(g.gz), [1.0, -1.0, 0.0, 1.0, -1.0])
    np.testing.assert_array_equal(np.diag(g.pi), [0.0, 0.0, 1.0, 0.0, 0.0])


def test_domain_errors():
    with pytest.raises(ValueError, match="at least 2"):
        make_gamma_set(1)
    with pytest.raises(ValueError, match="k must be in"):
        make_gamma_set(3, 0)
    with pytest.raises(ValueError, match="k must be in"):
        make_gamma_set(3, 4)


def loop_generators(dim: int, k: int) -> np.ndarray:
    """``(gx, gy, gz, pi)`` written out pair by pair (reference)."""
    ops = np.zeros((4, dim, dim), dtype=complex)
    kept = [i for i in range(dim) if dim % 2 == 0 or i != k - 1]
    for p, q in zip(kept[::2], kept[1::2]):
        for m, pauli in enumerate((SX, SY, SZ)):
            ops[m][np.ix_([p, q], [p, q])] = pauli
    if dim % 2:
        ops[3, k - 1, k - 1] = 1.0
    return ops


@pytest.mark.parametrize("dim", range(2, 13))
def test_gamma_structure_invariants(dim):
    for k in range(1, dim + 1):
        g = make_gamma_set(dim, k)
        # every entry of every generator, against the per-pair loop
        for mat, ref in zip((g.gx, g.gy, g.gz, g.pi), loop_generators(dim, k)):
            np.testing.assert_array_equal(mat, ref)
        identity = np.eye(dim)
        # traceless generators, Hermitian structure
        for mat in (g.gx, g.gy, g.gz):
            assert abs(np.trace(mat)) == 0.0
            assert np.max(np.abs(mat - mat.conj().T)) == 0.0
        assert np.max(np.abs(g.gx.imag)) == 0.0
        assert np.max(np.abs(g.gz.imag)) == 0.0
        assert np.max(np.abs(g.gy.real)) == 0.0
        # involution up to the corner projector
        for mat in (g.gx, g.gy, g.gz):
            np.testing.assert_allclose(mat @ mat + g.pi, identity, atol=1e-12)
        # blockwise Pauli commutator
        comm = g.gx @ g.gy - g.gy @ g.gx
        np.testing.assert_allclose(comm, 2j * g.gz, atol=1e-12)
        if dim % 2 == 0:
            assert np.max(np.abs(g.pi)) == 0.0
        else:
            cut = k - 1
            assert g.pi[cut, cut] == 1.0
            assert np.count_nonzero(g.pi) == 1
            for mat in (g.gx, g.gy, g.gz):
                assert np.max(np.abs(mat[cut, :])) == 0.0
                assert np.max(np.abs(mat[:, cut])) == 0.0


def test_even_dim_ignores_k():
    a = make_gamma_set(4, 1)
    b = make_gamma_set(4, 3)
    np.testing.assert_array_equal(a.gx, b.gx)
    np.testing.assert_array_equal(a.pi, b.pi)


# ---------------------------------------------------------- observables

def test_observable_z_axis():
    a = observable(make_gamma_set(2), (0, 0, 1))
    np.testing.assert_array_equal(a, SZ)
    np.testing.assert_allclose(hermitian_eigenvalues(a), [-1, 1], atol=1e-14)


def test_observable_n3_k2_x_axis():
    a = observable(make_gamma_set(3, 2), (1, 0, 0))
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 2] = expected[2, 0] = 1.0
    expected[1, 1] = 1.0
    np.testing.assert_array_equal(a, expected)
    # 2x2 block on indices (1, 3) is sigma_x with spectrum {-1, 1};
    # the corner contributes the extra +1
    np.testing.assert_allclose(hermitian_eigenvalues(a), [-1, 1, 1], atol=1e-12)


def test_observable_n4_diagonal_axis():
    a = observable(make_gamma_set(4), (1 / ROOT2, 0, 1 / ROOT2))
    np.testing.assert_allclose(hermitian_eigenvalues(a), [-1, -1, 1, 1], atol=1e-10)


def test_observable_rejects_nonunit():
    with pytest.raises(UnitVectorError, match="got norm 2.0"):
        observable(make_gamma_set(2), (0, 0, 2))


@settings(max_examples=40, deadline=None)
@given(unit_vectors, st.integers(2, 7))
def test_observable_dichotomy_property(direction, dim):
    g = make_gamma_set(dim, 1 + dim // 2)
    a = observable(g, direction)
    for lam in hermitian_eigenvalues(a):
        assert abs(abs(lam) - 1.0) <= 1e-9
    np.testing.assert_allclose(a @ a, np.eye(dim), atol=1e-10)


def test_observable_dichotomy_up_to_dim_12():
    rng = np.random.default_rng(12)
    for dim in range(2, 13):
        for k in {1, 1 + dim // 2, dim}:
            g = make_gamma_set(dim, k)
            for _ in range(5):
                v = rng.normal(size=3)
                a = observable(g, v / np.linalg.norm(v))
                for lam in hermitian_eigenvalues(a):
                    assert abs(abs(lam) - 1.0) <= 1e-9


# --------------------------------------------------------- bell operator

def test_bell_operator_tsirelson_spectrum():
    g = make_gamma_set(2)
    top = hermitian_eigenvalues(bell_operator(g, tsirelson_settings()))[-1]
    assert abs(top - 2 * ROOT2) <= 1e-10


def test_bell_operator_collapse():
    # equal settings on both sides collapse the four terms to 2 A x B
    rng = np.random.default_rng(2)
    for dim in (2, 3, 4):
        k = 1 + dim // 2
        g = make_gamma_set(dim, k)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        s = BellSettings(v, v, v, v, k=k)
        op = bell_operator(g, s)
        a = observable(g, v)
        np.testing.assert_allclose(op, 2 * tensor(a, a), atol=1e-12)
        for lam in hermitian_eigenvalues(op):
            assert abs(abs(lam) - 2.0) <= 1e-9


def test_bell_operator_all_z():
    g = make_gamma_set(2)
    z = (0.0, 0.0, 1.0)
    op = bell_operator(g, BellSettings(z, z, z, z, k=1))
    np.testing.assert_allclose(op, 2 * tensor(SZ, SZ), atol=1e-14)


def test_bell_operator_norm_ceiling_random():
    rng = np.random.default_rng(17)
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim + 1))
        g = make_gamma_set(dim, k)
        vs = []
        for _ in range(4):
            v = rng.normal(size=3)
            vs.append(v / np.linalg.norm(v))
        op = bell_operator(g, BellSettings(*vs, k=k))
        top = max(abs(lam) for lam in hermitian_eigenvalues(op))
        assert top <= 2 * ROOT2 + 1e-8


def test_bell_operator_k_mismatch():
    g = make_gamma_set(3, 2)
    with pytest.raises(ValueError, match="k=3"):
        bell_operator(g, tsirelson_settings(k=3))


def test_settings_validation():
    with pytest.raises(UnitVectorError):
        BellSettings((0, 0, 0.5), (1, 0, 0), (0, 0, 1), (1, 0, 0))
    with pytest.raises(ValueError, match="positive index"):
        BellSettings((0, 0, 1), (1, 0, 0), (0, 0, 1), (1, 0, 0), k=0)


# --------------------------------------------------------------- stacks

def test_gamma_stack_matches_each_gamma_set():
    # One _entries call for every k gives each k the bits of make_gamma_set.
    for n in range(2, 10):
        ks = list(range(1, n + 1))
        stack = _gamma_stack(n, ks)
        assert stack.shape == (4, n, n, n)
        for k, ops in zip(ks, stack.swapaxes(0, 1)):
            gamma = make_gamma_set(n, k)
            for op, one in zip(ops, (gamma.gx, gamma.gy, gamma.gz, gamma.pi)):
                assert np.array_equal(op, one) and op.dtype == one.dtype
    # Repeated and unsorted ks are rows like any other.
    assert np.array_equal(_gamma_stack(5, [3, 1, 3])[:, [0, 2]], _gamma_stack(5, [3, 3]))


def _head_bell_operator(gamma, settings):
    # The one-matrix formula: each observable, then linalg.tensor, summed in order.
    a1, a2, b1, b2 = (d[0] * gamma.gx + d[1] * gamma.gy + d[2] * gamma.gz + gamma.pi
                      for d in (settings.a1, settings.a2, settings.b1, settings.b2))
    return tensor(a1, b1) + tensor(a1, b2) + tensor(a2, b1) - tensor(a2, b2)


def test_bell_operator_stack_matches_each_matrix():
    # A stack of Bell operators and one eigvalsh call give every row the bits of the
    # one-matrix formula and of its top eigenvalue.
    rng = np.random.default_rng(41)
    for n in range(2, 6):
        ks = rng.integers(1, n + 1, size=50)
        directions = np.stack([unit3_stack(rng, 4) for _ in ks])
        stack = _bell_operators(_gamma_stack(n, ks), directions)
        tops = hermitian_eigenvalues(stack)[:, -1]
        assert stack.shape == (50, n * n, n * n)
        for k, d, operator, top in zip(ks, directions, stack, tops):
            gamma, settings = make_gamma_set(n, int(k)), BellSettings(*d, k=int(k))
            reference = _head_bell_operator(gamma, settings)
            assert np.array_equal(operator, reference)
            assert np.array_equal(bell_operator(gamma, settings), reference)
            assert float(top).hex() == float(hermitian_eigenvalues(reference)[-1]).hex()
