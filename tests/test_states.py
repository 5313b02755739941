import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellmax.linalg import hermitian_eigenvalues
from bellmax.states import (
    DensityMatrix,
    DomainError,
    IsotropicState,
    NormalizationError,
    PositivityError,
    SchemaError,
    SchmidtState,
    StateValidationError,
    as_density,
    isotropic_to_density,
    load_state,
    partial_trace,
    schmidt_to_density,
)

HALF = 1.0 / math.sqrt(2.0)


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


# ----------------------------------------------------------- containers

def test_schmidt_validation():
    SchmidtState(2, (1.0, 0.0))
    with pytest.raises(NormalizationError, match="sum to 1"):
        SchmidtState(2, (1.0, 1.0))
    with pytest.raises(SchemaError, match="expected 3"):
        SchmidtState(3, (1.0, 0.0))
    with pytest.raises(DomainError):
        SchmidtState(1, (1.0,))


def test_negative_coefficients_allowed():
    s = SchmidtState(2, (HALF, -HALF))
    assert s.coeffs == (HALF, -HALF)


def test_isotropic_validation():
    IsotropicState(3, 0.0)
    IsotropicState(3, 1.0)
    with pytest.raises(DomainError, match="\\[0, 1\\]"):
        IsotropicState(3, 1.5)
    with pytest.raises(DomainError):
        IsotropicState(3, -0.1)


def test_density_validation():
    with pytest.raises(NormalizationError, match="unit trace"):
        DensityMatrix(2, np.eye(4))
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.5
    with pytest.raises(Exception, match="Hermitian"):
        DensityMatrix(2, bad)
    with pytest.raises(SchemaError, match="shape"):
        DensityMatrix(2, np.eye(3) / 3.0)


# ---------------------------------------------------------- conversions

def test_schmidt_product_state():
    rho = schmidt_to_density(SchmidtState(2, (1.0, 0.0))).rho
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_schmidt_bell_state():
    rho = schmidt_to_density(SchmidtState(2, (HALF, HALF))).rho
    assert abs(purity(rho) - 1.0) <= 1e-10
    # support on |00> and |11> only
    assert abs(rho[0, 0] - 0.5) <= 1e-15
    assert abs(rho[0, 3] - 0.5) <= 1e-15
    assert abs(rho[3, 3] - 0.5) <= 1e-15


def test_schmidt_sparse_n3():
    # (|11> + |33>)/sqrt(2): product-basis indices 0 and 8
    rho = schmidt_to_density(SchmidtState(3, (HALF, 0.0, HALF))).rho
    assert abs(purity(rho) - 1.0) <= 1e-10
    for i, j in ((0, 0), (0, 8), (8, 0), (8, 8)):
        assert abs(rho[i, j] - 0.5) <= 1e-15
    assert np.count_nonzero(np.abs(rho) > 1e-15) == 4


def test_isotropic_limits():
    fully_mixed = isotropic_to_density(IsotropicState(3, 1.0)).rho
    np.testing.assert_allclose(
        hermitian_eigenvalues(fully_mixed), np.full(9, 1 / 9), atol=1e-12
    )
    pure = isotropic_to_density(IsotropicState(3, 0.0)).rho
    assert abs(purity(pure) - 1.0) <= 1e-10


def test_isotropic_n2_half_spectrum():
    # x/N^2 = 1/8 three times, plus 1/8 + 1/2 = 5/8 once
    rho = isotropic_to_density(IsotropicState(2, 0.5)).rho
    np.testing.assert_allclose(
        hermitian_eigenvalues(rho), [1 / 8, 1 / 8, 1 / 8, 5 / 8], atol=1e-12
    )


def test_isotropic_spectrum_structure():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        x = float(rng.uniform(0, 1))
        values = hermitian_eigenvalues(isotropic_to_density(IsotropicState(n, x)).rho)
        floor = x / (n * n)
        np.testing.assert_allclose(values[:-1], floor, atol=1e-10)
        assert abs(values[-1] - (floor + 1.0 - x)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.data())
def test_partial_trace_recovers_schmidt_weights(dim, data):
    raw = data.draw(
        st.lists(st.floats(-1, 1), min_size=dim, max_size=dim).filter(
            lambda cs: math.fsum(c * c for c in cs) > 0.05
        )
    )
    norm = math.sqrt(math.fsum(c * c for c in raw))
    coeffs = tuple(c / norm for c in raw)
    rho = schmidt_to_density(SchmidtState(dim, coeffs))
    weights = np.diag([c * c for c in coeffs])
    np.testing.assert_allclose(partial_trace(rho, "a"), weights, atol=1e-10)
    np.testing.assert_allclose(partial_trace(rho, "b"), weights, atol=1e-10)


def test_as_density_dispatch():
    for state in (
        SchmidtState(2, (1.0, 0.0)),
        IsotropicState(2, 0.3),
        schmidt_to_density(SchmidtState(2, (HALF, HALF))),
    ):
        rho = as_density(state)
        assert rho.dim == 2
    with pytest.raises(TypeError):
        as_density("nope")
    # N = 65 is the first size whose N^2 x N^2 matrix exceeds the cap;
    # the check fires before anything is allocated.
    for state in (IsotropicState(65, 0.0), SchmidtState(65, (1.0,) + (0.0,) * 64)):
        with pytest.raises(DomainError, match="cap is 4096"):
            as_density(state)


# -------------------------------------------------------------- loading

def test_load_schmidt():
    doc = json.dumps({"type": "schmidt", "N": 3,
                      "coeffs": [HALF, 0.0, HALF]})
    state = load_state(doc)
    assert isinstance(state, SchmidtState)
    assert state.dim == 3


def test_load_isotropic():
    state = load_state('{"type":"isotropic","N":4,"x":0.1}')
    assert isinstance(state, IsotropicState)
    assert state.x == 0.1


def test_load_density_roundtrip():
    rho = schmidt_to_density(SchmidtState(2, (HALF, HALF))).rho
    doc = json.dumps({
        "type": "density", "N": 2,
        "re": rho.real.tolist(), "im": rho.imag.tolist(),
    })
    state = load_state(doc)
    assert isinstance(state, DensityMatrix)
    np.testing.assert_allclose(state.rho, rho, atol=1e-15)


def test_number_grid_fast_path_matches_entry_loop():
    # Rows of plain floats are converted as one array; any other grid goes entry
    # by entry. Both give the loop's bits, and a bad entry the loop's error.
    from bellmax.states import _number_grid, _require_number

    rng = np.random.default_rng(5)
    for size in (4, 9, 16):
        rows = (rng.normal(size=(size, size))
                * 10.0 ** rng.integers(-300, 300, (size, size))).tolist()
        rows[0][0], rows[-1][-1] = -0.0, 5e-324
        loop = np.array([[_require_number(x, "") for x in row] for row in rows])
        assert _number_grid({"re": rows}, "re", size).tobytes() == loop.tobytes()
    eye = [[float(i == j) for j in range(4)] for i in range(4)]
    with_ints = [[int(x) for x in row] for row in eye]
    assert _number_grid({"re": with_ints}, "re", 4).tobytes() == np.eye(4).tobytes()
    bad = {
        (1, 2, math.nan): "re[1][2] must be finite",
        (3, 0, math.inf): "re[3][0] must be finite",
        (0, 3, True): "re[0][3] must be a number",
        (2, 1, None): "re[2][1] must be a number",
        (1, 1, 10**400): "re[1][1] must be finite",
    }
    for (i, j, entry), message in bad.items():
        rows = [list(row) for row in eye]
        rows[i][j] = entry
        with pytest.raises(SchemaError, match=re.escape(message)):
            _number_grid({"re": rows}, "re", 4)
    for row in (eye[2][:3], eye[2] + [0.0], tuple(eye[2]), "abcd"):
        with pytest.raises(SchemaError, match="field 're' row 2 must have 4 entries"):
            _number_grid({"re": eye[:2] + [row] + eye[3:]}, "re", 4)


def test_load_rejects_unknown_fields():
    with pytest.raises(SchemaError, match="unknown fields"):
        load_state('{"type":"isotropic","N":4,"x":0.1,"extra":1}')


def test_load_rejects_bad_type():
    with pytest.raises(SchemaError, match="'type'"):
        load_state('{"type":"ghz","N":4}')


def test_load_rejects_malformed_json():
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_state("{")


def test_load_rejects_non_integer_dim():
    with pytest.raises(SchemaError, match="integer"):
        load_state('{"type":"isotropic","N":2.5,"x":0.1}')


def test_load_rejects_non_psd_density():
    # Hermitian, unit trace, but one negative eigenvalue
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
    spectrum = np.full(64, 1.02 / 63)
    spectrum[0] = -0.02
    rotated = (q * spectrum) @ q.conj().T
    # Hermitian and unit trace too, with entries whose sum a + a^H overflows
    overflowing = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    overflowing[0, 1], overflowing[1, 0] = 1e308j, -1e308j
    for dim, mat in ((2, np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)),
                     (8, rotated), (2, overflowing)):
        doc = json.dumps({
            "type": "density", "N": dim,
            "re": mat.real.tolist(), "im": mat.imag.tolist(),
        })
        with pytest.raises(PositivityError, match="minimum eigenvalue"):
            load_state(doc)


def test_load_error_codes_distinct():
    cases = {
        "schema": '{"type":"schmidt","N":2}',
        "normalization": '{"type":"schmidt","N":2,"coeffs":[1.0,1.0]}',
        "domain": '{"type":"isotropic","N":4,"x":2.0}',
    }
    seen = {}
    for expected, doc in cases.items():
        with pytest.raises(Exception) as info:
            load_state(doc)
        seen[expected] = info.value.code
    assert seen == {k: k for k in cases}


_STATE_FIELDS = ("type", "N", "coeffs", "re", "im", "x")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(("schmidt", "density", "isotropic")) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(_STATE_FIELDS) | st.text(max_size=4),
                      inner, max_size=6),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES.map(json.dumps))
@example('{"type": "density", "N": 2, "re": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], '
         '[0, 0, 0, 0]], "im": [[0, 1e308, 0, 0], [-1e308, 0, 0, 0], [0, 0, 0, 0], '
         '[0, 0, 0, 0]]}')  # Hermitian, unit trace; a + a^H overflows
@example("[" * 200_000)  # nesting deeper than the recursion limit
@example("1" * 5000)  # more digits than int() converts
@example('{"type": [], "N": 2}')  # unhashable type field
@example('{"type": "isotropic", "N": 2, "x": 1' + "0" * 400 + "}")  # int beyond float
def test_load_state_any_json_gives_state_or_typed_error(document):
    try:
        state = load_state(document)
    except StateValidationError:
        return
    assert isinstance(state, (SchmidtState, DensityMatrix, IsotropicState))

