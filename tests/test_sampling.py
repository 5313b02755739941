import numpy as np
import pytest

from bellmax import sampling


def unit3_one_at_a_time(rng):
    """The per-vector draw ``unit3_stack`` replaces: one normal triple at a time,
    normalised by ``np.linalg.norm``, redrawn while its norm is at most 1e-6."""
    while True:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-6:
            return v / norm


class ShortTriples:
    """A generator whose normal triples at the given stream positions (counted in
    triples, redraws included) are scaled to a norm below 1e-6, so that the draw
    rejects them. Every other draw passes through unchanged."""

    def __init__(self, seed, short):
        self.inner = np.random.default_rng(seed)
        self.bit_generator = self.inner.bit_generator
        self.short, self.triples = set(short), 0

    def normal(self, size):
        v = self.inner.normal(size=size).reshape(-1, 3)
        for i in range(len(v)):
            if self.triples + i in self.short:
                v[i] *= 1e-7
        self.triples += len(v)
        return v.reshape(size)


@pytest.mark.parametrize("count", [1, 2, 4, 7, 4096])
@pytest.mark.parametrize("short", [(), (0,), (1, 2), (3, 4, 5), (4096,)])
def test_unit3_stack_draws_as_one_at_a_time(count, short):
    # Same rows, bit for bit, and the same generator state as count draws of
    # one vector each, with rejected triples redrawn in stream order.
    bulk, single = ShortTriples(count, short), ShortTriples(count, short)
    drawn = sampling.unit3_stack(bulk, count)
    expected = np.array([unit3_one_at_a_time(single) for _ in range(count)])
    assert drawn.shape == (count, 3)
    assert np.array_equal(drawn, expected)
    assert bulk.bit_generator.state == single.bit_generator.state
    assert bulk.triples == single.triples
    if short and min(short) < count:
        assert bulk.triples > count


def test_unit3_stack_rejects_only_short_triples():
    # Each rejected triple costs one more: 30 rows after 14 rejections take 44
    # triples, through redraws of redraws, and every row has unit norm.
    rng = ShortTriples(5, range(0, 40, 3))
    drawn = sampling.unit3_stack(rng, 30)
    assert rng.triples == 44
    np.testing.assert_allclose(np.linalg.norm(drawn, axis=1), 1.0, atol=1e-15)


def test_unit3_is_the_one_row_stack():
    first, second = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(50):
        assert np.array_equal(sampling.unit3(first), unit3_one_at_a_time(second))
    assert first.bit_generator.state == second.bit_generator.state


def test_unit3_stack_norms_match_linalg_norm():
    # The vecdot norm of the stack has the bits of np.linalg.norm of each row.
    v = np.random.default_rng(3).normal(size=(20000, 3))
    assert np.array_equal(np.sqrt(np.vecdot(v, v)), [float(np.linalg.norm(row)) for row in v])
    first, second = np.random.default_rng(4), np.random.default_rng(4)
    assert np.array_equal(sampling.unit3_stack(first, 20000),
                          [unit3_one_at_a_time(second) for _ in range(20000)])
