import numpy as np
import pytest

from parrondoq.linalg import (MAX_DIM, SizeLimitError, dagger, embed,
                              identity, kron, max_abs)


def test_identity_dtype_and_values():
    m = identity(4)
    assert m.dtype == np.complex128
    assert np.array_equal(m, np.eye(4))


def test_dagger_is_conjugate_transpose():
    m = np.array([[1 + 2j, 3], [4j, 5 - 1j]])
    d = dagger(m)
    assert d[0, 1] == -4j
    assert d[1, 0] == 3
    assert d[1, 1] == 5 + 1j


def test_kron_two_factor_block_structure():
    a = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    b = np.diag([1.0, -1.0]).astype(np.complex128)
    k = kron(a, b)
    assert k.shape == (4, 4)
    assert np.array_equal(k[:2, 2:], b)
    assert np.array_equal(k[:2, :2], np.zeros((2, 2)))


def test_kron_left_factor_most_significant():
    # |0><0| (x) X flips only the low qubit of the |00>,|01> block.
    p0 = np.diag([1.0, 0.0]).astype(np.complex128)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    k = kron(p0, x)
    assert k[0, 1] == 1 and k[1, 0] == 1
    assert max_abs(k[2:, 2:]) == 0


def test_kron_many_factors_dimension():
    factors = [identity(2)] * 5
    assert kron(*factors).shape == (32, 32)


def test_kron_size_limit():
    with pytest.raises(SizeLimitError):
        kron(*[identity(2)] * 13)
    # exactly MAX_DIM is allowed
    assert kron(identity(MAX_DIM // 2), identity(2)).shape[0] == MAX_DIM


def test_kron_rejects_no_operands():
    with pytest.raises(ValueError):
        kron()


def test_embed_places_block():
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    assert np.array_equal(embed(x, 0, 2), kron(x, identity(2)))
    assert np.array_equal(embed(x, 1, 2), kron(identity(2), x))
    eight = embed(x, 1, 3)
    assert np.array_equal(eight, kron(identity(2), x, identity(2)))


def test_embed_rejects_out_of_range():
    x = identity(4)
    with pytest.raises(ValueError):
        embed(x, 2, 3)          # would hang off the end
    with pytest.raises(ValueError):
        embed(x, -1, 3)


def test_max_abs_and_empty():
    assert max_abs(np.array([[3, -4j]])) == 4.0
    assert max_abs(np.zeros((0, 0))) == 0.0
