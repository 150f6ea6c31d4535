import numpy as np
import pytest

from pluq import DenseMatrix, PrimeField


@pytest.fixture
def f5():
    return PrimeField(5)


@pytest.fixture
def f1009():
    return PrimeField(1009)


def mat(rows, p):
    """DenseMatrix from nested lists."""
    field = PrimeField(p)
    arr = np.array(rows, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr.reshape(len(rows), -1) if len(rows) else arr.reshape(0, 0)
    return DenseMatrix(field, arr)


def random_matrix(rng, m, n, p):
    field = PrimeField(p)
    return DenseMatrix(field, rng.integers(0, p, size=(m, n), dtype=np.int64))


def to_matrix(perm, field):
    """The explicit 0/1 matrix Mat(sigma), Mat(sigma)[i, sigma(i)] = 1: the
    reference for the package's permutation convention."""
    s = perm.size
    out = np.zeros((s, s), dtype=field.dtype)
    out[np.arange(s), perm.sigma] = 1
    return out


def is_identity(perm):
    return bool(np.array_equal(perm.sigma, np.arange(perm.size)))
