import numpy as np
import pytest

from pluq import DEFAULT_THRESHOLD, DenseMatrix, PrimeField


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


def leu_product(rng, m, n, p, support):
    """(values, rows, cols): L E U multiplied exactly in int64, independent
    of the package.  L and U are nonsingular lower and upper triangular,
    drawn in that order; E has ones at (rows[i], cols[i]).  ``support`` is a
    rank r, for which r distinct rows and then r distinct columns are drawn,
    or a given (rows, cols) pair.  The product L[:, rows] @ U[cols, :] splits
    L into 16-bit limbs: with p < 2**31 each limb product is below 2**47, so
    every partial sum stays below 2**63 for r <= 2**15."""
    lower = np.tril(rng.integers(0, p, (m, m)), -1) + np.diag(rng.integers(1, p, m))
    upper = np.triu(rng.integers(0, p, (n, n)), 1) + np.diag(rng.integers(1, p, n))
    if isinstance(support, int):
        rows = rng.choice(m, support, replace=False)
        cols = rng.choice(n, support, replace=False)
    else:
        rows, cols = (np.asarray(s, dtype=np.int64) for s in support)
    assert len(rows) <= 2**15
    left, right = lower[:, rows], upper[cols, :]
    high, low = (left >> 16) @ right, (left & 0xFFFF) @ right
    return (high % p * 2**16 + low) % p, rows, cols


def split_side(levels):
    """The smallest power of two n such that the recursion at
    ``DEFAULT_THRESHOLD`` splits an n x n block and its halves at ``levels``
    sizes: a block splits while min(m, n) > threshold (at 30, 128, 64 and 32
    split and 16 does not, so split_side(3) is 128)."""
    return 2 ** DEFAULT_THRESHOLD.bit_length() << (levels - 1)


def to_matrix(perm, field):
    """The explicit 0/1 matrix Mat(sigma), Mat(sigma)[i, sigma(i)] = 1: the
    reference for the package's permutation convention."""
    s = perm.size
    out = np.zeros((s, s), dtype=field.dtype)
    out[np.arange(s), perm.sigma] = 1
    return out


def is_identity(perm):
    return bool(np.array_equal(perm.sigma, np.arange(perm.size)))
