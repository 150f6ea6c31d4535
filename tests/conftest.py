import signal

import numpy as np
import pytest

from pluq import DEFAULT_THRESHOLD, DenseMatrix, PrimeField

# Wall-clock limit per test; the slowest test takes under 10 s, so a test
# that reaches it hangs (say, a pivot search that never ends).
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TEST_TIME_LIMIT_S.  Not an Exception,
    so hypothesis does not catch it and replay the hanging example to shrink
    it; pytest reports the test as failed and goes on."""


def _time_up(signum, frame):
    raise TimeLimitExceeded(f"ran past the {TEST_TIME_LIMIT_S} s limit per test")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S, so a hang fails one test
    instead of stalling the suite."""
    previous = signal.signal(signal.SIGALRM, _time_up)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


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


def limb_product(left, right, p):
    """(left @ right) % p exactly in int64, independent of the package, for
    entries in [0, p) with p < 2**31.  ``left`` splits into 16-bit limbs: each
    limb product is below 2**47, so every partial sum stays below 2**63 for an
    inner dimension up to 2**15."""
    assert left.shape[1] <= 2**15
    high, low = (left >> 16) @ right, (left & 0xFFFF) @ right
    return (high % p * 2**16 + low) % p


def nonsingular_triangles(rng, m, n, p):
    """A nonsingular m x m lower and n x n upper triangular int64 matrix over
    F_p, drawn in that order."""
    lower = np.tril(rng.integers(0, p, (m, m)), -1) + np.diag(rng.integers(1, p, m))
    upper = np.triu(rng.integers(0, p, (n, n)), 1) + np.diag(rng.integers(1, p, n))
    return lower, upper


def leu_product(rng, m, n, p, support):
    """(values, rows, cols): L E U multiplied exactly in int64 by
    ``limb_product``.  L and U come from ``nonsingular_triangles``; E has ones
    at (rows[i], cols[i]).  ``support`` is a rank r, for which r distinct rows
    and then r distinct columns are drawn, or a given (rows, cols) pair.  The
    product is L[:, rows] @ U[cols, :]."""
    lower, upper = nonsingular_triangles(rng, m, n, p)
    if isinstance(support, int):
        rows = rng.choice(m, support, replace=False)
        cols = rng.choice(n, support, replace=False)
    else:
        rows, cols = (np.asarray(s, dtype=np.int64) for s in support)
    return limb_product(lower[:, rows], upper[cols, :], p), rows, cols


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
