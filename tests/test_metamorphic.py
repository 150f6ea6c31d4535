"""Metamorphic oracle for structured inputs: the rank profile matrix of A is
unchanged by A -> L A U for nonsingular lower L and upper U, and transposing A
transposes it (Dumas, Pernet and Sultan, J. Symbolic Comput. 83, 2017).

So whatever A is, ``pluq(L A U)`` must reveal the support that ``pluq(A)``
reveals and answer every leading-block query the same way, and ``pluq(A.T)``
must reveal the transposed support.  This needs no independent oracle for A,
so it reaches the inputs that drawn L E U products rarely are: sparse and 0/1
matrices, repeated rows, zero bands, rank 0 and rank 1.  Those drive the
zero-block return, the base case's jump scan and nodes with r2 = r3 = 0.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from pluq import DEFAULT_THRESHOLD, DenseMatrix, PrimeField, leading_rank_profiles, pluq, pluq_iterative
from conftest import limb_product, nonsingular_triangles

ROUTES = {
    "threshold 1": lambda a: pluq(a, threshold=1),
    "default threshold": lambda a: pluq(a, threshold=DEFAULT_THRESHOLD),
    "iterative": pluq_iterative,
}


def _sparse(rng, m, n, p):
    return np.where(rng.random((m, n)) < rng.choice([0.02, 0.1, 0.3]), rng.integers(1, p, (m, n)), 0)


def _zero_one(rng, m, n, p):
    return (rng.random((m, n)) < 0.5).astype(np.int64)


def _repeated_rows(rng, m, n, p):
    base = _sparse(rng, int(rng.integers(1, m + 1)), n, p)
    return base[rng.integers(0, base.shape[0], m)]


def _zero_bands(rng, m, n, p):
    a = rng.integers(0, p, (m, n))
    i, j = rng.integers(0, m), rng.integers(0, n)
    a[i : i + rng.integers(1, m + 1)] = 0
    a[:, j : j + rng.integers(1, n + 1)] = 0
    return a


def _rank_at_most_one(rng, m, n, p):
    # zero with probability 1/4, else the product of two sparse factors
    u, v = _sparse(rng, m, 1, p), _sparse(rng, 1, n, p)
    return limb_product(u, v, p) * (rng.random() < 0.75)


KINDS = {
    "sparse": _sparse,
    "0/1": _zero_one,
    "repeated rows": _repeated_rows,
    "zero bands": _zero_bands,
    "rank 0 or 1": _rank_at_most_one,
}


def _support(f):
    return sorted(zip(f.supports[0].tolist(), f.supports[1].tolist()))


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 1009, 65521]),
    m=st.integers(1, 60),
    n=st.integers(1, 60),
    kind=st.sampled_from(sorted(KINDS)),
    seed=st.integers(0, 2**32 - 1),
)
# every kind at least once, past the default threshold's first split
@example(p=2, m=60, n=45, kind="0/1", seed=1)
@example(p=1009, m=37, n=60, kind="repeated rows", seed=2)
@example(p=65521, m=58, n=59, kind="zero bands", seed=3)
@example(p=2, m=41, n=60, kind="sparse", seed=4)
@example(p=1009, m=60, n=33, kind="rank 0 or 1", seed=5)
def test_profiles_survive_triangular_products_and_transposition(p, m, n, kind, seed):
    rng = np.random.default_rng(seed)
    values = KINDS[kind](rng, m, n, p)
    lower, upper = nonsingular_triangles(rng, m, n, p)
    conjugated = limb_product(limb_product(lower, values, p), upper, p)
    field = PrimeField(p)
    grid = [(int(k), int(t)) for k in np.linspace(0, m, 7) for t in np.linspace(0, n, 7)]
    expected = None
    for route, decompose in ROUTES.items():
        f = decompose(DenseMatrix(field, values))
        g = decompose(DenseMatrix(field, conjugated))
        ft = decompose(DenseMatrix(field, values.T))
        if expected is None:
            expected = _support(f)
        assert _support(f) == expected, route
        assert _support(g) == expected, route
        assert sorted((j, i) for i, j in _support(ft)) == expected, route
        assert [leading_rank_profiles(g, k, t) for k, t in grid] == [
            leading_rank_profiles(f, k, t) for k, t in grid
        ], route
