"""Differential tests across moduli: every route against the brute-force oracles.

Every prime below 2**31 is stored as float64, and a product whose inner
dimension exceeds ``PrimeField.max_accumulate`` (8192 at 1048573, 2 at
67108859, 0 at 2**31 - 1) is formed from limb-split partial products.  Each
drawn input goes through the recursive algorithm at threshold 1 and at
``DEFAULT_THRESHOLD`` and through ``pluq_iterative``, stored in C order, in
Fortran order or as a strided view into a larger array.  Every result must
reconstruct the input exactly and agree with ``LeadingProfileTable`` on the
rank and on the row and column rank profiles of every leading block.  Past
the greedy table's reach, only L E U inputs are drawn, and the result's
supports must be E's: E is the input's rank profile matrix (Dumas, Pernet
and Sultan, J. Symbolic Comput. 83, 2017), which fixes every leading profile.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from pluq import DEFAULT_THRESHOLD, DenseMatrix, PrimeField, leading_rank_profiles, pluq, pluq_iterative
from pluq.oracle import LeadingProfileTable
from conftest import leu_product

PRIMES = [2, 3, 1009, 1048573, 67108859, 2**31 - 1]
ROUTES = [
    ("threshold 1", lambda a: pluq(a, threshold=1)),
    ("default threshold", lambda a: pluq(a, threshold=DEFAULT_THRESHOLD)),
    ("iterative", pluq_iterative),
]
BIG = DEFAULT_THRESHOLD + 8  # tall and wide blocks reach past the crossover
ORACLE_REACH = 40  # larger sides check E's support: the greedy LeadingProfileTable is too slow there
SENTINEL = 1.0


@st.composite
def shapes(draw):
    kind = draw(st.sampled_from(["empty", "row", "col", "tall", "wide"]))
    if kind == "empty":
        side = draw(st.integers(0, 6))
        return draw(st.sampled_from([(0, side), (side, 0)]))
    if kind == "row":
        return 1, draw(st.integers(1, BIG))
    if kind == "col":
        return draw(st.integers(1, BIG)), 1
    short = draw(st.integers(2, BIG - 1))
    long = draw(st.integers(short + 1, BIG))
    return (long, short) if kind == "tall" else (short, long)


def _entries(rng, m, n, p, low_rank):
    """(values, support): a rank-deficient L E U product and E's support
    (rows, cols), or a sparse matrix of 0, 1 and p - 1 (the largest residue)
    and None."""
    if low_rank:
        r = int(rng.integers(0, min(m, n) + 1))
        values, rows, cols = leu_product(rng, m, n, p, r)
        return values, (rows, cols)
    return rng.choice(np.array([0, 0, 0, 1, p - 1]), size=(m, n)), None


def _stored(arr, layout):
    """``arr`` as float64 in the given layout; a strided view also returns
    its host, whose other entries hold ``SENTINEL``."""
    arr = arr.astype(np.float64)
    if layout == "fortran":
        return np.asfortranarray(arr), None
    if layout == "strided":
        m, n = arr.shape
        host = np.full((2 * m + 1, 3 * n + 2), SENTINEL)
        view = host[1::2, 2::3]
        view[:] = arr
        return view, host
    return np.ascontiguousarray(arr), None


def _sentinels_kept(host):
    """Whether a strided view's host still holds ``SENTINEL`` outside the view."""
    outside = np.ones(host.shape, dtype=bool)
    outside[1::2, 2::3] = False
    return bool(np.all(host[outside] == SENTINEL))


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    shape=shapes(),
    low_rank=st.booleans(),
    layout=st.sampled_from(["c", "fortran", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
# past the crossover, so the default threshold recurses, at the widest modulus
@example(p=2**31 - 1, shape=(BIG, DEFAULT_THRESHOLD + 3), low_rank=True, layout="strided", seed=7)
@example(p=67108859, shape=(DEFAULT_THRESHOLD + 2, BIG), low_rank=False, layout="fortran", seed=8)
def test_routes_agree_with_oracles_across_moduli(p, shape, low_rank, layout, seed):
    field = PrimeField(p)
    m, n = shape
    by_table = max(m, n) <= ORACLE_REACH
    values, support = _entries(np.random.default_rng(seed), m, n, p, low_rank or not by_table)
    original = DenseMatrix(field, values)
    table = LeadingProfileTable(original) if by_table else None
    for route, decompose in ROUTES:
        data, host = _stored(values, layout)
        a = DenseMatrix(field, data)
        assert a.data is data  # decomposed in this storage, not in a copy
        f = decompose(a)
        assert f.check_structure() == [], route
        assert f.reconstruct() == original, route
        if table is None:
            assert sorted(zip(*f.supports)) == sorted(zip(*support)), route
        else:
            assert f.rank == len(table.rows(m, n)), route
            for k in range(m + 1):
                for t in range(n + 1):
                    assert leading_rank_profiles(f, k, t) == (table.rows(k, t), table.cols(k, t)), (route, k, t)
        assert host is None or _sentinels_kept(host), route
