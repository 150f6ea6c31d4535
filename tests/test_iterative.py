import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from pluq import (
    ClassicalKernels,
    DenseMatrix,
    OpCounts,
    Permutation,
    PrimeField,
    all_leading_rank_profiles_naive,
    leading_rank_profiles,
    pluq,
    pluq_iterative,
    rank_naive,
)
from pluq.iterative import _decompose_inplace
from conftest import mat, random_matrix


def test_zero_matrix():
    f = pluq_iterative(mat([[0, 0, 0], [0, 0, 0]], 5))
    assert f.rank == 0
    assert f.p_perm.is_identity() and f.q_perm.is_identity()
    assert not f.packed.data.any()


def test_antidiagonal_2x2():
    a = mat([[0, 1], [1, 0]], 2)
    f = pluq_iterative(a)
    assert f.rank == 2
    assert leading_rank_profiles(f, 2, 2) == ((0, 1), (0, 1))
    assert f.reconstruct() == mat([[0, 1], [1, 0]], 2)


def test_3x3_example_matches_recursive():
    rows = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
    fi = pluq_iterative(mat(rows, 2))
    fr = pluq(mat(rows, 2), threshold=1)
    assert fi.rank == fr.rank == 2
    from pluq import col_rank_profile, row_rank_profile

    assert row_rank_profile(fi) == row_rank_profile(fr) == (1, 2)
    assert col_rank_profile(fi) == col_rank_profile(fr) == (1, 2)
    assert fi.reconstruct() == mat(rows, 2)


def test_single_row_and_column():
    f = pluq_iterative(mat([[0, 0, 5]], 7))
    assert f.rank == 1
    assert np.array_equal(f.packed.data, np.array([[5, 0, 0]]))
    assert f.reconstruct() == mat([[0, 0, 5]], 7)

    f = pluq_iterative(mat([[0], [2], [4]], 5))
    assert f.rank == 1
    assert np.array_equal(f.packed.data.ravel(), [2, 0, 2])
    assert f.p_perm == Permutation([1, 0, 2])
    assert f.reconstruct() == mat([[0], [2], [4]], 5)


def test_frontier_monotonicity():
    rng = np.random.default_rng(17)
    for _ in range(25):
        m, n = (int(x) for x in rng.integers(0, 9, 2))
        a = random_matrix(rng, m, n, 3)
        trace = []
        _decompose_inplace(a.data, ClassicalKernels(a.field), OpCounts(), trace=trace)
        last_i = last_j = 0
        for i, j, r in trace:
            assert last_i <= i <= m and last_j <= j <= n
            assert r <= min(i, j) or (i == 0 and j == 0)
            last_i, last_j = i, j


def test_exhaustive_3x3_f2_profiles():
    # all 512 matrices, all 16 leading blocks each
    for entries in itertools.product(range(2), repeat=9):
        a = mat([list(entries[0:3]), list(entries[3:6]), list(entries[6:9])], 2)
        orig = a.copy()
        f = pluq_iterative(a)
        oracle = all_leading_rank_profiles_naive(orig)
        assert f.reconstruct() == orig
        for (k, t), expected in oracle.items():
            assert leading_rank_profiles(f, k, t) == expected, (entries, k, t)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 101]),
    m=st.integers(0, 8),
    n=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_reconstruction_and_rank(p, m, n, seed):
    a = random_matrix(np.random.default_rng(seed), m, n, p)
    orig = a.copy()
    f = pluq_iterative(a)
    assert f.reconstruct() == orig
    assert not f.check_structure()
    assert f.rank == rank_naive(orig)


def test_determinism():
    a = random_matrix(np.random.default_rng(21), 9, 7, 101)
    f1 = pluq_iterative(a.copy())
    f2 = pluq_iterative(a.copy())
    assert f1.p_perm == f2.p_perm and f1.q_perm == f2.q_perm
    assert np.array_equal(f1.packed.data, f2.packed.data)
