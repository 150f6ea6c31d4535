import numpy as np
import pytest

from pluq import (
    DenseMatrix,
    PrimeField,
    col_rank_profile,
    gen_rank_deficient_rect,
    leading_rank_profiles,
    pluq,
    pluq_iterative,
    row_rank_profile,
)
from pluq.oracle import all_leading_rank_profiles_naive
from conftest import mat, random_matrix


def test_full_rank_identity():
    f = pluq(DenseMatrix.identity(4, PrimeField(5)))
    assert row_rank_profile(f) == (0, 1, 2, 3)
    assert col_rank_profile(f) == (0, 1, 2, 3)


def test_rank_zero_empty_profiles():
    f = pluq(mat([[0, 0], [0, 0]], 5))
    assert row_rank_profile(f) == ()
    assert col_rank_profile(f) == ()


def test_2x2_example():
    f = pluq(mat([[0, 0], [1, 0]], 2))
    assert row_rank_profile(f) == (1,)
    assert col_rank_profile(f) == (0,)


def test_leading_full_equals_whole_matrix():
    a = gen_rank_deficient_rect(6, 6, 3, 101, seed=2)
    f = pluq(a.copy())
    assert leading_rank_profiles(f, 6, 6) == (row_rank_profile(f), col_rank_profile(f))
    assert leading_rank_profiles(f, 0, 4) == ((), ())
    assert leading_rank_profiles(f, 4, 0) == ((), ())
    with pytest.raises(ValueError):
        leading_rank_profiles(f, 7, 0)


def test_6x6_rank3_all_pairs_vs_oracle():
    a = gen_rank_deficient_rect(6, 6, 3, 3, seed=11)
    orig = a.copy()
    f = pluq(a)
    oracle = all_leading_rank_profiles_naive(orig)
    for (k, t), expected in oracle.items():
        assert leading_rank_profiles(f, k, t) == expected


def test_profile_matches_explicit_permutation_matrix():
    # cross-check the O(r) support extraction against Mat(P) [I_r; 0] built densely
    rng = np.random.default_rng(23)
    for _ in range(20):
        m, n = (int(x) for x in rng.integers(1, 8, 2))
        a = random_matrix(rng, m, n, 7)
        f = pluq(a.copy())
        field = a.field
        pmat = f.p_perm.to_matrix(field).data
        sel = np.zeros((m, n), dtype=field.dtype)
        sel[: f.rank, : f.rank] = np.eye(f.rank)
        left = field.matmul_mod(pmat, sel)
        rows_explicit = tuple(int(i) for i in np.nonzero(left.any(axis=1))[0])
        assert row_rank_profile(f) == rows_explicit
        qmat = f.q_perm.to_matrix(field).data
        right = field.matmul_mod(sel, qmat)
        cols_explicit = tuple(int(j) for j in np.nonzero(right.any(axis=0))[0])
        assert col_rank_profile(f) == cols_explicit


def test_recursive_and_iterative_profiles_coincide():
    rng = np.random.default_rng(29)
    for _ in range(25):
        m, n = (int(x) for x in rng.integers(1, 10, 2))
        a = random_matrix(rng, m, n, 101)
        fr = pluq(a.copy(), threshold=2)
        fi = pluq_iterative(a.copy())
        assert fr.rank == fi.rank
        assert sorted(fr.support_pairs()) == sorted(fi.support_pairs())
