from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from pluq import matrix
from pluq.oracle import all_leading_rank_profiles_naive
from conftest import leu_product, mat, random_matrix, to_matrix


def mask_and_sort(f, k, t):
    """Leading (k, t) profiles from every support, masked and sorted: the
    reference for the sorted support index."""
    rows, cols = f.supports
    inside = (rows < k) & (cols < t)
    return tuple(np.sort(rows[inside]).tolist()), tuple(np.sort(cols[inside]).tolist())


def assert_profiles(answer, expected):
    # `pluq rank-profile` hands the answers to json.dumps, which takes Python
    # ints only
    assert answer == expected
    for profile in answer:
        assert all(type(i) is int for i in profile)
        assert all(a < b for a, b in zip(profile, profile[1:]))


def test_full_rank_identity():
    f = pluq(mat(np.eye(4), 5))
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
        pmat = to_matrix(f.p_perm, field)
        sel = np.zeros((m, n), dtype=field.dtype)
        sel[: f.rank, : f.rank] = np.eye(f.rank)
        left = field.matmul_mod(pmat, sel)
        rows_explicit = tuple(int(i) for i in np.nonzero(left.any(axis=1))[0])
        assert row_rank_profile(f) == rows_explicit
        qmat = to_matrix(f.q_perm, field)
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
        assert sorted(zip(*fr.supports)) == sorted(zip(*fi.supports))


@st.composite
def shapes(draw):
    m, n = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    return m, n, draw(st.integers(0, min(m, n)))


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 1009]), shape=shapes(), seed=st.integers(0, 2**32 - 1))
@example(p=2, shape=(1, 40, 1), seed=1)
@example(p=1009, shape=(40, 1, 1), seed=2)
@example(p=1009, shape=(1, 17, 0), seed=3)
@example(p=2, shape=(0, 9, 0), seed=4)
@example(p=1009, shape=(40, 40, 40), seed=5)
def test_index_answers_every_leading_block_as_mask_and_sort(p, shape, seed):
    m, n, r = shape
    values = leu_product(np.random.default_rng(seed), m, n, p, r)[0]
    f = pluq(DenseMatrix(PrimeField(p), values))
    assert f.rank == r
    for k in range(m + 1):
        for t in range(n + 1):
            assert_profiles(leading_rank_profiles(f, k, t), mask_and_sort(f, k, t))
    assert_profiles((row_rank_profile(f), col_rank_profile(f)), mask_and_sort(f, m, n))


def test_supports_are_formed_once_per_factors(monkeypatch):
    # The pivot supports need P inverted and the sorted index needs them
    # sorted: one factors object does each once, however many profile
    # queries it answers.
    def factors():
        return pluq(gen_rank_deficient_rect(24, 20, 9, 101, seed=2))

    reference = factors()
    queries = [(leading_rank_profiles, (k % 25, k % 21)) for k in range(34)]
    queries += [(row_rank_profile, ()), (col_rank_profile, ())] * 33
    expected = [query(reference, *args) for query, args in queries]
    f = factors()
    calls = []
    inverse_map = matrix._inverse_map
    monkeypatch.setattr(matrix, "_inverse_map", lambda sigma: calls.append(sigma.size) or inverse_map(sigma))
    builds = []
    build = matrix.PluqFactors._support_index.func
    counted = cached_property(lambda factors: builds.append(1) or build(factors))
    counted.__set_name__(matrix.PluqFactors, "_support_index")
    monkeypatch.setattr(matrix.PluqFactors, "_support_index", counted)
    assert [query(f, *args) for query, args in queries] == expected
    assert len(queries) == 100 and len(calls) <= 1 and len(builds) == 1
