import numpy as np
import pytest

from pluq import (
    gen_full_rank_generic,
    gen_rank_deficient_rect,
    rank_naive,
)


def test_same_seed_same_matrix():
    a = gen_rank_deficient_rect(12, 12, 6, 101, seed=99)
    b = gen_rank_deficient_rect(12, 12, 6, 101, seed=99)
    assert a.to_text() == b.to_text()
    c = gen_rank_deficient_rect(12, 12, 6, 101, seed=100)
    assert a != c


def test_generic_single_entry():
    a = gen_full_rank_generic(1, 7, seed=0)
    assert a.shape == (1, 1) and int(a.data[0, 0]) != 0


def test_generic_all_leading_minors_nonzero():
    for seed in range(4):
        a = gen_full_rank_generic(8, 1009, seed)
        for k in range(1, 9):
            assert rank_naive(a.leading_submatrix(k, k)) == k, (seed, k)


def test_rank_deficient_rank_exact():
    rng = np.random.default_rng(12)
    for _ in range(25):
        m, n = (int(x) for x in rng.integers(1, 14, 2))
        r = int(rng.integers(0, min(m, n) + 1))
        a = gen_rank_deficient_rect(m, n, r, 101, int(rng.integers(0, 2**32)))
        assert rank_naive(a) == r


def test_rank_zero_is_zero_matrix():
    a = gen_rank_deficient_rect(5, 5, 0, 7, seed=1)
    assert not a.data.any()


def test_full_rank_leu():
    a = gen_rank_deficient_rect(6, 6, 6, 7, seed=2)
    assert rank_naive(a) == 6


def test_rank_out_of_range():
    with pytest.raises(ValueError):
        gen_rank_deficient_rect(3, 4, 4, 7, seed=0)
