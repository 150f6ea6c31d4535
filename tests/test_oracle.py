import itertools

import numpy as np
import pytest

from pluq import (
    LeadingProfileTable,
    OpCounts,
    gen_full_rank_generic,
    gen_rank_deficient_rect,
    ple_row_major,
    r_ple_recurrence,
    r_pluq_closed_form,
)
from conftest import greedy_leading_profiles, mat, random_matrix


def test_table_rank_trivial():
    assert LeadingProfileTable(mat([[0, 0], [0, 0]], 5)).rank == 0
    assert LeadingProfileTable(mat(np.eye(4), 5)).rank == 4
    assert LeadingProfileTable(mat([[1, 2], [2, 4]], 5)).rank == 1  # row 2 = 2 * row 1


def test_profiles_trivial():
    assert LeadingProfileTable(mat(np.eye(3), 2)).rows(3, 3) == (0, 1, 2)
    table = LeadingProfileTable(mat([[0, 0], [0, 1]], 2))
    assert table.rows(2, 2) == (1,)
    assert table.cols(2, 2) == (1,)


def _independent(rows_subset, p):
    """Rank check by exhaustive combination enumeration (tiny sizes only)."""
    rows = [np.array(r, dtype=np.int64) for r in rows_subset]
    if not rows:
        return True
    n = len(rows[0])
    seen = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = tuple((sum(c * r for c, r in zip(coeffs, rows)) % p).tolist())
        if v == tuple([0] * n) and any(coeffs):
            return False
    return True


def test_greedy_profile_is_lexicographically_minimal_exhaustive():
    # all 2x2 and 3x3 over F2: greedy picks the lexicographically smallest
    # independent row set, verified by enumerating all independent subsets
    for m, n in [(2, 2), (3, 3)]:
        for entries in itertools.product(range(2), repeat=m * n):
            a = mat([list(entries[i * n : (i + 1) * n]) for i in range(m)], 2)
            table = LeadingProfileTable(a)
            profile = table.rows(m, n)
            r = table.rank
            assert len(profile) == r
            candidates = [
                s
                for s in itertools.combinations(range(m), r)
                if _independent([a.data[i] for i in s], 2)
            ]
            assert profile == min(candidates) if candidates else profile == ()


def test_profile_lengths_equal_rank():
    rng = np.random.default_rng(15)
    for _ in range(30):
        m, n = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        table = LeadingProfileTable(random_matrix(rng, m, n, 3))
        assert len(table.rows(m, n)) == table.rank
        assert len(table.cols(m, n)) == table.rank


def test_all_leading_trivial_bounds():
    a = gen_rank_deficient_rect(4, 4, 2, 3, seed=2)
    per_block = greedy_leading_profiles(a)
    table = LeadingProfileTable(a)
    assert per_block[(0, 3)] == ((), ())
    assert per_block[(4, 4)] == (table.rows(4, 4), table.cols(4, 4))
    # profile length is monotone in both block dimensions
    for k in range(4):
        for t in range(4):
            assert len(per_block[(k, t)][0]) <= len(per_block[(k + 1, t)][0])
            assert len(per_block[(k, t)][0]) <= len(per_block[(k, t + 1)][0])


def test_fast_table_matches_literal_oracle():
    rng = np.random.default_rng(16)
    for _ in range(15):
        m, n = (int(x) for x in rng.integers(1, 7, 2))
        a = random_matrix(rng, m, n, 5)
        literal = greedy_leading_profiles(a)
        table = LeadingProfileTable(a)
        assert table.rank == len(literal[(m, n)][0])
        for (k, t), (rows, cols) in literal.items():
            assert table.rows(k, t) == rows
            assert table.cols(k, t) == cols


# -- row-major elimination reference ------------------------------------------


def test_ple_identity():
    counts = OpCounts()
    f = ple_row_major(mat(np.eye(8), 1009), counts)
    assert f.rank == 8
    assert counts.modular_reductions == r_ple_recurrence(8, 8)


def test_ple_single_row_charges_nothing():
    counts = OpCounts()
    f = ple_row_major(mat([[0, 3, 1, 0]], 5), counts)
    assert f.rank == 1 and f.pivot_cols == (1,)
    assert counts.modular_reductions == 0


def test_ple_2x2_generic_three_reductions():
    counts = OpCounts()
    f = ple_row_major(gen_full_rank_generic(2, 1009, seed=0), counts)
    assert f.rank == 2
    assert counts.modular_reductions == 3  # MM(1,1,1) + TRSM(1,1)


def test_ple_reconstruction_and_column_profile():
    rng = np.random.default_rng(18)
    for _ in range(40):
        m, n = (int(x) for x in rng.integers(1, 10, 2))
        r = int(rng.integers(0, min(m, n) + 1))
        a = gen_rank_deficient_rect(m, n, r, 101, int(rng.integers(0, 2**32)))
        f = ple_row_major(a)
        table = LeadingProfileTable(a)
        assert f.rank == table.rank
        assert tuple(sorted(f.pivot_cols)) == table.cols(m, n)
        product = a.field.matmul_mod(f.lower, f.echelon)
        restored = product[f.p_perm.sigma, :]
        assert np.array_equal(restored, a.data)


def test_ple_counter_matches_recurrence_on_generic_inputs():
    for m in (2, 4, 8, 16, 32):
        counts = OpCounts()
        ple_row_major(gen_full_rank_generic(m, 1009, seed=m), counts)
        assert counts.modular_reductions == r_ple_recurrence(m, m)


# -- count evaluators ----------------------------------------------------------


def test_pluq_closed_form_values():
    assert r_pluq_closed_form(4) == 24
    assert r_pluq_closed_form(8) == 112
    assert r_pluq_closed_form(64) == 8064
    with pytest.raises(ValueError):
        r_pluq_closed_form(12)


def test_ple_recurrence_values():
    assert r_ple_recurrence(1, 16) == 0
    assert r_ple_recurrence(2, 2) == 3
    assert r_ple_recurrence(2, 3) == 4  # R(1,3) + R(1,2) + 1*(3+1)
    with pytest.raises(ValueError):
        r_ple_recurrence(6, 8)
    with pytest.raises(ValueError):
        r_ple_recurrence(8, 4)


def test_ple_recurrence_tracks_paper_asymptotics():
    # (1 + log2(m)/4) m^2 within o(m^2)
    for m in (64, 128, 256):
        expect = (1 + 0.25 * np.log2(m)) * m * m
        assert abs(r_ple_recurrence(m, m) - expect) / expect < 0.05
