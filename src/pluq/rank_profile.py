"""Row/column rank profiles of the matrix and of all leading submatrices.

The permutations of the Z-curve decomposition carry the pivot supports: pivot
t was found at original position (a_t, b_t) where a_t is the row P sends to
slot t and b_t the column slot t maps to under Q.  The rank profile of the
leading (k, t) block is read off those pairs, without materializing any
matrix.  The first query sorts the pairs once by row and once by column
(``PluqFactors._support_index``); each query after it is a binary search and
a masked prefix, O(log r + output), with no sort.
"""

from __future__ import annotations

from .matrix import PluqFactors

RankProfile = tuple[int, ...]


def row_rank_profile(factors: PluqFactors) -> RankProfile:
    """Sorted row indices of the pivots: the matrix's row rank profile."""
    return tuple(factors._support_index[0][2].tolist())


def col_rank_profile(factors: PluqFactors) -> RankProfile:
    """Sorted column indices of the pivots: the matrix's column rank profile."""
    return tuple(factors._support_index[1][2].tolist())


def leading_rank_profiles(factors: PluqFactors, k: int, t: int) -> tuple[RankProfile, RankProfile]:
    """Row and column rank profiles of the leading k x t submatrix."""
    if not (0 <= k <= factors.m and 0 <= t <= factors.n):
        raise ValueError(f"leading block ({k},{t}) out of range for {factors.m}x{factors.n}")
    (rows, cols_of_rows, row_ints), (cols, rows_of_cols, col_ints) = factors._support_index
    # on each side, the prefix of pivots below the bound on that side, then
    # those of them below the bound on the other
    below_k = rows.searchsorted(k)
    below_t = cols.searchsorted(t)
    return (
        tuple(row_ints[:below_k][cols_of_rows[:below_k] < t].tolist()),
        tuple(col_ints[:below_t][rows_of_cols[:below_t] < k].tolist()),
    )
