"""Row/column rank profiles of the matrix and of all leading submatrices.

The permutations of the Z-curve decomposition carry the pivot supports: pivot
t was found at original position (a_t, b_t) where a_t is the row P sends to
slot t and b_t the column slot t maps to under Q.  The rank profile of the
leading (k, t) block is read off those pairs, without materializing any
matrix.  The first query sorts the pairs once by row and once by column and
makes their Python ints (``PluqFactors._support_index``); each query after it
is a binary search on each side, with no sort.  When the block's pivots lead
both orders, as they do in every leading block of a matrix with generic rank
profile, each answer is a slice of a prebuilt tuple; otherwise a side's
answer is its prefix below the bound, masked by the other bound.  Either way
a query costs O(log r + output).
"""

from __future__ import annotations

import operator
from bisect import bisect_left

from .matrix import PluqFactors, SortedSupports

RankProfile = tuple[int, ...]


def row_rank_profile(factors: PluqFactors) -> RankProfile:
    """Sorted row indices of the pivots: the matrix's row rank profile."""
    return factors._support_index[0].keys


def col_rank_profile(factors: PluqFactors) -> RankProfile:
    """Sorted column indices of the pivots: the matrix's column rank profile."""
    return factors._support_index[1].keys


def leading_rank_profiles(factors: PluqFactors, k: int, t: int) -> tuple[RankProfile, RankProfile]:
    """Row and column rank profiles of the leading k x t submatrix."""
    try:  # any integer type, numpy's included; a float would bisect as a bound
        k, t = operator.index(k), operator.index(t)
    except TypeError:
        raise ValueError(f"leading block bounds must be integers, got ({k!r}, {t!r})") from None
    if not (0 <= k <= factors.m and 0 <= t <= factors.n):
        raise ValueError(f"leading block ({k},{t}) out of range for {factors.m}x{factors.n}")
    by_row, by_col = factors._support_index
    below_k, below_t = bisect_left(by_row.keys, k), bisect_left(by_col.keys, t)
    # When every pivot above row k lies left of column t, the block holds
    # exactly those below_k pivots; likewise with the sides swapped.
    if not below_k or by_row.partner_max[below_k - 1] < t:
        inside = below_k
    elif not below_t or by_col.partner_max[below_t - 1] < k:
        inside = below_t
    else:
        inside = None
    return _profile(by_row, below_k, t, inside), _profile(by_col, below_t, k, inside)


def _profile(side: SortedSupports, below: int, bound: int, inside: int | None) -> RankProfile:
    """One side's answer: its first ``inside`` keys when the block holds that
    many pivots and those keys' partners are all below ``bound`` (then they
    are the block's pivots), else its keys under ``below`` whose partners are
    below ``bound``."""
    keys, key_ints, partners, partner_max = side
    if inside is not None and (not inside or partner_max[inside - 1] < bound):
        return keys[:inside]
    return tuple(key_ints[:below][partners[:below] < bound].tolist())
