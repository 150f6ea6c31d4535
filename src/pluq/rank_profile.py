"""Row/column rank profiles of the matrix and of all leading submatrices.

The permutations of the Z-curve decomposition carry the pivot supports: pivot
t was found at original position (a_t, b_t) where a_t is the row P sends to
slot t and b_t the column slot t maps to under Q.  The rank profile of the
leading (k, t) block is read off those pairs with a few vectorised passes
over the permutations, without materializing any matrix.
"""

from __future__ import annotations

import numpy as np

from .matrix import PluqFactors

RankProfile = tuple[int, ...]


def _sorted(indices: np.ndarray) -> RankProfile:
    return tuple(np.sort(indices).tolist())


def row_rank_profile(factors: PluqFactors) -> RankProfile:
    """Sorted row indices of the pivots: the matrix's row rank profile."""
    return _sorted(factors.supports[0])


def col_rank_profile(factors: PluqFactors) -> RankProfile:
    """Sorted column indices of the pivots: the matrix's column rank profile."""
    return _sorted(factors.supports[1])


def leading_rank_profiles(factors: PluqFactors, k: int, t: int) -> tuple[RankProfile, RankProfile]:
    """Row and column rank profiles of the leading k x t submatrix."""
    if not (0 <= k <= factors.m and 0 <= t <= factors.n):
        raise ValueError(f"leading block ({k},{t}) out of range for {factors.m}x{factors.n}")
    rows, cols = factors.supports
    inside = (rows < k) & (cols < t)
    return _sorted(rows[inside]), _sorted(cols[inside])
