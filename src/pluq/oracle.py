"""Independent brute-force references for ranks, profiles, and counts.

Nothing here shares elimination logic with the production algorithms: the
rank and every leading rank profile come from a plain greedy Gaussian scan
(`LeadingProfileTable`), and the row-major elimination reference
(`ple_row_major`) is a separate block recursion used to compare
modular-reduction counts against the closed-form/recurrence evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import inverse_mod
from .kernels import ClassicalKernels
from .matrix import DenseMatrix, OpCounts, Permutation


def _reduce_against(row: np.ndarray, basis: list[tuple[int, np.ndarray]], p: int) -> np.ndarray:
    """Eliminate `row` against normalized basis rows (lead column, row)."""
    cur = row.astype(np.int64).copy()
    for lead, vec in basis:
        c = cur[lead]
        if c:
            cur = (cur - c * vec) % p
    return cur

def _greedy_profile(rows: np.ndarray, p: int) -> tuple[int, ...]:
    """Indices kept by the greedy scan: take a row iff it grows the rank.
    They are the lexicographically smallest independent row set (greedy =
    matroid optimum), so the rows' rank profile."""
    basis: list[tuple[int, np.ndarray]] = []
    kept = []
    for idx in range(rows.shape[0]):
        cur = _reduce_against(rows[idx], basis, p)
        nz = np.nonzero(cur)[0]
        if nz.size:
            lead = int(nz[0])
            basis.append((lead, (cur * inverse_mod(int(cur[lead]), p)) % p))
            kept.append(idx)
    return tuple(kept)


class LeadingProfileTable:
    """All leading (k, t) profiles from m + n + 2 greedy scans.

    Rank-profile membership of a row depends only on the rows above it and the
    columns up to t, so the (k, t) row profile is the full-height profile of
    the first t columns truncated below k (and symmetrically for columns).
    The equivalence with the per-block greedy scan is covered by tests.
    ``rank`` is the whole matrix's rank.
    """

    def __init__(self, a: DenseMatrix):
        data = np.asarray(a.data, dtype=np.int64)
        p = a.p
        self._rows_by_t = [_greedy_profile(data[:, :t], p) for t in range(a.n + 1)]
        self._cols_by_k = [_greedy_profile(data[:k, :].T, p) for k in range(a.m + 1)]
        self.rank = len(self._rows_by_t[-1])

    def rows(self, k: int, t: int) -> tuple[int, ...]:
        return tuple(i for i in self._rows_by_t[t] if i < k)

    def cols(self, k: int, t: int) -> tuple[int, ...]:
        return tuple(j for j in self._cols_by_k[k] if j < t)


# -- row-major elimination reference -----------------------------------------


@dataclass
class PleFactors:
    """Row-major elimination output: A = Mat(P) @ [L; M] @ E."""

    p_perm: Permutation
    pivot_cols: tuple[int, ...]   # in discovery order; sorted, they are the column rank profile
    lower: np.ndarray             # m x r, unit diagonal on the first r rows
    echelon: np.ndarray           # r x n pivot rows, zeroed at earlier pivot columns
    rank: int


def ple_row_major(a: DenseMatrix, counts: OpCounts | None = None) -> PleFactors:
    """Block-recursive row-major elimination with the same reduction model.

    Rows are split in halves: eliminate the top, solve the bottom rows against
    the top's pivot columns (general triangular solve), multiply-update the
    remaining columns, and recurse on them.  Charges land on the same kernel
    cost model as the main decomposition, which is what the count comparisons
    are about.
    """
    counts = counts if counts is not None else OpCounts()
    kernels = ClassicalKernels(a.field)
    work = a.data.copy()
    pivots: list[tuple[int, int]] = []

    def rec(lo: int, hi: int, cols: np.ndarray) -> None:
        rows = hi - lo
        if rows == 0 or cols.size == 0:
            return
        if rows == 1:
            nz = np.nonzero(work[lo, cols])[0]
            if nz.size:
                pivots.append((lo, int(cols[nz[0]])))
            return
        mid = lo + rows // 2
        before = len(pivots)
        rec(lo, mid, cols)
        rest = cols
        if len(pivots) > before:
            prows, pcols = np.array(pivots[before:]).T
            upper = work[np.ix_(prows, pcols)]          # r1 x r1, upper in discovery order
            solved = work[mid:hi, pcols]
            kernels.trsm_right_upper(solved, upper, counts)
            work[mid:hi, pcols] = solved
            rest = cols[~np.isin(cols, pcols)]
            if rest.size:
                block = work[mid:hi, rest]
                kernels.mm_acc(block, solved, work[np.ix_(prows, rest)], counts)
                work[mid:hi, rest] = block
        rec(mid, hi, rest)

    rec(0, a.m, np.arange(a.n))

    prows, pcols = np.array(pivots, dtype=np.int64).reshape(-1, 2).T
    r = prows.size
    order = np.concatenate([prows, np.setdiff1d(np.arange(a.m), prows)])  # pivot rows first
    lower = np.tril(work[np.ix_(order, pcols)], -1)   # rows past r lie wholly below the diagonal
    lower[np.diag_indices(r)] = 1
    echelon = work[prows]
    echelon[:, pcols] = np.triu(echelon[:, pcols])
    sigma = np.empty(a.m, dtype=np.int64)
    sigma[order] = np.arange(a.m)
    return PleFactors(Permutation(sigma), tuple(pcols.tolist()), lower, echelon, r)


# -- closed forms and recurrences for the reduction counts -------------------


def r_pluq_closed_form(m: int) -> int:
    """Reductions of the quadrant decomposition on a full-rank generic m x m
    input, m a power of two: 2*m**2 - 2*m."""
    if m < 1 or m & (m - 1):
        raise ValueError(f"closed form needs a power-of-two dimension, got {m}")
    return 2 * m * m - 2 * m


def _r_ple(m: int, n: int) -> int:
    if m == 1:
        return 0
    h = m // 2
    return _r_ple(h, n) + _r_ple(h, n - h) + h * (n + h)


def r_ple_recurrence(m: int, n: int) -> int:
    """Reductions of row-major elimination on a full-rank m x n input (m a
    power of two, m <= n): R(m,n) = R(m/2,n) + R(m/2,n-m/2) + (m/2)(n+m/2),
    with R(1,n) = 0."""
    if m < 1 or m & (m - 1):
        raise ValueError(f"recurrence needs a power-of-two row dimension, got {m}")
    if n < m:
        raise ValueError(f"recurrence assumes m <= n, got {m}x{n}")
    return _r_ple(m, n)
