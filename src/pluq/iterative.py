"""Iterative PLUQ over an incrementally growing leading submatrix.

The pivot search walks a Z-curve frontier (i, j): at each step it probes the
column segment A[r:i, j], then the row segment A[i, r:j], then the corner
A[i, j].  A pivot found at (p, q) eliminates everything below it to its
right; the pivot row and column are then rotated into position r, shifting
the rows/columns in between by one slot.  The rotation (rather than a plain
swap) keeps the remaining rows and columns in their original relative order,
which is what makes every pivot the lexicographically earliest available one
and lets the permutations reveal the rank profiles of all leading
submatrices.  Output is the same packed [L\\U, V; M, 0] layout as the
block-recursive algorithm, which uses this routine as its base case.
"""

from __future__ import annotations

import numpy as np

from .field import inverse_mod
from .matrix import DenseMatrix, OpCounts, Permutation, PluqFactors


def pluq_iterative(a: DenseMatrix, counts: OpCounts | None = None) -> PluqFactors:
    """Decompose in place; returns factors sharing storage with ``a``."""
    counts = counts if counts is not None else OpCounts()
    rows, cols, rank = _decompose_inplace(a.data, a.p, counts)
    return PluqFactors(rows.inverse(), cols, rank, a)


def _decompose_inplace(data: np.ndarray, p: int, counts: OpCounts, trace=None):
    m, n = data.shape
    rows = np.arange(m, dtype=np.int64)
    cols = np.arange(n, dtype=np.int64)
    r = i = j = 0
    while i < m or j < n:
        if trace is not None:
            trace.append((i, j, r))
        pivot = None
        if j < n:
            nz = np.nonzero(data[r:i, j])[0]
            if nz.size:
                pivot = (r + int(nz[0]), j)
                j += 1
        if pivot is None and i < m:
            nz = np.nonzero(data[i, r:j])[0]
            if nz.size:
                pivot = (i, r + int(nz[0]))
                i += 1
            elif j < n and data[i, j] != 0:
                pivot = (i, j)
                i += 1
                j += 1
        if pivot is None:
            i = min(i + 1, m)
            j = min(j + 1, n)
            continue

        prow, qcol = pivot
        below = m - prow - 1
        if below:
            inv_piv = inverse_mod(int(data[prow, qcol]), p)
            counts.field_inv += 1
            mults = (data[prow + 1 :, qcol] * inv_piv) % p
            data[prow + 1 :, qcol] = mults
            counts.field_mul += below
            counts.modular_reductions += below
            right = n - qcol - 1
            if right:
                block = data[prow + 1 :, qcol + 1 :]
                block -= np.outer(mults, data[prow, qcol + 1 :])
                np.mod(block, p, out=block)
                counts.field_mul += below * right
                counts.field_add += below * right
                counts.modular_reductions += below * right

        # Rotate the pivot into slot (r, r); the rows r..prow-1 and columns
        # r..qcol-1 shift by one, preserving their relative order.
        if qcol > r:
            data[:, r : qcol + 1] = np.roll(data[:, r : qcol + 1], 1, axis=1)
            cols[r : qcol + 1] = np.concatenate((cols[qcol : qcol + 1], cols[r:qcol]))
        if prow > r:
            data[r : prow + 1, :] = np.roll(data[r : prow + 1, :], 1, axis=0)
            rows[r : prow + 1] = np.concatenate((rows[prow : prow + 1], rows[r:prow]))
        r += 1

    # gather orders: packed = A[rows][:, cols], so P = rows^-1 and Q = cols
    return Permutation._unchecked(rows), Permutation._unchecked(cols), r
