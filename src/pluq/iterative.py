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
    p_perm, q_perm, rank = _decompose_inplace(a.data, a.p, counts)
    return PluqFactors(p_perm, q_perm, rank, a)


def _decompose_inplace(data: np.ndarray, p: int, counts: OpCounts, trace=None):
    m, n = data.shape
    sig_p = np.arange(m, dtype=np.int64)
    pos_p = np.arange(m, dtype=np.int64)  # inverse of sig_p, kept in sync
    sig_q = np.arange(n, dtype=np.int64)
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
            # Mat(Q) <- Mat(C)^-1 Mat(Q): rotate the entries of rows r..qcol.
            sig_q[r : qcol + 1] = np.roll(sig_q[r : qcol + 1], 1)
        if prow > r:
            data[r : prow + 1, :] = np.roll(data[r : prow + 1, :], 1, axis=0)
            # Mat(P) <- Mat(P) Mat(C)^-1: values r..prow-1 advance, prow wraps to r.
            idxs = pos_p[r : prow + 1].copy()
            sig_p[idxs[:-1]] += 1
            sig_p[idxs[-1]] = r
            pos_p[r + 1 : prow + 1] = idxs[:-1]
            pos_p[r] = idxs[-1]
        r += 1

    return Permutation._unchecked(sig_p), Permutation._unchecked(sig_q), r
