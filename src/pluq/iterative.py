"""Iterative PLUQ over an incrementally growing leading submatrix.

The pivot search walks a Z-curve frontier (i, j): at each step it probes the
column segment A[r:i, j], then the row segment A[i, r:j] and the corner
A[i, j] together, as A[i, r:j+1].  A step whose probes all miss jumps straight
to the first later step whose probes reach a nonzero, and the search ends when
none is left.  A pivot found at (p, q) eliminates everything below it to its
right; the pivot row and column are then rotated into position r, shifting the
rows/columns in between by one slot.  The rotation (rather than a plain swap)
keeps the remaining rows and columns in their original relative order, which
is what makes every pivot the lexicographically earliest available one and
lets the permutations reveal the rank profiles of all leading submatrices.
Output is the same packed [L\\U, V; M, 0] layout as the block-recursive
algorithm, which uses this routine as its base case.
"""

from __future__ import annotations

import numpy as np

from .field import inverse_mod
from .matrix import Permutation, _permute_inplace


def _decompose_inplace(data: np.ndarray, ctx, trace=None):
    """Decompose ``data`` in place with the recursion's ``_Ctx``: (rows, cols, rank)."""
    kernels, counts = ctx.kernels, ctx.counts
    field = kernels.field
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
            nz = np.nonzero(data[i, r : j + 1])[0]
            if nz.size:
                pivot = (i, r + int(nz[0]))
                i += 1
                if pivot[1] == j:  # the corner: the frontier's column advances too
                    j += 1
        if pivot is None:
            # data[r:i, r:j] is zero, so the first step whose probes reach a
            # nonzero (a, b) is max(a - i, b - j) further on; in each row the
            # first nonzero is reached first
            nz = data[r:, r:] != 0
            a = np.flatnonzero(nz.any(axis=1))
            if not a.size:
                break
            b = nz.argmax(axis=1)[a]
            s = int(np.maximum(a + (r - i), b + (r - j)).min())
            i = min(i + s, m)
            j = min(j + s, n)
            continue

        prow, qcol = pivot
        below = m - prow - 1
        if below:
            inv_piv = inverse_mod(int(data[prow, qcol]), field.p)
            counts.field_inv += 1
            mults = data[prow + 1 :, qcol : qcol + 1]
            mults[:] = field.mul_mod(mults, np.float64(inv_piv))
            counts.field_mul += below
            counts.modular_reductions += below
            kernels.mm_acc(data[prow + 1 :, qcol + 1 :], mults, data[prow : prow + 1, qcol + 1 :], counts)

        # Rotate the pivot into slot (r, r); the rows r..prow-1 and columns
        # r..qcol-1 shift by one, preserving their relative order.
        if qcol > r:
            _rotate(data.T, cols, r, qcol)
        if prow > r:
            _rotate(data, rows, r, prow)
        r += 1

    # gather orders: packed = A[rows][:, cols], so P = rows^-1 and Q = cols
    return Permutation._unchecked(rows), Permutation._unchecked(cols), r


def _rotate(lines: np.ndarray, order: np.ndarray, r: int, k: int) -> None:
    """Move line k of ``lines`` (along axis 0) and entry k of ``order`` to
    slot r in place, shifting r..k-1 down: the gather [k, r, ..., k-1]."""
    tau = np.arange(-1, k - r)
    tau[0] = k - r
    _permute_inplace(lines[r : k + 1], tau)
    order[r : k + 1] = order[r : k + 1][tau]
