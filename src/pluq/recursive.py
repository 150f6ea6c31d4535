"""Block-recursive PLUQ with Z-curve quadrant ordering, in place.

The matrix is split into four quadrants at (m//2, n//2).  After a recursive
call on the upper-left quadrant and a round of triangular/multiply updates,
two independent recursive calls handle the anti-diagonal quadrants, a last
round of updates forms the bottom-right Schur-type block for the fourth call,
and two block permutations S (rows) and T (columns) gather the factors into
the packed [L\\U, V; M, 0] layout.  Everything runs inside the input storage:
the r3 x r2 block I, which a triangular solve overwrites and the output keeps,
waits in the zero block child 1 leaves, and permutations gather in bounded
panels (see ``matrix._permute_inplace``).

A block with at most ``threshold`` rows or columns, which includes every
single row and column, goes to the base case ``_decompose_inplace``, the
iterative Z-curve algorithm, which leaves the same packed layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import ClassicalKernels
from .matrix import (
    DenseMatrix,
    OpCounts,
    Permutation,
    PluqFactors,
    _permute_inplace,
    apply_cols,
    apply_rows,
    perm_block_diag,
)

DEFAULT_THRESHOLD = 30


class TrackingWorkspace:
    """Auxiliary element buffers of a decomposition: there are none, so both
    totals read 0.  Kept because ``perfbench/run.py`` passes one to ``pluq``
    and records ``peak_elements`` and ``max_scratch_block``."""

    def __init__(self):
        self.peak_elements = 0
        self.max_scratch_block = 0


def build_s_perm(r1: int, r2: int, r3: int, r4: int, k: int, m: int) -> Permutation:
    """Row gather order that reorders the four row blocks of sizes
    (r1+r2, k-r1-r2, r3+r4, m-k-r3-r4) into (block1, block3, block2, block4).
    Unchecked: the child ranks make every block size nonnegative."""
    a, b, ar = r1 + r2, k + r3 + r4, np.arange
    blocks = (ar(a), ar(k, b), ar(a, k), ar(b, m))
    return Permutation._unchecked(np.concatenate(blocks, dtype=np.int64))


def build_t_perm(r1: int, r2: int, r3: int, r4: int, k: int, n: int) -> Permutation:
    """Column gather order that reorders the six column blocks of sizes
    (r1, r3, k-r1-r3, r2, r4, n-k-r2-r4) into (r1-block, r2-block, r3-block,
    r4-block, remaining-left, remaining-right), unchecked like ``build_s_perm``."""
    a, b, ar = r1 + r3, k + r2, np.arange
    blocks = (ar(r1), ar(k, b), ar(r1, a), ar(b, b + r4), ar(a, k), ar(b + r4, n))
    return Permutation._unchecked(np.concatenate(blocks, dtype=np.int64))


@dataclass(frozen=True, slots=True)
class _Ctx:
    """What every recursion node and its base case share: crossover and collaborators."""

    threshold: int
    counts: OpCounts
    kernels: ClassicalKernels


def pluq(
    a: DenseMatrix,
    threshold: int = DEFAULT_THRESHOLD,
    counts: OpCounts | None = None,
    workspace: TrackingWorkspace | None = None,
) -> PluqFactors:
    """Full decomposition; ``a``'s storage is overwritten with the packed factors.

    ``threshold`` is the crossover below which the iterative base case runs
    (1 keeps the quadrant recursion all the way down to single rows/columns).
    ``workspace`` is accepted and left at zero: the decomposition takes no
    buffer beside ``a`` (see ``TrackingWorkspace``).
    """
    if not threshold >= 1:  # catches NaN too: no block size is <= NaN
        raise ValueError("threshold must be a positive integer")
    ctx = _Ctx(
        threshold=threshold,
        counts=counts if counts is not None else OpCounts(),
        kernels=ClassicalKernels(a.field),
    )
    rows, cols, rank = _pluq_rec(a.data, ctx)
    return PluqFactors(rows.inverse(), cols, rank, a)


def pluq_iterative(a: DenseMatrix, counts: OpCounts | None = None) -> PluqFactors:
    """The iterative algorithm alone: ``pluq`` with a threshold no block exceeds."""
    return pluq(a, threshold=max(1, min(a.shape)), counts=counts)


def _pluq_rec(data, ctx):
    # returns gather orders, as the base case does: packed = data[rows][:, cols]
    m, n = data.shape
    if not data.any():  # empty or zero: rank 0, nothing moves, every kernel would charge 0
        return Permutation.identity(m), Permutation.identity(n), 0
    if min(m, n) <= ctx.threshold:
        return _decompose_inplace(data, ctx)
    counts, kernels = ctx.counts, ctx.kernels

    kr, kc = m // 2, n // 2

    rows1, cols1, r1 = _pluq_rec(data[:kr, :kc], ctx)

    apply_rows(data[:kr, kc:], rows1)   # [B1; B2]
    apply_cols(data[kr:, :kc], cols1)   # [C1 | C2]

    l1_invs, u1_invs = kernels.leaf_inverses(data[:r1, :r1], data[:r1, :r1])
    kernels.trsm_left_unit_lower(data[:r1, :r1], data[:r1, kc:], counts, l1_invs)   # D
    kernels.trsm_right_upper(data[kr:, :r1], data[:r1, :r1], counts, u1_invs)      # E
    del l1_invs, u1_invs  # a node holds only its own leaf stacks while its children run
    kernels.mm_acc(data[r1:, kc:], data[r1:, :r1], data[:r1, kc:], counts)     # F and H
    kernels.mm_acc(data[kr:, r1:kc], data[kr:, :r1], data[:r1, r1:kc], counts)  # G

    rows2, cols2, r2 = _pluq_rec(data[r1:kr, kc:], ctx)
    rows3, cols3, r3 = _pluq_rec(data[kr:, r1:kc], ctx)

    apply_rows(data[kr:, kc:], rows3)
    apply_cols(data[kr:, kc:], cols2)
    apply_rows(data[r1:, :r1], perm_block_diag([rows2, rows3]))
    apply_cols(data[:r1, r1:], perm_block_diag([cols3, cols2]))

    u2 = data[r1 : r1 + r2, kc : kc + r2]
    l3 = data[kr : kr + r3, r1 : r1 + r3]
    l3_invs, u2_invs = kernels.leaf_inverses(l3, u2)
    kernels.trsm_right_upper(data[kr : kr + r3, kc : kc + r2], u2, counts, u2_invs)  # I
    kernels.trsm_right_upper(data[kr + r3 :, kc : kc + r2], u2, counts, u2_invs)     # K

    # One solve turns [I | .] into [J | N]; I, which the output needs, waits in child 1's zero block
    # data[r1:kr, r1:kc]: nothing writes there before S and T, and r2 <= kr - r1, r3 <= kc - r1.
    slab = data[kr : kr + r3, kc:]
    held = data[r1 : r1 + r2, r1 : r1 + r3].T
    held[...] = slab[:, :r2]
    kernels.trsm_left_unit_lower(l3, slab, counts, l3_invs)  # J and N
    kernels.mm_acc(slab[:, r2:], slab[:, :r2], data[r1 : r1 + r2, kc + r2 :], counts)  # O
    slab[:, :r2] = held
    held[...] = 0
    del l3_invs, u2_invs

    kernels.mm_acc(data[kr + r3 :, kc + r2 :], data[kr + r3 :, kc : kc + r2], data[r1 : r1 + r2, kc + r2 :], counts)
    kernels.mm_acc(data[kr + r3 :, kc + r2 :], data[kr + r3 :, r1 : r1 + r3], data[kr : kr + r3, kc + r2 :], counts)

    rows4, cols4, r4 = _pluq_rec(data[kr + r3 :, kc + r2 :], ctx)

    apply_rows(data[kr + r3 :, : kc + r2], rows4)
    apply_cols(data[: kr + r3, kc + r2 :], cols4)

    s_perm = build_s_perm(r1, r2, r3, r4, kr, m)
    t_perm = build_t_perm(r1, r2, r3, r4, kc, n)
    apply_rows(data, s_perm)
    apply_cols(data, t_perm)

    # Per half: the first child's pivot lines, then its other lines in its second child's order.
    # Fresh arrays, not rewritten children: perfbench's tracer reads every applied order after the run.
    rows = np.concatenate((rows1.sigma[:r1], rows1.sigma[r1:][rows2.sigma],
                           kr + rows3.sigma[:r3], kr + rows3.sigma[r3:][rows4.sigma]))[s_perm.sigma]
    cols = np.concatenate((cols1.sigma[:r1], cols1.sigma[r1:][cols3.sigma],
                           kc + cols2.sigma[:r2], kc + cols2.sigma[r2:][cols4.sigma]))[t_perm.sigma]
    return Permutation._unchecked(rows), Permutation._unchecked(cols), r1 + r2 + r3 + r4


def _decompose_inplace(data: np.ndarray, ctx: _Ctx, trace=None):
    """Iterative PLUQ over an incrementally growing leading submatrix: (rows, cols, rank).

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
    kernels, counts = ctx.kernels, ctx.counts
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
        kernels.eliminate_below(data[prow:, qcol:], counts)

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
