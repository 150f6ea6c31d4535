"""Block-recursive PLUQ with Z-curve quadrant ordering, in place.

The matrix is split into four quadrants at (m//2, n//2).  After a recursive
call on the upper-left quadrant and a round of triangular/multiply updates,
two independent recursive calls handle the anti-diagonal quadrants, a last
round of updates forms the bottom-right Schur-type block for the fourth call,
and two block permutations S (rows) and T (columns) gather the factors into
the packed [L\\U, V; M, 0] layout.  Everything runs inside the input storage;
the one licensed scratch buffer is the copy of the block that a triangular
solve would otherwise destroy, of size r3 x r2.

A block with at most ``threshold`` rows or columns, which includes every
single row and column, goes to the iterative Z-curve algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .iterative import _decompose_inplace
from .kernels import ClassicalKernels
from .matrix import (
    DenseMatrix,
    OpCounts,
    Permutation,
    PluqFactors,
    apply_cols,
    apply_rows,
    perm_block_diag,
)

DEFAULT_THRESHOLD = 30


class Workspace:
    """Source of the decomposition's auxiliary element buffers.

    The recursion requests every element buffer it needs through this object
    (two permutation line buffers plus the r3 x r2 triangular-solve scratch),
    which is what lets the in-place contract be asserted by tests.
    """

    def element_buffer(self, shape, dtype) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def release(self, buf: np.ndarray) -> None:
        pass


class TrackingWorkspace(Workspace):
    """Workspace recording live/peak element counts for the in-place tests."""

    def __init__(self):
        self.live_elements = 0
        self.peak_elements = 0
        self.scratch_blocks: list[int] = []
        self._sizes: dict[int, int] = {}

    def element_buffer(self, shape, dtype) -> np.ndarray:
        buf = super().element_buffer(shape, dtype)
        self._sizes[id(buf)] = buf.size
        self.live_elements += buf.size
        self.peak_elements = max(self.peak_elements, self.live_elements)
        if buf.ndim == 2:
            self.scratch_blocks.append(buf.size)
        return buf

    def release(self, buf: np.ndarray) -> None:
        self.live_elements -= self._sizes.pop(id(buf), 0)

    @property
    def max_scratch_block(self) -> int:
        return max(self.scratch_blocks, default=0)


def build_s_perm(r1: int, r2: int, r3: int, r4: int, k: int, m: int) -> Permutation:
    """Row gather order that reorders the four row blocks of sizes
    (r1+r2, k-r1-r2, r3+r4, m-k-r3-r4) into (block1, block3, block2, block4)."""
    if not (0 <= r1 + r2 <= k <= m and 0 <= r3 + r4 <= m - k):
        raise ValueError(f"inconsistent row block sizes ({r1},{r2},{r3},{r4},k={k},m={m})")
    a, b, ar = r1 + r2, k + r3 + r4, np.arange
    blocks = (ar(a), ar(k, b), ar(a, k), ar(b, m))
    return Permutation._unchecked(np.concatenate(blocks, dtype=np.int64))


def build_t_perm(r1: int, r2: int, r3: int, r4: int, k: int, n: int) -> Permutation:
    """Column gather order that reorders the six column blocks of sizes
    (r1, r3, k-r1-r3, r2, r4, n-k-r2-r4) into (r1-block, r2-block, r3-block,
    r4-block, remaining-left, remaining-right)."""
    if not (0 <= r1 + r3 <= k <= n and 0 <= r2 + r4 <= n - k):
        raise ValueError(f"inconsistent column block sizes ({r1},{r2},{r3},{r4},k={k},n={n})")
    a, b, ar = r1 + r3, k + r2, np.arange
    blocks = (ar(r1), ar(k, b), ar(r1, a), ar(b, b + r4), ar(a, k), ar(b + r4, n))
    return Permutation._unchecked(np.concatenate(blocks, dtype=np.int64))


@dataclass(frozen=True, slots=True)
class _Ctx:
    """What every recursion node shares: the modulus, the crossover, the
    collaborators, and the two permutation line buffers."""

    p: int
    threshold: int
    counts: OpCounts
    kernels: ClassicalKernels
    ws: Workspace
    rowbuf: np.ndarray
    colbuf: np.ndarray


def pluq(
    a: DenseMatrix,
    threshold: int = DEFAULT_THRESHOLD,
    counts: OpCounts | None = None,
    kernels: ClassicalKernels | None = None,
    workspace: Workspace | None = None,
) -> PluqFactors:
    """Full decomposition; ``a``'s storage is overwritten with the packed factors.

    ``threshold`` is the crossover below which the iterative base case runs
    (1 keeps the quadrant recursion all the way down to single rows/columns).
    """
    if threshold < 1:
        raise ValueError("threshold must be a positive integer")
    ws = workspace if workspace is not None else Workspace()
    ctx = _Ctx(
        p=a.p,
        threshold=threshold,
        counts=counts if counts is not None else OpCounts(),
        kernels=kernels if kernels is not None else ClassicalKernels(a.field),
        ws=ws,
        rowbuf=ws.element_buffer(a.n, a.field.dtype),
        colbuf=ws.element_buffer(a.m, a.field.dtype),
    )
    try:
        rows, cols, rank = _pluq_rec(a.data, ctx)
    finally:
        ws.release(ctx.rowbuf)
        ws.release(ctx.colbuf)
    return PluqFactors(rows.inverse(), cols, rank, a)


def _pluq_rec(data, ctx):
    # returns gather orders, as the base case does: packed = data[rows][:, cols]
    m, n = data.shape
    if m == 0 or n == 0:
        return Permutation.identity(m), Permutation.identity(n), 0
    if min(m, n) <= ctx.threshold:
        return _decompose_inplace(data, ctx.p, ctx.counts)
    counts, kernels, rowbuf, colbuf = ctx.counts, ctx.kernels, ctx.rowbuf, ctx.colbuf

    kr, kc = m // 2, n // 2
    ident = Permutation.identity

    rows1, cols1, r1 = _pluq_rec(data[:kr, :kc], ctx)

    apply_rows(data[:kr, kc:], rows1, rowbuf)   # [B1; B2]
    apply_cols(data[kr:, :kc], cols1, colbuf)   # [C1 | C2]

    kernels.trsm_left_unit_lower(data[:r1, :r1], data[:r1, kc:], counts)   # D
    kernels.trsm_right_upper(data[kr:, :r1], data[:r1, :r1], counts)      # E
    kernels.mm_acc(data[r1:kr, kc:], data[r1:kr, :r1], data[:r1, kc:], counts)  # F
    kernels.mm_acc(data[kr:, r1:kc], data[kr:, :r1], data[:r1, r1:kc], counts)  # G
    kernels.mm_acc(data[kr:, kc:], data[kr:, :r1], data[:r1, kc:], counts)      # H

    rows2, cols2, r2 = _pluq_rec(data[r1:kr, kc:], ctx)
    rows3, cols3, r3 = _pluq_rec(data[kr:, r1:kc], ctx)

    apply_rows(data[kr:, kc:], rows3, rowbuf)
    apply_cols(data[kr:, kc:], cols2, colbuf)
    apply_rows(data[kr:, :r1], rows3, rowbuf)
    apply_rows(data[r1:kr, :r1], rows2, rowbuf)
    apply_cols(data[:r1, kc:], cols2, colbuf)
    apply_cols(data[:r1, r1:kc], cols3, colbuf)

    u2 = data[r1 : r1 + r2, kc : kc + r2]
    l3 = data[kr : kr + r3, r1 : r1 + r3]
    kernels.trsm_right_upper(data[kr : kr + r3, kc : kc + r2], u2, counts)  # block now holds I

    # L3^-1 would overwrite the block above, which the output needs; solve on a copy.
    scratch = ctx.ws.element_buffer((r3, r2), data.dtype)
    scratch[:] = data[kr : kr + r3, kc : kc + r2]
    kernels.trsm_left_unit_lower(l3, scratch, counts)                      # J

    kernels.trsm_right_upper(data[kr + r3 :, kc : kc + r2], u2, counts)    # K
    kernels.trsm_left_unit_lower(l3, data[kr : kr + r3, kc + r2 :], counts)  # N
    kernels.mm_acc(data[kr : kr + r3, kc + r2 :], scratch, data[r1 : r1 + r2, kc + r2 :], counts)  # O
    ctx.ws.release(scratch)

    kernels.mm_acc(data[kr + r3 :, kc + r2 :], data[kr + r3 :, kc : kc + r2], data[r1 : r1 + r2, kc + r2 :], counts)
    kernels.mm_acc(data[kr + r3 :, kc + r2 :], data[kr + r3 :, r1 : r1 + r3], data[kr : kr + r3, kc + r2 :], counts)

    rows4, cols4, r4 = _pluq_rec(data[kr + r3 :, kc + r2 :], ctx)

    apply_rows(data[kr + r3 :, : kc + r2], rows4, rowbuf)
    apply_cols(data[: kr + r3, kc + r2 :], cols4, colbuf)

    s_perm = build_s_perm(r1, r2, r3, r4, kr, m)
    t_perm = build_t_perm(r1, r2, r3, r4, kc, n)
    apply_rows(data, s_perm, rowbuf)
    apply_cols(data, t_perm, colbuf)

    rows_top = perm_block_diag([ident(r1), rows2]).compose(rows1)
    rows_bottom = perm_block_diag([ident(r3), rows4]).compose(rows3)
    rows = s_perm.compose(perm_block_diag([rows_top, rows_bottom]))

    cols_left = perm_block_diag([ident(r1), cols3]).compose(cols1)
    cols_right = perm_block_diag([ident(r2), cols4]).compose(cols2)
    cols = t_perm.compose(perm_block_diag([cols_left, cols_right]))

    return rows, cols, r1 + r2 + r3 + r4
