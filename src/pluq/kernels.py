"""Block update kernels: multiply-accumulate, two triangular solves, one elimination step.

All four are built on one block update, ``_sub_mul`` (C <- C - A*B mod p in
place), and the two solves share one left-looking solver, ``_solve_lower``
(B <- L^-1 B over leaves of 32 rows: each takes one block update from the
rows above it, then applies its inverted diagonal block with one product).
``leaf_inverses`` inverts every leaf of a node's triangles in one stacked
pass, and every solve with one of those factors takes its stack (a solve
given none forms its own).  B U^-1 is (U^-T B^T)^T on transposed views.  The
block update reduces its contiguous product panel with
``PrimeField.reduce_mod`` and writes C once per panel.

Every charge of a decomposition happens at a ``ClassicalKernels`` entry
point: each kernel charges the OpCounts it is handed there, whatever
reductions the updates and the leaves perform internally.  Field operations
are charged in the paper's unit: one multiply-accumulate is one ``field_mul``
plus one ``field_add``, a scaling by an inverted diagonal entry is one
``field_mul``, and each pivot inversion is one ``field_inv``;
``OpCounts.total_field_ops()`` is the paper's "field operations".  Modular
reductions follow the delayed-reduction model:

* ``mm_acc`` (C <- C - A*B, A is m x k, B is k x n): m*n reductions (one per
  output entry), except 0 when k == 0 (an empty accumulation writes nothing).
  That is also what runs whenever k (p-1)^2 + (p-1) fits the float64
  mantissa (k <= ``PrimeField.max_accumulate``, at least 8192 for p < 2**20):
  C - A @ B is formed exactly and reduced once into C.  Otherwise
  ``PrimeField.matmul_mod`` forms the reduced product from limb-split
  partial products first.
* ``trsm_left_unit_lower`` (B <- L^-1 B, unit diagonal): r*n reductions, one
  per updated row entry.
* ``trsm_right_upper`` (B <- B U^-1): 2*m*r reductions (one extra per entry
  for the scaling) and r ``field_inv``, per solve even where solves share a
  stack.
* ``eliminate_below`` (pivot ``block[0, 0]``, m rows): one ``field_inv`` and
  m-1 ``field_mul`` and reductions for the multipliers, 0 when m == 1, plus
  what the ``mm_acc`` of its rank-one update charges.

``pluq()`` builds one ``ClassicalKernels`` per decomposition.  Internal
scratch stays bounded by a fixed row panel: 32 rows of a product, a leaf's
32-row product, or a triangle's leaf stack of about 32 * r elements, one
32-row panel of the r x r triangle, and a few temporaries of that size while
it is formed (the decomposition itself allocates nothing through these
calls).
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField, inverse_mod
from .matrix import _PANEL_ROWS, OpCounts

_STRICT_LOWER = np.tri(_PANEL_ROWS, _PANEL_ROWS, -1)


class ClassicalKernels:
    """Cubic-time kernels over a fixed prime field."""

    def __init__(self, field: PrimeField):
        self.field = field

    # -- multiply-accumulate ------------------------------------------------

    def mm_acc(self, c: np.ndarray, a: np.ndarray, b: np.ndarray, counts: OpCounts) -> None:
        """C <- C - A @ B exactly, charging the per-output-entry reduction model."""
        m, k = a.shape
        k2, n = b.shape
        if c.shape != (m, n) or k2 != k:
            raise ValueError(f"mm_acc shapes C{c.shape} A{a.shape} B{b.shape}")
        if k == 0 or m == 0 or n == 0:
            return
        counts.modular_reductions += m * n
        counts.field_mul += m * n * k
        counts.field_add += m * n * k
        self._sub_mul(c, a, b)

    def eliminate_below(self, block: np.ndarray, counts: OpCounts) -> None:
        """Eliminate under the pivot ``block[0, 0]``: scale the column below it
        by the pivot's inverse, then take the rank-one update with ``mm_acc``."""
        below = block.shape[0] - 1
        if not below:
            return
        counts.field_inv += 1
        counts.field_mul += below
        counts.modular_reductions += below
        mults = block[1:, :1]
        mults[:] = self.field.mul_mod(mults, np.float64(inverse_mod(int(block[0, 0]), self.field.p)))
        self.mm_acc(block[1:, 1:], mults, block[:1, 1:], counts)

    def _sub_mul(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        """C <- (C - A @ B) mod p in place, one row panel at a time; charges nothing."""
        fused = a.shape[1] <= self.field.max_accumulate  # C - A @ B is exact
        for lo in range(0, c.shape[0], _PANEL_ROWS):
            hi = lo + _PANEL_ROWS
            panel = a[lo:hi] @ b if fused else self.field.matmul_mod(a[lo:hi], b)
            np.subtract(c[lo:hi], panel, out=panel)
            self.field.reduce_mod(panel, out=c[lo:hi])

    # -- triangular solves ----------------------------------------------------

    def trsm_left_unit_lower(self, l: np.ndarray, b: np.ndarray, counts: OpCounts, invs=None) -> None:
        """B <- L^-1 B with L unit lower triangular (diagonal implicit) and leaf stack ``invs``."""
        r = l.shape[0]
        if l.shape[1] != r or b.shape[0] != r:
            raise ValueError(f"trsm shapes L{l.shape} B{b.shape}")
        n = b.shape[1]
        if r == 0 or n == 0:
            return
        counts.modular_reductions += r * n
        counts.field_mul += n * (r * (r - 1) // 2)
        counts.field_add += n * (r * (r - 1) // 2)
        if r > 1:
            self._solve_lower(l, b, self.leaf_inverses(l=l)[0] if invs is None else invs)

    def trsm_right_upper(self, b: np.ndarray, u: np.ndarray, counts: OpCounts, invs=None) -> None:
        """B <- B U^-1 with U upper triangular, nonzero diagonal, and leaf stack ``invs`` (of U^T)."""
        r = u.shape[0]
        if u.shape[1] != r or b.shape[1] != r:
            raise ValueError(f"trsm shapes B{b.shape} U{u.shape}")
        m = b.shape[0]
        if r == 0:
            return
        if not np.diagonal(u).all():
            raise ZeroDivisionError("upper triangular factor has a zero diagonal entry")
        counts.field_inv += r
        if m == 0:
            return
        counts.modular_reductions += 2 * m * r
        counts.field_mul += m * (r * (r + 1) // 2)
        counts.field_add += m * (r * (r - 1) // 2)
        if r == 1:
            b[:] = self.field.mul_mod(b, np.float64(inverse_mod(int(u[0, 0]), self.field.p)))
        else:  # B U^-1 = (U^-T B^T)^T
            self._solve_lower(u.T, b.T, self.leaf_inverses(u=u)[1] if invs is None else invs)

    def _solve_lower(self, l: np.ndarray, b: np.ndarray, invs: np.ndarray) -> None:
        """B <- L^-1 B in place, L lower triangular with leaf stack ``invs``; charges nothing.

        Left-looking: leaf i, rows [32 i, 32 i + 32) of B, takes one update from
        the rows above it, then ``invs[i]`` (the last sliced to size) in one
        product, so each step's scratch is one 32-row panel."""
        for i, lo in enumerate(range(0, l.shape[0], _PANEL_ROWS)):
            leaf = b[lo : lo + _PANEL_ROWS]
            if lo:
                self._sub_mul(leaf, l[lo : lo + _PANEL_ROWS, :lo], b[:lo])
            leaf[:] = self.field.matmul_mod(invs[i][: len(leaf), : len(leaf)], leaf)

    def leaf_inverses(self, l: np.ndarray | None = None, u: np.ndarray | None = None):
        """(L's stack, U's stack): the inverted 32-row diagonal blocks of L (unit
        lower) and of U^T (U upper, pivots inverted here) in one stacked pass,
        None for a triangle that is absent or has one row; charges nothing.

        A triangle of r rows gets ceil(r / k) blocks of k x k (k = 32 above 16
        rows, else the largest r), the last padded with identity.  A block is
        D (I + N), N strictly lower (nilpotent), with inverse (I - N)(I + N^2)
        (I + N^4)... D^-1; a 32-row block takes it on its 16-row halves and
        joins them with two products, a quarter of the multiplications.
        """
        field = self.field
        lowers = []  # (side, lower triangle, its inverted diagonal) per stack formed
        if l is not None and len(l) > 1:
            lowers.append((0, l, np.ones(len(l))))
        if u is not None and len(u) > 1:
            lowers.append((1, u.T, np.array([inverse_mod(int(x), field.p) for x in np.diagonal(u).tolist()])))
        if not lowers:
            return None, None
        k = max(len(t) for _, t, _ in lowers)
        k, h = (_PANEL_ROWS, _PANEL_ROWS // 2) if k > _PANEL_ROWS // 2 else (k, k)  # block, doubling rows
        leaves, parts = [], [None, None]  # parts[side]: the stack's slice for that triangle
        for side, t, d in lowers:
            parts[side] = slice(len(leaves), len(leaves) - (-len(t) // k))
            leaves += [(t[lo : lo + k, lo : lo + k], d[lo : lo + k]) for lo in range(0, len(t), k)]
        n, diag = np.zeros((len(leaves), k, k)), np.ones((len(leaves), k))
        for i, (t, d) in enumerate(leaves):
            n[i, : len(t), : len(t)] = t
            diag[i, : len(t)] = d
        n = field.mul_mod(diag[:, :, None] * _STRICT_LOWER[:k, :k], n)  # D^-1 tril(T, -1)
        x = n if h == k else np.concatenate((n[:, :h, :h], n[:, h:, h:]))
        eye = np.eye(h)
        inv = field.reduce_mod(eye - x)
        for _ in range((h - 1).bit_length() - 1):
            x = field.matmul_mod(x, x)
            inv = field.matmul_mod(inv, eye + x)
        if h < k:  # [[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]]
            a, b, inv = inv[: len(leaves)], inv[len(leaves) :], np.zeros((len(leaves), k, k))
            inv[:, :h, :h], inv[:, h:, h:] = a, b
            inv[:, h:, :h] = field.reduce_mod(-field.matmul_mod(b, field.matmul_mod(n[:, h:, :h], a)))
        inv = field.mul_mod(inv, diag[:, None, :])
        return tuple(None if leaf is None else inv[leaf] for leaf in parts)
