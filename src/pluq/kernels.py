"""Block update kernels: multiply-accumulate and the two triangular solves.

All three are built on one block update, ``_sub_mul`` (C <- C - A*B mod p in
place), and the two solves share one recursive solver, ``_solve_lower``
(B <- L^-1 B, halving down to leaves of at most 32 rows, each solved with its
inverse and one product).  B U^-1 is solved as (U^-T B^T)^T on transposed
views.  The block update reduces its contiguous product panel with
``PrimeField.reduce_mod`` and writes C once per panel.

Each kernel charges the OpCounts it is handed at its public entry point,
whatever reductions the update, the halving and the leaves perform
internally.  Field operations are charged in the paper's unit: one
multiply-accumulate is one ``field_mul`` plus one ``field_add``, a scaling by
an inverted diagonal entry is one ``field_mul``, and each pivot inversion is
one ``field_inv``;
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
* ``trsm_right_upper`` (B <- B U^-1): 2*m*r reductions; the diagonal is
  inverted once and every entry pays one extra reduction for the scaling.

The kernels are bundled in a strategy object so a sub-cubic multiplication
could be slotted in behind the same interface; the classical kernels are the
only shipped implementation.  Internal scratch stays bounded by a fixed row
panel: 32 rows of a product, or a solver leaf's inverse (at most 32 x 32) and
its 32-row product (the decomposition itself allocates nothing through these
calls).
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField, inverse_mod
from .matrix import _PANEL_ROWS, OpCounts


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

    def _sub_mul(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        """C <- (C - A @ B) mod p in place, one row panel at a time; charges nothing."""
        fused = a.shape[1] <= self.field.max_accumulate  # C - A @ B is exact
        for lo in range(0, c.shape[0], _PANEL_ROWS):
            hi = lo + _PANEL_ROWS
            panel = a[lo:hi] @ b if fused else self.field.matmul_mod(a[lo:hi], b)
            np.subtract(c[lo:hi], panel, out=panel)
            self.field.reduce_mod(panel, out=c[lo:hi])

    # -- triangular solves ----------------------------------------------------

    def trsm_left_unit_lower(self, l: np.ndarray, b: np.ndarray, counts: OpCounts) -> None:
        """B <- L^-1 B with L unit lower triangular (diagonal implicit)."""
        r = l.shape[0]
        if l.shape[1] != r or b.shape[0] != r:
            raise ValueError(f"trsm shapes L{l.shape} B{b.shape}")
        n = b.shape[1]
        if r == 0 or n == 0:
            return
        counts.modular_reductions += r * n
        counts.field_mul += n * (r * (r - 1) // 2)
        counts.field_add += n * (r * (r - 1) // 2)
        self._solve_lower(l, b, None)

    def trsm_right_upper(self, b: np.ndarray, u: np.ndarray, counts: OpCounts) -> None:
        """B <- B U^-1 with U upper triangular, nonzero diagonal inverted up front."""
        r = u.shape[0]
        if u.shape[1] != r or b.shape[1] != r:
            raise ValueError(f"trsm shapes B{b.shape} U{u.shape}")
        m = b.shape[0]
        if r == 0:
            return
        diag = u[np.arange(r), np.arange(r)]
        if np.any(diag == 0):
            raise ZeroDivisionError("upper triangular factor has a zero diagonal entry")
        counts.field_inv += r
        if m == 0:
            return
        counts.modular_reductions += 2 * m * r
        counts.field_mul += m * (r * (r + 1) // 2)
        counts.field_add += m * (r * (r - 1) // 2)
        p = self.field.p
        inv_diag = np.array([inverse_mod(int(d), p) for d in diag.tolist()], dtype=b.dtype)
        self._solve_lower(u.T, b.T, inv_diag)  # B U^-1 = (U^-T B^T)^T

    def _solve_lower(self, l: np.ndarray, b: np.ndarray, inv_diag: np.ndarray | None) -> None:
        """B <- L^-1 B in place, L lower triangular with inverted diagonal
        ``inv_diag``, or unit diagonal when it is None; charges nothing.

        Halves until at most _PANEL_ROWS rows are left; such a leaf forms
        L^-1 (r x r) and applies it with one product (r x n), so its scratch
        stays inside the kernels' panel bound.
        """
        r = l.shape[0]
        if r == 1:
            if inv_diag is not None:
                b[:] = self.field.matmul_mod(inv_diag[:, None], b)
            return
        if r <= _PANEL_ROWS:
            b[:] = self.field.matmul_mod(self._lower_inverse(l, inv_diag), b)
            return
        h = r // 2
        top, bottom = (None, None) if inv_diag is None else (inv_diag[:h], inv_diag[h:])
        self._solve_lower(l[:h, :h], b[:h], top)
        self._sub_mul(b[h:], l[h:, :h], b[:h])
        self._solve_lower(l[h:, h:], b[h:], bottom)

    def _lower_inverse(self, l: np.ndarray, inv_diag: np.ndarray | None) -> np.ndarray:
        """L^-1 mod p for lower triangular L, diagonal as in ``_solve_lower``.

        L = D (I + N) with N strictly lower, so N^r = 0 and
        (I + N)^-1 = (I - N)(I + N^2)(I + N^4)... up to the power 2^j < r;
        then L^-1 = (I + N)^-1 D^-1.
        """
        field, r = self.field, l.shape[0]
        eye, n = np.eye(r), np.tril(l, -1)
        if inv_diag is not None:
            n = field.matmul_mod(np.diag(inv_diag), n)
        inv = field.reduce_mod(eye - n)
        for _ in range((r - 1).bit_length() - 1):
            n = field.matmul_mod(n, n)
            inv = field.matmul_mod(inv, eye + n)
        return inv if inv_diag is None else field.matmul_mod(inv, np.diag(inv_diag))
