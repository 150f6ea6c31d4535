"""Block update kernels: multiply-accumulate and the two triangular solves.

Each kernel charges the OpCounts it is handed, independent of how the
arithmetic is realized internally.  Field operations are charged in the
paper's unit: one multiply-accumulate is one ``field_mul`` plus one
``field_add``, a scaling by an inverted diagonal entry is one ``field_mul``,
and each pivot inversion is one ``field_inv``; ``OpCounts.total_field_ops()``
is the paper's "field operations".  Modular reductions follow the
delayed-reduction model:

* ``mm_acc`` (C <- C - A*B, A is m x k, B is k x n): m*n reductions (one per
  output entry), except 0 when k == 0 (an empty accumulation writes nothing).
  That is also what runs whenever k (p-1)^2 + (p-1) fits the accumulator
  (k <= ``PrimeField.max_accumulate``, at least 8192 on float64 storage):
  C - A @ B is formed exactly and reduced once into C.  Otherwise the product
  is reduced in chunks first.
* ``trsm_left_unit_lower`` (B <- L^-1 B, unit diagonal): r*n reductions, one
  per updated row entry.
* ``trsm_right_upper`` (B <- B U^-1): 2*m*r reductions; the diagonal is
  inverted once and every entry pays one extra reduction for the scaling.

The kernels are bundled in a strategy object so a sub-cubic multiplication
could be slotted in behind the same interface; the classical kernels are the
only shipped implementation.  Internal scratch stays bounded by a fixed row
panel (the decomposition itself allocates nothing through these calls).
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField, inverse_mod
from .matrix import OpCounts

_PANEL_ROWS = 32
_TRSM_BASE = 32


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
        p = self.field.p
        fused = k <= self.field.max_accumulate  # C - A @ B is exact
        for lo in range(0, m, _PANEL_ROWS):
            hi = min(lo + _PANEL_ROWS, m)
            panel = a[lo:hi] @ b if fused else self.field.matmul_mod(a[lo:hi], b)
            np.subtract(c[lo:hi], panel, out=panel)
            np.mod(panel, p, out=c[lo:hi])

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
        self._solve_unit_lower(l, b)

    def _solve_unit_lower(self, l: np.ndarray, b: np.ndarray) -> None:
        r = l.shape[0]
        p = self.field.p
        if r <= _TRSM_BASE:
            for i in range(1, r):
                acc = self.field.matmul_mod(l[i : i + 1, :i], b[:i])
                b[i] = (b[i] - acc[0]) % p
            return
        h = r // 2
        self._solve_unit_lower(l[:h, :h], b[:h])
        b[h:] = (b[h:] - self.field.matmul_mod(l[h:, :h], b[:h])) % p
        self._solve_unit_lower(l[h:, h:], b[h:])

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
        inv_diag = np.array([inverse_mod(int(d), p) for d in diag], dtype=b.dtype)
        self._solve_upper_right(b, u, inv_diag)

    def _solve_upper_right(self, b: np.ndarray, u: np.ndarray, inv_diag: np.ndarray) -> None:
        r = u.shape[0]
        p = self.field.p
        if r <= _TRSM_BASE:
            for j in range(r):
                col = b[:, j]
                if j:
                    acc = self.field.matmul_mod(b[:, :j], u[:j, j : j + 1])
                    col = (col - acc[:, 0]) % p
                b[:, j] = (col * inv_diag[j]) % p
            return
        h = r // 2
        self._solve_upper_right(b[:, :h], u[:h, :h], inv_diag[:h])
        b[:, h:] = (b[:, h:] - self.field.matmul_mod(b[:, :h], u[:h, h:])) % p
        self._solve_upper_right(b[:, h:], u[h:, h:], inv_diag[h:])
