"""Conversion of a Z-curve PLUQ into an LEU decomposition.

With P, L, M, U, V, Q from this package's decomposition,

    Lbar = P [L 0; M I] P^T    E = P [I_r; 0] Q    Ubar = Q^T [U V; 0 0] Q

gives A = Lbar E Ubar with Lbar unit lower triangular and Ubar upper
triangular.  The triangularity is a property of the pivot search order and
fails for general PLUQ factorizations, so it is asserted here as an integrity
check rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import DenseMatrix, PluqFactors


@dataclass
class LeuFactors:
    lbar: DenseMatrix   # m x m unit lower triangular
    e: DenseMatrix      # m x n, r entries equal to 1, distinct rows and columns
    ubar: DenseMatrix   # n x n upper triangular

    @property
    def p(self) -> int:
        return self.lbar.p


def _is_unit_lower(arr: np.ndarray) -> bool:
    return bool(np.all(np.triu(arr, 1) == 0) and np.all(np.diagonal(arr) == 1))


def _is_upper(arr: np.ndarray) -> bool:
    return bool(np.all(np.tril(arr, -1) == 0))


def _conjugated_lower(factors: PluqFactors, bottom_right: np.ndarray) -> np.ndarray:
    """P [L 0; M Y] P^T as a dense array."""
    m, r = factors.m, factors.rank
    inner = np.zeros((m, m), dtype=factors.packed.data.dtype)
    inner[:, :r] = factors.extract_lm()
    inner[r:, r:] = bottom_right
    sig = factors.p_perm.sigma
    return inner[np.ix_(sig, sig)]


def _conjugated_upper(factors: PluqFactors, bottom_right: np.ndarray) -> np.ndarray:
    """Q^T [U V; 0 Z] Q as a dense array."""
    n, r = factors.n, factors.rank
    inner = np.zeros((n, n), dtype=factors.packed.data.dtype)
    inner[:r, :] = factors.extract_uv()
    inner[r:, r:] = bottom_right
    inv = factors.q_perm.inverse().sigma
    return inner[np.ix_(inv, inv)]


def check_triangular_extension(factors: PluqFactors, y: np.ndarray, z: np.ndarray) -> tuple[bool, bool]:
    """Whether P[L 0; M Y]P^T is unit lower and Q^T[U V; 0 Z]Q is upper triangular.

    Holds for any unit lower triangular Y and upper triangular Z when the
    factors come from the Z-curve pivoting; a different pivoting strategy can
    make either check fail.
    """
    m, n, r = factors.m, factors.n, factors.rank
    if y.shape != (m - r, m - r):
        raise ValueError(f"Y must be {(m - r, m - r)}, got {y.shape}")
    if z.shape != (n - r, n - r):
        raise ValueError(f"Z must be {(n - r, n - r)}, got {z.shape}")
    return (
        _is_unit_lower(_conjugated_lower(factors, y)),
        _is_upper(_conjugated_upper(factors, z)),
    )


def to_leu(factors: PluqFactors, original: DenseMatrix) -> LeuFactors:
    """Build the dense LEU factors and verify them against the original matrix.

    Raises RuntimeError if triangularity or the product identity fails, which
    would indicate a pivoting bug upstream (both are guaranteed for factors
    produced by this package's algorithms).
    """
    field = factors.packed.field
    m, n, r = factors.m, factors.n, factors.rank
    if original.shape != (m, n) or original.p != field.p:
        raise ValueError("original matrix does not match the factors")

    lbar = _conjugated_lower(factors, np.eye(m - r, dtype=field.dtype))
    ubar = _conjugated_upper(factors, np.zeros((n - r, n - r), dtype=field.dtype))
    e = np.zeros((m, n), dtype=field.dtype)
    rows, cols = factors._support_arrays()
    e[rows, cols] = 1

    if not _is_unit_lower(lbar):
        raise RuntimeError("LEU integrity failure: Lbar is not unit lower triangular")
    if not _is_upper(ubar):
        raise RuntimeError("LEU integrity failure: Ubar is not upper triangular")
    product = field.matmul_mod(field.matmul_mod(lbar, e), ubar)
    if not np.array_equal(product, original.data):
        raise RuntimeError("LEU integrity failure: Lbar E Ubar != A")

    return LeuFactors(DenseMatrix(field, lbar), DenseMatrix(field, e), DenseMatrix(field, ubar))
