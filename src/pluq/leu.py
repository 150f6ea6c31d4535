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


def _is_unit_lower(arr: np.ndarray) -> bool:
    return bool(np.all(np.triu(arr, 1) == 0) and np.all(np.diagonal(arr) == 1))


def _is_upper(arr: np.ndarray) -> bool:
    return bool(np.all(np.tril(arr, -1) == 0))


def _extensions(factors: PluqFactors, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P [L 0; M Y] P^T and Q^T [U V; 0 Z] Q as dense arrays."""
    m, n, r = factors.m, factors.n, factors.rank
    if y.shape != (m - r, m - r):
        raise ValueError(f"Y must be {(m - r, m - r)}, got {y.shape}")
    if z.shape != (n - r, n - r):
        raise ValueError(f"Z must be {(n - r, n - r)}, got {z.shape}")
    lower = np.zeros((m, m), dtype=factors.packed.data.dtype)
    lower[:, :r] = factors.extract_lm()
    lower[r:, r:] = y
    upper = np.zeros((n, n), dtype=factors.packed.data.dtype)
    upper[:r, :] = factors.extract_uv()
    upper[r:, r:] = z
    sig, inv = factors.p_perm.sigma, factors.q_perm.inverse().sigma
    return lower[np.ix_(sig, sig)], upper[np.ix_(inv, inv)]


def check_triangular_extension(factors: PluqFactors, y: np.ndarray, z: np.ndarray) -> tuple[bool, bool]:
    """Whether P[L 0; M Y]P^T is unit lower and Q^T[U V; 0 Z]Q is upper triangular.

    Holds for any unit lower triangular Y and upper triangular Z when the
    factors come from the Z-curve pivoting; a different pivoting strategy can
    make either check fail.
    """
    lower, upper = _extensions(factors, y, z)
    return _is_unit_lower(lower), _is_upper(upper)


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

    lbar, ubar = _extensions(factors, np.eye(m - r), np.zeros((n - r, n - r)))
    e = np.zeros((m, n), dtype=field.dtype)
    rows, cols = factors.supports
    e[rows, cols] = 1

    if not _is_unit_lower(lbar):
        raise RuntimeError("LEU integrity failure: Lbar is not unit lower triangular")
    if not _is_upper(ubar):
        raise RuntimeError("LEU integrity failure: Ubar is not upper triangular")
    # E is a partial permutation: Lbar E Ubar sums Lbar[:, rows[t]] Ubar[cols[t], :]
    product = field.matmul_mod(lbar[:, rows], ubar[cols, :])
    if not np.array_equal(product, original.data):
        raise RuntimeError("LEU integrity failure: Lbar E Ubar != A")

    return LeuFactors(*(DenseMatrix._unchecked(field, x) for x in (lbar, e, ubar)))
