"""Seeded generators for benchmark and test matrices.

Reproducibility contract: all randomness comes from ``numpy.random.default_rng``
(PCG64) seeded with the given 64-bit seed, with the draw order fixed to what
the code below does; the same (dimensions, rank, p, seed) always produces the
same matrix, byte for byte through the text format.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField
from .matrix import DenseMatrix


def _random_triangular(rng, n: int, p: int, lower: bool, unit: bool = False) -> np.ndarray:
    """n x n strictly triangular draw from [0, p), then a diagonal of ones if
    `unit`, else one drawn from [1, p)."""
    t = rng.integers(0, p, size=(n, n))
    t = np.tril(t, -1) if lower else np.triu(t, 1)
    t[np.diag_indices(n)] = 1 if unit else rng.integers(1, p, size=n)
    return t


def gen_full_rank_generic(n: int, p: int, seed: int) -> DenseMatrix:
    """Full-rank n x n matrix whose leading principal minors are all nonzero.

    Built as L @ U with L unit lower triangular and U upper triangular with a
    nonzero diagonal, so every leading minor equals a product of diagonal
    entries of U; this is the input family on which the quadrant recursion
    meets no rank deficiency.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    l = _random_triangular(rng, n, p, lower=True, unit=True)
    u = _random_triangular(rng, n, p, lower=False)
    data = field.matmul_mod(field.asarray(l), field.asarray(u))
    return DenseMatrix._unchecked(field, data)


def gen_rank_deficient_rect(m: int, n: int, r: int, p: int, seed: int) -> DenseMatrix:
    """m x n matrix of rank exactly r with non-trivial rank profiles.

    A = L E U with L, U random nonsingular triangular and E zero except for r
    ones at (rows[i], cols[i]), a random partial permutation support (distinct
    rows and distinct columns, which is what makes the rank exactly r).  E is
    never formed: A = L[:, rows] U[cols, :], one product of inner dimension r.
    """
    if not 0 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for {m}x{n}")
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    l = _random_triangular(rng, m, p, lower=True)
    u = _random_triangular(rng, n, p, lower=False)
    rows = rng.choice(m, size=r, replace=False)
    cols = rng.choice(n, size=r, replace=False)
    data = field.matmul_mod(field.asarray(l[:, rows]), field.asarray(u[cols, :]))
    return DenseMatrix._unchecked(field, data)
