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


def _random_unit_lower(rng, n: int, p: int) -> np.ndarray:
    l = np.tril(rng.integers(0, p, size=(n, n)), -1)
    l[np.arange(n), np.arange(n)] = 1
    return l


def _random_nonsingular_lower(rng, n: int, p: int) -> np.ndarray:
    l = np.tril(rng.integers(0, p, size=(n, n)), -1)
    l[np.arange(n), np.arange(n)] = rng.integers(1, p, size=n)
    return l


def _random_nonsingular_upper(rng, n: int, p: int) -> np.ndarray:
    u = np.triu(rng.integers(0, p, size=(n, n)), 1)
    u[np.arange(n), np.arange(n)] = rng.integers(1, p, size=n)
    return u


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
    l = _random_unit_lower(rng, n, p)
    u = _random_nonsingular_upper(rng, n, p)
    data = field.matmul_mod(field.asarray(l), field.asarray(u))
    return DenseMatrix(field, data)


def gen_rank_deficient_rect(m: int, n: int, r: int, p: int, seed: int) -> DenseMatrix:
    """m x n matrix of rank exactly r with non-trivial rank profiles.

    A = L @ E @ U with L, U random nonsingular triangular and E zero except
    for r ones on a random partial permutation support (distinct rows and
    distinct columns, which is what makes the rank exactly r).
    """
    if not 0 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for {m}x{n}")
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    l = _random_nonsingular_lower(rng, m, p)
    u = _random_nonsingular_upper(rng, n, p)
    e = np.zeros((m, n), dtype=np.int64)
    if r:
        rows = rng.choice(m, size=r, replace=False)
        cols = rng.choice(n, size=r, replace=False)
        e[rows, cols] = 1
    data = field.matmul_mod(field.matmul_mod(field.asarray(l), field.asarray(e)), field.asarray(u))
    return DenseMatrix(field, data)

