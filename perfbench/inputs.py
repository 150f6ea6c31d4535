"""Seeded benchmark inputs A = L E U whose rank profiles are known up front.

L is m x m lower triangular and U is n x n upper triangular, both with a
nonzero diagonal, and E is an m x n 0/1 partial permutation with r ones at
(rows[i], cols[i]).  For every leading block,

    A[:k, :t] = L[:k, :k] E[:k, :t] U[:t, :t],

so the rank and the row and column rank profiles of A[:k, :t] are those of
E[:k, :t]: they are read off E's support in O(r), independent of the
decomposition under test and of ``pluq.matgen``.  Since E selects columns
rows[i] of L and rows cols[i] of U, A = L[:, rows] @ U[cols, :], and only
those r columns and rows are drawn.

Every product here runs in float64 through BLAS, split into limbs so that
each partial product is exact (see ``mulmod``); a wide prime therefore costs
a few GEMMs rather than an int64 n^3 product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_F64_EXACT = 1 << 53


def mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p for entries in [0, p), as a float64 array.

    b is split into base-2**bits limbs, with bits chosen so that
    acc * 2**bits + a @ limb stays below 2**53 for any acc < p; the limbs are
    recombined by Horner's rule, reducing after each one.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    k = a.shape[1]
    if p * (k + 1) >= _F64_EXACT // 2:
        raise ValueError(f"mulmod: p={p} with inner dimension {k} cannot be split exactly")
    bits = (_F64_EXACT // (p * (k + 1))).bit_length() - 1
    limbs = -(-(p - 1).bit_length() // bits)
    if limbs <= 1:
        return np.mod(a @ b, p)
    b_int = b.astype(np.int64)
    mask = (1 << bits) - 1
    acc = np.zeros((a.shape[0], b.shape[1]))
    for j in reversed(range(limbs)):
        limb = ((b_int >> (j * bits)) & mask).astype(np.float64)
        acc = np.mod(acc * float(1 << bits) + a @ limb, p)
    return acc


@dataclass
class Instance:
    """One generated input and the support of its rank profile matrix E."""

    p: int
    a: np.ndarray       # m x n residues, float64 (exact integers)
    rows: np.ndarray    # support rows of E, increasing
    cols: np.ndarray    # cols[i] is the support column in row rows[i]

    @property
    def rank(self) -> int:
        return int(self.rows.shape[0])

    def leading_profiles(self, k: int, t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Row and column rank profiles of A[:k, :t], from E's support."""
        inside = (self.rows < k) & (self.cols < t)
        return tuple(self.rows[inside].tolist()), tuple(np.sort(self.cols[inside]).tolist())


def generate(m: int, n: int, r: int, p: int, seed: int, identity_support: bool = False) -> Instance:
    """A = L E U over F_p from ``seed``; E = I_r at the top left if ``identity_support``.

    With E the identity every leading minor of A is nonzero (a generic
    full-rank input when r = m = n); otherwise E's r rows and columns are
    drawn uniformly and matched by a random permutation.
    """
    if not 0 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for {m}x{n}")
    rng = np.random.default_rng(seed)
    if identity_support:
        rows = np.arange(r, dtype=np.int64)
        cols = np.arange(r, dtype=np.int64)
    else:
        rows = np.sort(rng.choice(m, size=r, replace=False)).astype(np.int64)
        cols = rng.choice(n, size=r, replace=False).astype(np.int64)
    # column rows[i] of a lower triangular L: zero above the diagonal
    lsel = rng.integers(0, p, size=(m, r)).astype(np.float64)
    lsel[np.arange(m)[:, None] < rows[None, :]] = 0
    lsel[rows, np.arange(r)] = rng.integers(1, p, size=r)
    # row cols[i] of an upper triangular U: zero left of the diagonal
    usel = rng.integers(0, p, size=(r, n)).astype(np.float64)
    usel[np.arange(n)[None, :] < cols[:, None]] = 0
    usel[np.arange(r), cols] = rng.integers(1, p, size=r)
    return Instance(p, mulmod(lsel, usel, p), rows, cols)


def matrix_text(data: np.ndarray, p: int) -> str:
    """The package's matrix file format: 'm n p', then one line per row."""
    m, n = data.shape
    body = "".join(" ".join(map(str, row)) + "\n" for row in data.astype(np.int64).tolist())
    return f"{m} {n} {p}\n{body}"
