"""Arithmetic modulo a word-size prime, tuned for delayed modular reduction.

A ``PrimeField`` fixes the modulus and the numpy storage strategy used by the
dense kernels: residues are kept canonical in ``[0, p)`` and row/column dot
products are accumulated without intermediate reduction as long as the partial
sums provably fit the accumulator (float64 mantissa for small p, int64
otherwise), reducing once at the end.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

# Default ceiling on the modulus: with p < 2**26 a dot product of length
# ~2**11 accumulates exactly in a signed 64-bit integer.
DEFAULT_MODULUS_BOUND = 1 << 26
# Hard ceiling even with allow_large_modulus: a single product must fit int64.
ABSOLUTE_MODULUS_BOUND = 1 << 31

_F64_EXACT = 1 << 53
_I64_EXACT = (1 << 63) - 1


def is_prime(p: int) -> bool:
    """Trial division up to sqrt(p); cheap for word-size moduli."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d <= isqrt(p):
        if p % d == 0:
            return False
        d += 2
    return True


def inverse_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p via the extended Euclid algorithm."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 requested; upstream pivot logic is broken")
    old_r, r = a, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_s % p


class PrimeField:
    """The field Z/pZ for a prime p, with accumulation bounds for the kernels.

    ``dtype`` is float64 when every dot product up to length 2**13 is exact in
    the 53-bit mantissa (p < ~2**20), which lets the kernels run on BLAS; for
    larger p storage falls back to int64 and products are chunked.
    """

    __slots__ = ("p", "dtype", "max_accumulate")

    def __init__(self, p: int, *, allow_large_modulus: bool = False):
        if not isinstance(p, int):
            raise ValueError(f"modulus must be a prime integer, got {p!r}")
        # the bound first: trial division on a huge modulus would not finish
        bound = ABSOLUTE_MODULUS_BOUND if allow_large_modulus else DEFAULT_MODULUS_BOUND
        if p >= bound:
            raise ValueError(
                f"modulus {p} exceeds the bound {bound}; pass allow_large_modulus=True "
                f"for p up to 2**31 (per-product reduction)"
            )
        if not is_prime(p):
            raise ValueError(f"modulus must be a prime integer, got {p!r}")
        self.p = p
        sq = (p - 1) ** 2
        self.dtype = np.float64 if sq * 8192 <= _F64_EXACT else np.int64
        exact = _F64_EXACT if self.dtype == np.float64 else _I64_EXACT
        # longest k with k (p-1)^2 + (p-1) exact: a length-k dot product of
        # residues, added to or subtracted from one residue, stays exact
        self.max_accumulate = (exact - (p - 1)) // sq

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    # -- numpy helpers ------------------------------------------------------

    def asarray(self, values) -> np.ndarray:
        """Validated canonical-residue array in this field's storage dtype."""
        arr = np.asarray(values)
        # NaN fails only the integrality test, +-inf only the range test
        if arr.dtype.kind == "f" and np.any(arr != np.floor(arr)):
            raise ValueError("entries must be integers")
        if arr.size and (np.any(arr < 0) or np.any(arr >= self.p)):
            raise ValueError(f"entries must be canonical residues in [0, {self.p})")
        if arr.dtype != self.dtype:
            arr = arr.astype(self.dtype)
        return arr

    def matmul_mod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact (a @ b) % p, chunking the inner dimension when it could overflow."""
        k = a.shape[-1]
        if k == 0:
            return np.zeros((a.shape[0], b.shape[-1]), dtype=self.dtype)
        if k <= self.max_accumulate:
            return (a @ b) % self.p
        out = np.zeros((a.shape[0], b.shape[-1]), dtype=self.dtype)
        step = self.max_accumulate
        for lo in range(0, k, step):
            out += a[:, lo : lo + step] @ b[lo : lo + step]
            out %= self.p
        return out

