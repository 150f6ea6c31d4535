"""Arithmetic modulo a word-size prime, tuned for delayed modular reduction.

A ``PrimeField`` fixes the modulus.  Every field stores canonical residues in
``[0, p)`` as float64, so the dense kernels run on BLAS whatever the modulus,
and ``matmul_mod`` is the one place that keeps products exact: it reduces a
dot product once at the end while the sum provably fits the 53-bit mantissa,
and beyond that splits one factor into limbs whose products do fit.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

# Ceiling on the modulus: it keeps trial division short and (p-1)**2 inside
# int64, where the brute-force oracles eliminate.
_MODULUS_BOUND = 1 << 31

_F64_EXACT = 1 << 53


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
    """The field Z/pZ for a prime p < 2**31, stored as float64.

    ``max_accumulate`` is the longest k with k (p-1)^2 + (p-1) <= 2**53: a
    length-k dot product of residues, added to or subtracted from a residue,
    is exact in one pass.  It is 8192 for p just below 2**20, 2 just below
    2**26 and 0 above about 2**26.5.
    """

    __slots__ = ("p", "max_accumulate")

    dtype = np.float64

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ValueError(f"modulus must be a prime integer, got {p!r}")
        # the bound first: trial division on a huge modulus would not finish
        if p >= _MODULUS_BOUND:
            raise ValueError(f"modulus {p} exceeds the bound {_MODULUS_BOUND}")
        if not is_prime(p):
            raise ValueError(f"modulus must be a prime integer, got {p!r}")
        self.p = p
        self.max_accumulate = (_F64_EXACT - (p - 1)) // (p - 1) ** 2

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
        """Exact (a @ b) % p.

        While k <= ``max_accumulate`` this is one product.  Beyond, a is split
        into base-2**bits limbs with (k+1) p 2**bits <= 2**53, so that
        acc * 2**bits + limb @ b is exact for any acc < p, and the limb
        products are recombined by Horner's rule, reducing after each limb.
        The inner dimension is split only where even one-bit limbs could
        round, (k+1) p > 2**52.
        """
        p, k = self.p, a.shape[-1]
        if k <= self.max_accumulate:
            return (a @ b) % p
        step = min(k, (_F64_EXACT >> 1) // p - 1)
        bits = (_F64_EXACT // ((step + 1) * p)).bit_length() - 1
        out = None
        for lo in range(0, k, step):
            a_int, acc = a[:, lo : lo + step].astype(np.int64), 0.0
            for shift in reversed(range(0, (p - 1).bit_length(), bits)):
                limb = ((a_int >> shift) & ((1 << bits) - 1)).astype(np.float64)
                acc = np.mod(acc * float(1 << bits) + limb @ b[lo : lo + step], p)
            out = acc if out is None else np.mod(out + acc, p)
        return out
