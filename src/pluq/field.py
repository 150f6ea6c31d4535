"""Arithmetic modulo a word-size prime, tuned for delayed modular reduction.

A ``PrimeField`` fixes the modulus.  Every field stores canonical residues in
``[0, p)`` as float64, so the dense kernels run on BLAS whatever the modulus,
and ``matmul_mod`` is the one place that keeps products exact: it reduces a
dot product once at the end while the sum provably fits the 53-bit mantissa,
and beyond that splits one factor into limbs whose products do fit.  Every
``mod p`` of the kernels is ``reduce_mod``, the floor with a precomputed 1/p
of FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).
"""

from __future__ import annotations

import operator
from math import isqrt

import numpy as np

# Ceiling on the modulus: it keeps trial division short and (p-1)**2 inside
# int64, where the brute-force oracles eliminate.
_MODULUS_BOUND = 1 << 31

_F64_EXACT = 1 << 53

_REDUCE_MIN = 768  # below this size one np.mod beats reduce_mod's passes (measured)


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
    """Multiplicative inverse of a mod p (Python's built-in modular power)."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 requested; upstream pivot logic is broken")
    return pow(a, -1, p)


def integral_array(values) -> np.ndarray:
    """``values`` as a bool, integer or float array of finite integers, else ValueError."""
    arr = np.asarray(values)
    if arr.dtype.kind == "O":  # passes only if its entries, read again as plain numbers, do
        arr = np.array(arr.tolist()).reshape(arr.shape)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"entries must be integers, got dtype {arr.dtype}")
    if arr.dtype.kind == "f" and not (np.isfinite(arr).all() and np.all(arr == np.floor(arr))):
        raise ValueError("entries must be integers")
    return arr


class PrimeField:
    """The field Z/pZ for a prime p < 2**31, stored as float64.

    ``max_accumulate`` is the longest k with k (p-1)^2 + (p-1) <= 2**53: a
    length-k dot product of residues, added to or subtracted from a residue,
    is exact in one pass.  It is 8192 for p just below 2**20, 2 just below
    2**26 and 0 above about 2**26.5.
    """

    __slots__ = ("p", "max_accumulate", "_inv_p")

    dtype = np.float64

    def __init__(self, p: int):
        try:  # any integer type, numpy's included, stored as a Python int
            p = operator.index(p)
        except TypeError:
            raise ValueError(f"modulus must be a prime integer, got {p!r}") from None
        # the bound first: trial division on a huge modulus would not finish
        if p >= _MODULUS_BOUND:
            raise ValueError(f"modulus {p} exceeds the bound {_MODULUS_BOUND}")
        if not is_prime(p):
            raise ValueError(f"modulus must be a prime integer, got {p!r}")
        self.p = p
        self.max_accumulate = (_F64_EXACT - (p - 1)) // (p - 1) ** 2
        self._inv_p = 1.0 / p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    # -- numpy helpers ------------------------------------------------------

    def asarray(self, values) -> np.ndarray:
        """Validated canonical-residue array in this field's storage dtype."""
        arr = integral_array(values)
        if arr.size and (np.any(arr < 0) or np.any(arr >= self.p)):
            raise ValueError(f"entries must be canonical residues in [0, {self.p})")
        return arr.astype(self.dtype, copy=False)

    def reduce_mod(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """x mod p into ``out`` (x when None), using x as scratch.

        Exact for float64 integers -(2**53 - p) < x < 2**53, every value the
        kernels form: q = floor(x * (1/p)) is off by at most one, so x - q p
        needs +p where negative and -p where >= p.  Below that range it can
        be off (by one at x = -(2**53 - 1) for p >= 1009).
        """
        out = x if out is None else out
        if x.size < _REDUCE_MIN:
            return np.mod(x, self.p, out=out)
        q = np.multiply(x, self._inv_p)
        np.floor(q, out=q)
        q *= self.p
        x -= q
        mask = np.less(x, 0)
        np.add(x, self.p, out=x, where=mask)
        np.subtract(x, self.p, out=x, where=np.greater_equal(x, self.p, out=mask))
        np.copyto(out, x)  # a no-op when out is x
        return out

    def matmul_mod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact (a @ b) % p.

        While k <= ``max_accumulate`` this is one product.  Beyond, a is split
        into base-2**bits limbs with (k+1) p 2**bits <= 2**53, so that
        acc * 2**bits + limb @ b is exact for any acc < p, and the limb
        products are recombined by Horner's rule, reducing after each limb.
        The inner dimension is split only where even one-bit limbs could
        round, (k+1) p > 2**52.  Each reduction takes values in [0, 2**53).
        Leading axes are batch axes, as in ``@``.
        """
        p, k = self.p, a.shape[-1]
        if k <= self.max_accumulate:
            return self.reduce_mod(a @ b)
        step = min(k, (_F64_EXACT >> 1) // p - 1)
        bits = (_F64_EXACT // ((step + 1) * p)).bit_length() - 1
        out = None
        for lo in range(0, k, step):
            a_int, acc = a[..., lo : lo + step].astype(np.int64), 0.0
            for shift in reversed(range(0, (p - 1).bit_length(), bits)):
                limb = ((a_int >> shift) & ((1 << bits) - 1)).astype(np.float64)
                acc = self.reduce_mod(acc * float(1 << bits) + limb @ b[..., lo : lo + step, :])
            out = acc if out is None else self.reduce_mod(out + acc)
        return out

    def mul_mod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact broadcast (a * b) % p: one product while (p-1)^2 fits, else 1 x 1 ``matmul_mod``s."""
        if self.max_accumulate:
            return self.reduce_mod(a * b)
        return self.matmul_mod(a[..., None, None], b[..., None, None])[..., 0, 0]
