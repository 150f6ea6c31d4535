"""Exactness preconditions of the float64 kernels, audited on whole decompositions.

The kernels are exact only while, on every call,

* every operand is a canonical residue, an integer in [0, p);
* an update C - A B formed in one pass has k (p-1)^2 + (p-1) <= 2**53, with k
  the inner dimension, and so does a product reduced once;
* every input to ``PrimeField.reduce_mod`` is an integer in
  (-(2**53 - p), 2**53).

Each test wraps ``PrimeField.reduce_mod``, ``PrimeField.matmul_mod`` and
``ClassicalKernels._sub_mul``, checks the three conditions on every call made
by one route on one prime, and prints the largest |x| / 2**53 that
``reduce_mod`` was given (shown with ``pytest -s``).
"""

import numpy as np
import pytest

from pluq import (
    DEFAULT_THRESHOLD,
    DenseMatrix,
    PrimeField,
    gen_rank_deficient_rect,
    pluq,
    pluq_iterative,
)
from pluq.kernels import ClassicalKernels
from test_moduli import PRIMES

F64_EXACT = 2**53
SHAPES = [(96, 80), (64, 130), (130, 64)]
ROUTES = {f"threshold {t}": (lambda a, t=t: pluq(a, threshold=t)) for t in sorted({1, 30, DEFAULT_THRESHOLD})}
ROUTES["iterative"] = pluq_iterative


def _assert_residues(p, *operands):
    for x in operands:
        assert np.all((x >= 0) & (x < p) & (x == np.floor(x))), "an operand is not a canonical residue"


def _assert_fused_bound(k, p):
    assert k * (p - 1) ** 2 + (p - 1) <= F64_EXACT, f"one-pass product with k={k} at p={p}"


class _Audit:
    """Wraps the three entry points and checks each call; ``peak`` is the
    largest |x| / 2**53 passed to ``reduce_mod``."""

    def __init__(self, monkeypatch):
        self.peak = 0.0
        self.reductions = self.products = 0
        reduce_mod, matmul_mod, sub_mul = PrimeField.reduce_mod, PrimeField.matmul_mod, ClassicalKernels._sub_mul

        def checked_reduce(field, x, out=None):
            self.reductions += 1
            if x.size:
                assert np.all(x == np.floor(x)), "reduce_mod input is not integral"
                lo, hi = float(x.min()), float(x.max())
                assert -(F64_EXACT - field.p) < lo and hi < F64_EXACT, (lo, hi, field.p)
                self.peak = max(self.peak, -lo / F64_EXACT, hi / F64_EXACT)
            return reduce_mod(field, x, out)

        def checked_matmul(field, a, b):
            _assert_residues(field.p, a, b)
            self.products += 1
            before = self.reductions
            out = matmul_mod(field, a, b)
            if self.reductions - before == 1:  # the product was reduced once, not limb by limb
                _assert_fused_bound(a.shape[-1], field.p)
            return out

        def checked_sub_mul(kernels, c, a, b):
            _assert_residues(kernels.field.p, c, a, b)
            before = self.products
            sub_mul(kernels, c, a, b)
            if self.products == before:  # C - A @ B was formed in one pass
                _assert_fused_bound(a.shape[1], kernels.field.p)

        monkeypatch.setattr(PrimeField, "reduce_mod", checked_reduce)
        monkeypatch.setattr(PrimeField, "matmul_mod", checked_matmul)
        monkeypatch.setattr(ClassicalKernels, "_sub_mul", checked_sub_mul)


def _inputs(p):
    """Rank-deficient matrices, each stored contiguously and as a strided view."""
    for i, (m, n) in enumerate(SHAPES):
        a = gen_rank_deficient_rect(m, n, min(m, n) // 2 + i, p, seed=i)
        yield a
        storage = np.zeros((2 * m + 1, 3 * n))
        view = storage[1::2, ::3]
        view[:] = a.data
        yield DenseMatrix(a.field, view)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("p", PRIMES)
def test_kernels_stay_exact_on_whole_decompositions(monkeypatch, p, route):
    inputs = [(a, a.copy()) for a in _inputs(p)]
    audit = _Audit(monkeypatch)
    for a, original in inputs:
        assert ROUTES[route](a).reconstruct() == original
    assert audit.reductions
    print(f"p={p} {route}: largest |x| / 2**53 = {audit.peak:.3f}")
