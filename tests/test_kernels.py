import dataclasses

import numpy as np
import pytest

from pluq import ClassicalKernels, DenseMatrix, OpCounts, PrimeField, pluq
from conftest import mat, random_matrix


def naive_mm_acc(c, a, b, p):
    """Independent triple loop with per-element reduction."""
    m, k = a.shape
    n = b.shape[1]
    out = c.astype(object).copy()
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] = (out[i, j] - int(a[i, t]) * int(b[t, j])) % p
    return out.astype(np.int64)


def test_mm_acc_identity_example():
    field = PrimeField(5)
    kern = ClassicalKernels(field)
    c = DenseMatrix.zeros(2, 2, field)
    a = DenseMatrix.identity(2, field)
    b = mat([[1, 2], [3, 4]], 5)
    kern.mm_acc(c.data, a.data, b.data, OpCounts())
    assert c == mat([[4, 3], [2, 1]], 5)  # 0 - I*B = -B


def test_mm_acc_empty_inner_dimension_is_noop():
    field = PrimeField(7)
    kern = ClassicalKernels(field)
    c = mat([[1, 2], [3, 4]], 7)
    counts = OpCounts()
    kern.mm_acc(c.data, np.zeros((2, 0), field.dtype), np.zeros((0, 2), field.dtype), counts)
    assert c == mat([[1, 2], [3, 4]], 7)
    assert counts.modular_reductions == 0 and counts.field_mul == 0


def test_mm_acc_against_triple_loop():
    rng = np.random.default_rng(77)
    for trial in range(1000):
        p = int(rng.choice([2, 3]))
        field = PrimeField(p)
        kern = ClassicalKernels(field)
        m, k, n = (int(x) for x in rng.integers(0, 6, 3))
        a = rng.integers(0, p, (m, k)).astype(field.dtype)
        b = rng.integers(0, p, (k, n)).astype(field.dtype)
        c = rng.integers(0, p, (m, n)).astype(field.dtype)
        expected = naive_mm_acc(c, a, b, p)
        kern.mm_acc(c, a, b, OpCounts())
        assert np.array_equal(c.astype(np.int64), expected), (trial, p, m, k, n)


def test_mm_acc_large_modulus_int64_path():
    p = 67108859  # prime below 2**26, stored as int64
    field = PrimeField(p)
    kern = ClassicalKernels(field)
    rng = np.random.default_rng(4)
    a = rng.integers(0, p, (4, 3000)).astype(field.dtype)
    b = rng.integers(0, p, (3000, 2)).astype(field.dtype)
    c = np.zeros((4, 2), field.dtype)
    kern.mm_acc(c, a, b, OpCounts())
    # bignum oracle on a couple of entries
    for i in (0, 3):
        for j in (0, 1):
            want = (-sum(int(a[i, t]) * int(b[t, j]) for t in range(3000))) % p
            assert int(c[i, j]) == want


@pytest.mark.parametrize("p, large", [
    (67108859, False),  # int64 storage
    (1048573, False),   # largest prime below 2**20, float64 storage
    (2**31 - 1, True),  # allow_large_modulus, int64 storage
])
def test_mm_acc_worst_case_at_the_fused_bound(p, large, monkeypatch):
    # C - A @ B is formed unreduced while k (p-1)^2 + (p-1) fits the
    # accumulator; one more term must take the chunked matmul_mod path.
    field = PrimeField(p, allow_large_modulus=large)
    exact = 2**53 if field.dtype == np.float64 else 2**63 - 1
    k_fused = (exact - (p - 1)) // (p - 1) ** 2
    assert field.max_accumulate == k_fused
    chunked = []
    original = PrimeField.matmul_mod
    monkeypatch.setattr(PrimeField, "matmul_mod",
                        lambda self, a, b: chunked.append(a.shape) or original(self, a, b))
    kern = ClassicalKernels(field)
    for k in (k_fused, k_fused + 1, 2 * k_fused):  # the last: two full chunks
        chunked.clear()
        m, n = 33, 2  # two row panels
        a = np.full((m, k), p - 1, dtype=field.dtype)
        b = np.full((k, n), p - 1, dtype=field.dtype)
        c = np.zeros((m, n), dtype=field.dtype)
        kern.mm_acc(c, a, b, OpCounts())
        want = (-k * (p - 1) ** 2) % p  # Python integers, no overflow
        assert c.astype(object).tolist() == [[want] * n] * m, k
        assert bool(chunked) == (k > k_fused), k


def test_trsm_left_unit_identity_noop():
    field = PrimeField(5)
    kern = ClassicalKernels(field)
    b = mat([[1, 2], [3, 4]], 5)
    kern.trsm_left_unit_lower(DenseMatrix.identity(2, field).data, b.data, OpCounts())
    assert b == mat([[1, 2], [3, 4]], 5)


def test_trsm_left_unit_forward_substitution():
    field = PrimeField(5)
    kern = ClassicalKernels(field)
    l = mat([[1, 0], [2, 1]], 5)
    b = mat([[1], [0]], 5)
    kern.trsm_left_unit_lower(l.data, b.data, OpCounts())
    assert b == mat([[1], [3]], 5)  # 0 - 2*1 = -2 = 3


def test_trsm_right_upper_scalar():
    field = PrimeField(5)
    kern = ClassicalKernels(field)
    b = mat([[1]], 5)
    kern.trsm_right_upper(b.data, mat([[2]], 5).data, OpCounts())
    assert b == mat([[3]], 5)  # inv(2) = 3


def test_trsm_right_upper_identity_noop():
    field = PrimeField(7)
    kern = ClassicalKernels(field)
    rng = np.random.default_rng(8)
    b = random_matrix(rng, 3, 3, 7)
    expected = b.copy()
    kern.trsm_right_upper(b.data, DenseMatrix.identity(3, field).data, OpCounts())
    assert b == expected


def test_trsm_zero_diagonal_raises():
    field = PrimeField(5)
    kern = ClassicalKernels(field)
    u = mat([[1, 2], [0, 0]], 5)
    with pytest.raises(ZeroDivisionError):
        kern.trsm_right_upper(np.zeros((2, 2), field.dtype), u.data, OpCounts())


@pytest.mark.parametrize("p", [5, 1009])
def test_trsm_remultiplication_restores(p):
    rng = np.random.default_rng(p)
    field = PrimeField(p)
    kern = ClassicalKernels(field)
    for _ in range(20):
        r = int(rng.integers(1, 40))
        n = int(rng.integers(0, 40))
        l = np.tril(rng.integers(0, p, (r, r)), -1).astype(field.dtype)
        b = rng.integers(0, p, (r, n)).astype(field.dtype)
        orig = b.copy()
        kern.trsm_left_unit_lower(l, b, OpCounts())
        lfull = l + np.eye(r, dtype=field.dtype)
        assert np.array_equal(field.matmul_mod(lfull, b), orig)

        u = np.triu(rng.integers(0, p, (r, r)), 1).astype(field.dtype)
        u[np.arange(r), np.arange(r)] = rng.integers(1, p, r)
        b2 = rng.integers(0, p, (n, r)).astype(field.dtype) if n else np.zeros((0, r), field.dtype)
        orig2 = b2.copy()
        kern.trsm_right_upper(b2, u, OpCounts())
        assert np.array_equal(field.matmul_mod(b2, u), orig2)


class RecordingKernels(ClassicalKernels):
    """Wrapper asserting the model charges of every call against the closed forms."""

    def __init__(self, field):
        super().__init__(field)
        self.calls = 0

    def _snap(self, counts):
        return dataclasses.replace(counts)

    def mm_acc(self, c, a, b, counts):
        before = self._snap(counts)
        super().mm_acc(c, a, b, counts)
        m, k = a.shape
        n = b.shape[1]
        expect = m * n if (k and m and n) else 0
        assert counts.modular_reductions - before.modular_reductions == expect
        assert counts.field_mul - before.field_mul == (m * n * k if expect else 0)
        self.calls += 1

    def trsm_left_unit_lower(self, l, b, counts):
        before = self._snap(counts)
        super().trsm_left_unit_lower(l, b, counts)
        r, n = l.shape[0], b.shape[1]
        assert counts.modular_reductions - before.modular_reductions == (r * n if r and n else 0)
        self.calls += 1

    def trsm_right_upper(self, b, u, counts):
        before = self._snap(counts)
        super().trsm_right_upper(b, u, counts)
        m, r = b.shape
        assert counts.modular_reductions - before.modular_reductions == (2 * m * r if r else 0)
        assert counts.field_inv - before.field_inv == r
        self.calls += 1


def test_reduction_charges_match_closed_forms_throughout_decomposition():
    rng = np.random.default_rng(123)
    for trial in range(20):
        m, n = (int(x) for x in rng.integers(1, 20, 2))
        a = random_matrix(rng, m, n, 101)
        kern = RecordingKernels(a.field)
        pluq(a, threshold=2, kernels=kern, counts=OpCounts())
    assert kern.calls > 0
