import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pluq import ClassicalKernels, OpCounts, PrimeField, inverse_mod, is_prime

PRIMES = [2, 3, 5, 7, 101, 1009]


def test_modulus_must_be_prime():
    for bad in (0, 1, 4, 9, 1001, -7):
        with pytest.raises(ValueError):
            PrimeField(bad)
    for good in PRIMES:
        assert PrimeField(good).p == good


def test_modulus_bound_and_override():
    with pytest.raises(ValueError):
        PrimeField(67108879)  # prime just above 2**26
    f = PrimeField(67108879, allow_large_modulus=True)
    assert scalar_mul(f, 67108878, 67108878) == pow(67108878, 2, 67108879)


def test_huge_modulus_rejected_before_primality_test():
    # trial division up to sqrt(2**61 - 1) would run for minutes
    with pytest.raises(ValueError, match="exceeds the bound"):
        PrimeField(2**61 - 1)
    with pytest.raises(ValueError, match="exceeds the bound"):
        PrimeField(2**61 - 1, allow_large_modulus=True)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# Scalar arithmetic as the field performs it: dot products through matmul_mod,
# a row times a column with one delayed reduction.


def dot(f, u, v):
    return int(f.matmul_mod(f.asarray([u]).reshape(1, -1), f.asarray([v]).reshape(-1, 1))[0, 0])


def scalar_add(f, a, b):
    return dot(f, [a, b], [1, 1])


def scalar_mul(f, a, b):
    return dot(f, [a], [b])


def test_add_examples():
    assert scalar_add(PrimeField(5), 3, 4) == 2
    assert scalar_add(PrimeField(2), 1, 1) == 0
    assert scalar_add(PrimeField(1009), 1008, 1) == 0


def test_mul_examples():
    assert scalar_mul(PrimeField(5), 3, 4) == 2
    assert scalar_mul(PrimeField(7), 0, 6) == 0
    # independent big-integer oracle: python ints are exact
    assert scalar_mul(PrimeField(1009), 1000, 1000) == (1000 * 1000) % 1009


def test_inv_examples():
    assert inverse_mod(2, 5) == 3
    assert inverse_mod(1, 7) == 1
    assert inverse_mod(2, 1009) == 505


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inverse_mod(0, 7)
    with pytest.raises(ZeroDivisionError):
        inverse_mod(14, 7)


@pytest.mark.parametrize("p", [p for p in PRIMES if p <= 101])
def test_inverse_exhaustive(p):
    for a in range(1, p):
        assert a * inverse_mod(a, p) % p == 1


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    vals=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
)
def test_field_axioms_sampled(p, vals):
    f = PrimeField(p)
    a, b, c = (v % p for v in vals)
    add, mul = (lambda x, y: scalar_add(f, x, y)), (lambda x, y: scalar_mul(f, x, y))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


# -- dot products: matmul_mod computes them, the kernel mm_acc charges them ----


def test_dot_accumulate_trivial(f5):
    assert dot(f5, [0, 0, 0], [0, 0, 0]) == 0
    assert dot(f5, [1, 2], [3, 4]) == 1  # 3 + 8 = 11 = 1 mod 5
    assert dot(f5, [], []) == 0


def test_dot_accumulate_charges_one_reduction(f1009):
    counts = OpCounts()
    c = np.zeros((1, 1), dtype=f1009.dtype)
    u = f1009.asarray([list(range(10))])
    ClassicalKernels(f1009).mm_acc(c, u, u.T, counts)  # c <- c - u.u
    assert int(c[0, 0]) == -sum(i * i for i in range(10)) % 1009
    assert counts.modular_reductions == 1
    assert counts.field_mul == 10
    assert counts.field_add == 10


def test_dot_accumulate_big_integer_oracle(f1009):
    rng = np.random.default_rng(2024)
    u = [int(x) for x in rng.integers(0, 1009, 1000)]
    v = [int(x) for x in rng.integers(0, 1009, 1000)]
    expected = sum(a * b for a, b in zip(u, v)) % 1009  # exact bignum arithmetic
    assert dot(f1009, u, v) == expected


def test_dot_accumulate_equals_fold(f5):
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(0, 20))
        u = [int(x) for x in rng.integers(0, 5, k)]
        v = [int(x) for x in rng.integers(0, 5, k)]
        acc = 0
        for a, b in zip(u, v):
            acc = (acc + a * b) % 5
        assert dot(f5, u, v) == acc


def test_dot_accumulate_length_mismatch(f5):
    with pytest.raises(ValueError):
        f5.matmul_mod(f5.asarray([[1]]), f5.asarray([[1], [2]]))
    with pytest.raises(ValueError):
        ClassicalKernels(f5).mm_acc(f5.asarray([[0]]), f5.asarray([[1]]), f5.asarray([[1], [2]]), OpCounts())


def test_storage_dtype_thresholds():
    assert PrimeField(1009).dtype == np.float64
    assert PrimeField((1 << 22) + 15).dtype == np.int64  # prime above the float64 cutoff


def test_matmul_mod_matches_bignum():
    for p in (1009, (1 << 22) + 15):
        f = PrimeField(p)
        rng = np.random.default_rng(p)
        a = rng.integers(0, p, size=(7, 9), dtype=np.int64)
        b = rng.integers(0, p, size=(9, 4), dtype=np.int64)
        expected = np.array(
            [[sum(int(a[i, k]) * int(b[k, j]) for k in range(9)) % p for j in range(4)] for i in range(7)]
        )
        got = f.matmul_mod(f.asarray(a), f.asarray(b))
        assert np.array_equal(np.asarray(got, dtype=np.int64), expected)


def test_matmul_mod_chunked_matches_bignum():
    # a large modulus forces a small overflow-safe accumulation bound, so the
    # inner dimension is split into chunks with a reduction after each
    f = PrimeField((1 << 30) + 3, allow_large_modulus=True)
    k = 3 * f.max_accumulate + 1
    ones = np.ones((1, k), dtype=f.dtype)
    assert int(f.matmul_mod(ones, ones.T)[0, 0]) == k % f.p
    rng = np.random.default_rng(30)
    a = rng.integers(f.p - 1000, f.p, size=(2, k), dtype=np.int64)
    b = rng.integers(f.p - 1000, f.p, size=(k, 3), dtype=np.int64)
    expected = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(k)) % f.p for j in range(3)] for i in range(2)]
    assert f.matmul_mod(f.asarray(a), f.asarray(b)).tolist() == expected


def test_asarray_rejects_noncanonical(f5):
    with pytest.raises(ValueError):
        f5.asarray([[5]])
    with pytest.raises(ValueError):
        f5.asarray([[-1]])
    for bad in (1.5, np.nan, np.inf, -np.inf, 4.0000001):
        with pytest.raises(ValueError):
            f5.asarray([[1.0, bad]])
        with pytest.raises(ValueError):
            PrimeField(67108859).asarray([[1.0, bad]])  # int64 storage truncates silently
    assert f5.asarray([[4.0, 0.0]]).tolist() == [[4, 0]]
