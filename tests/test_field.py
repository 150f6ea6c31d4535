import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pluq import OpCounts, PrimeField, inverse_mod, is_prime
from pluq.field import _REDUCE_MIN
from pluq.kernels import ClassicalKernels
from test_moduli import PRIMES as MODULI_PRIMES

PRIMES = [2, 3, 5, 7, 101, 1009]


def test_modulus_must_be_prime():
    for bad in (0, 1, 4, 9, 1001, -7):
        with pytest.raises(ValueError):
            PrimeField(bad)
    for good in PRIMES:
        assert PrimeField(good).p == good


def test_modulus_of_any_integer_type_is_read_as_an_int():
    field = PrimeField(np.int64(7))
    assert field == PrimeField(7) and type(field.p) is int
    assert PrimeField(np.uint16(1009)).max_accumulate == PrimeField(1009).max_accumulate
    assert PrimeField(7) != PrimeField(5) and PrimeField(7) != 7
    for bad in (7.0, np.float64(7), "7", np.int64(9), None):
        with pytest.raises(ValueError, match="modulus must be a prime integer"):
            PrimeField(bad)


def test_modulus_bound_and_override():
    # every prime below 2**31 is accepted
    for p in (67108879, 2**31 - 1):  # primes just above 2**26 and just below 2**31
        f = PrimeField(p)
        assert scalar_mul(f, p - 1, p - 1) == pow(p - 1, 2, p)
        assert scalar_mul(f, p - 2, p - 3) == (p - 2) * (p - 3) % p
    with pytest.raises(ValueError, match="exceeds the bound"):
        PrimeField(2147483659)  # prime just above 2**31


def test_huge_modulus_rejected_before_primality_test():
    # trial division up to sqrt(2**61 - 1) would run for minutes
    with pytest.raises(ValueError, match="exceeds the bound"):
        PrimeField(2**61 - 1)


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
    # one storage dtype for every accepted modulus
    for p in (2, 1009, 1048573, (1 << 22) + 15, 67108859, 67108879, 2**31 - 1):
        f = PrimeField(p)
        assert f.dtype == np.float64
        assert f.asarray([[0, p - 1]]).dtype == np.float64


def test_matmul_mod_matches_bignum():
    for p in (1009, (1 << 22) + 15, 2**31 - 1):
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
    # past max_accumulate the product is formed from limb-split partial
    # products; entries p-1 give every partial sum its largest value
    for p in (67108859, (1 << 30) + 3, 2**31 - 1):
        f = PrimeField(p)
        for k in (1, f.max_accumulate + 1, 512):
            worst = np.full((2, k), p - 1, dtype=f.dtype)
            assert f.matmul_mod(worst, worst.T).tolist() == [[k * (p - 1) ** 2 % p] * 2] * 2, (p, k)
    # past (k+1) p = 2**52 even one-bit limbs could round, so the inner
    # dimension is split as well; (p-1)^2 = 1 mod p
    f = PrimeField(2**31 - 1)
    k = 2_097_153
    assert (k + 1) * f.p > 2**52
    worst = np.full((1, k), f.p - 1, dtype=f.dtype)
    assert int(f.matmul_mod(worst, worst.T)[0, 0]) == k % f.p
    f = PrimeField((1 << 30) + 3)
    k = 512
    rng = np.random.default_rng(30)
    a = rng.integers(f.p - 1000, f.p, size=(2, k), dtype=np.int64)
    b = rng.integers(f.p - 1000, f.p, size=(k, 3), dtype=np.int64)
    expected = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(k)) % f.p for j in range(3)] for i in range(2)]
    assert f.matmul_mod(f.asarray(a), f.asarray(b)).tolist() == expected



@pytest.mark.parametrize("p", MODULI_PRIMES)
def test_stacked_matmul_mod_matches_python_integers(p):
    # Leading axes are batch axes on both paths.  Where the field's bound
    # exceeds 35 it is lowered to 35 (any lower bound is still exact), so that
    # k = bound takes the one-pass product and k = bound + 1 the limb-split
    # one; at 2**31 - 1 the bound is 0 and k = 1 is already limb-split.  The
    # batch is longer than any k, so slicing it in place of the inner
    # dimension cannot pass.
    field = PrimeField(p)
    field.max_accumulate = bound = min(field.max_accumulate, 35)
    rng = np.random.default_rng(p)
    for k in sorted({1, max(bound, 1), bound + 1}):
        a = rng.integers(0, p, (37, 4, k)).astype(object)
        b = rng.integers(0, p, (37, k, 5)).astype(object)
        a[0], b[0] = p - 1, p - 1  # the largest partial sums
        got = field.matmul_mod(a.astype(field.dtype), b.astype(field.dtype))
        assert got.shape == (37, 4, 5)
        assert got.astype(np.int64).tolist() == (np.matmul(a, b) % p).tolist(), k
    # the elementwise product broadcasts like *, exactly on both of its paths
    got = field.mul_mod(a[:, :, :1].astype(field.dtype), b[:, :1, :].astype(field.dtype))
    assert got.astype(np.int64).tolist() == (a[:, :, :1] * b[:, :1, :] % p).tolist()

# For every prime of MODULI_PRIMES, floor(x * (1/p)) never falls short of
# floor(x / p) on the values below; at 2**31 - 19 it falls short by one on
# multiples of p just below 2**53, which only the ">= p" correction repairs.
REDUCE_PRIMES = MODULI_PRIMES + [2**31 - 19]


def _range_end(p, top):
    """The 4096 lowest (or highest) values of reduce_mod's range
    -(2**53 - p) < x < 2**53, after the 2048 multiples of p nearest that end
    and their neighbours, where the floor can miss by one."""
    low, high = -(2**53 - (p - 1)), 2**53 - 1
    if top:
        near = np.arange(high // p - 2047, high // p + 1) * p
        run = np.arange(high - 4095, high + 1)
    else:
        near = np.arange(-(-low // p), -(-low // p) + 2048) * p
        run = np.arange(low, low + 4096)
    near = (near[:, None] + np.array([-1, 0, 1])).ravel()
    return np.concatenate([near[(near >= low) & (near <= high)], run])


@pytest.mark.parametrize("p", REDUCE_PRIMES)
def test_reduce_mod_exact_at_both_ends_of_its_range(p):
    field = PrimeField(p)
    for top in (False, True):
        values = _range_end(p, top)
        # np.mod below the size cutoff, the corrected floor from it on
        for size in (0, 1, _REDUCE_MIN - 1, _REDUCE_MIN, values.size):
            want = values[:size] % p
            x = values[:size].astype(np.float64)
            host = np.full(3 * size, -1.0)
            field.reduce_mod(x.copy(), out=host[1::3])
            assert np.array_equal(host[1::3].astype(np.int64), want), (top, size)
            assert np.all(host[0::3] == -1.0) and np.all(host[2::3] == -1.0)
            assert np.array_equal(field.reduce_mod(x).astype(np.int64), want), (top, size)


def test_asarray_rejects_noncanonical(f5):
    with pytest.raises(ValueError):
        f5.asarray([[5]])
    with pytest.raises(ValueError):
        f5.asarray([[-1]])
    for bad in (1.5, np.nan, np.inf, -np.inf, 4.0000001):
        with pytest.raises(ValueError):
            f5.asarray([[1.0, bad]])
        with pytest.raises(ValueError):
            PrimeField(2**31 - 1).asarray([[1.0, bad]])  # at the widest modulus too
    assert f5.asarray([[4.0, 0.0]]).tolist() == [[4, 0]]


def test_asarray_accepts_only_integral_numbers(f5):
    # every dtype, object arrays included: fractions, complex values and text
    # are refused, not truncated, dropped with a warning, or left to numpy
    for bad in (
        np.array([[1.5, 2]], dtype=object),
        [[3 + 1j]],
        [[3 + 0j]],
        [["1"]],
        np.array([["1"]], dtype=object),
        [[None]],
    ):
        with pytest.raises(ValueError):
            f5.asarray(bad)
    for good in (np.array([[True, False]]), np.array([[1, 4.0]], dtype=object), np.array([[3]], dtype=np.uint8)):
        arr = f5.asarray(good)
        assert arr.dtype == np.float64 and arr.tolist() == np.asarray(good).astype(int).tolist()
